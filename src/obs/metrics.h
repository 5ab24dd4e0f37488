/**
 * @file
 * MetricsRegistry: one queryable tree over every component's live
 * statistics.
 *
 * Components register their existing stat primitives (Counter,
 * SampleStats, Histogram, or an arbitrary gauge callback) under their
 * component path at construction time, through a MetricSet that
 * unregisters everything again when the component dies (ports are
 * replaced in place when experiments reconfigure them, so lifetime
 * tracking matters).  The registry itself stores no values -- a
 * snapshot() materializes the whole tree into plain data with
 * merge/delta/reset semantics, which is what the time-series sampler,
 * the JSON/CSV emitters, and tests consume.
 *
 * Path convention: `<component-path>.<stat>`, matching the names
 * Component::reportStats has always used (e.g.
 * "system.hmc.vault3.requests_served", "system.fpga.port0.reads").
 */

#ifndef HMCSIM_OBS_METRICS_H_
#define HMCSIM_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"

namespace hmcsim {

enum class MetricKind {
    /** Monotonic event count; snapshots merge by summing. */
    Counter,
    /** Instantaneous reading (queue depth, temperature); snapshots
     *  merge by keeping the other side's reading (last-writer-wins). */
    Gauge,
    /** Streaming sample statistics; snapshots merge via the
     *  parallel-combine rule. */
    Sampler,
    /** Fixed-bin histogram; snapshots merge bin-wise. */
    Histogram,
};

std::string toString(MetricKind k);

/** One metric's materialized value inside a snapshot. */
struct MetricPoint {
    MetricKind kind = MetricKind::Counter;
    /** Counter total or gauge reading; samplers/histograms use the
     *  structured fields below. */
    double value = 0.0;
    SampleStats sample;
    std::vector<std::uint64_t> bins;
    double binLo = 0.0;
    double binHi = 0.0;

    /** Merge @p other into this point (kinds must match). */
    void merge(const MetricPoint &other);
};

/**
 * A point-in-time copy of the whole metrics tree: plain data,
 * detached from the live components.
 */
class MetricsSnapshot
{
  public:
    using Map = std::map<std::string, MetricPoint>;

    const Map &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** The point at @p path, or nullptr. */
    const MetricPoint *find(const std::string &path) const;

    /** Convenience: counter/gauge value at @p path (0 when absent). */
    double value(const std::string &path) const;

    /**
     * Merge @p other into this snapshot (parallel-combine: counters
     * sum, samplers pool, histograms add bins, gauges take the other
     * side).  Paths present on either side survive.
     */
    void merge(const MetricsSnapshot &other);

    /**
     * Per-interval view: counters and sampler count/sum become the
     * difference against @p earlier; gauges keep this snapshot's
     * (current) reading.  Histograms are dropped -- interval rows want
     * scalars.  Used by the time-series sampler.
     */
    MetricsSnapshot delta(const MetricsSnapshot &earlier) const;

    /** Drop every point. */
    void reset() { points_.clear(); }

    Map &mutablePoints() { return points_; }

  private:
    Map points_;
};

class MetricSet;

/**
 * The registry proper: path -> reference to a live stat object (or a
 * gauge callback).  Registration overwrites an existing path -- a
 * replacement port re-registers before its predecessor is destroyed,
 * and the owner token keeps the predecessor's unregistration from
 * tearing down the successor's entries.  Gauge callbacks run while
 * snapshot() iterates the table (or value() looks one up), so a gauge
 * must never call back into the registry.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    void addCounter(const std::string &path, const Counter *c,
                    const void *owner = nullptr);
    void addGauge(const std::string &path, std::function<double()> fn,
                  const void *owner = nullptr);
    void addSampler(const std::string &path, const SampleStats *s,
                    const void *owner = nullptr);
    void addHistogram(const std::string &path, const Histogram *h,
                      const void *owner = nullptr);

    /** Remove @p path if it is owned by @p owner (nullptr matches any). */
    void remove(const std::string &path, const void *owner = nullptr);

    bool has(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** All registered paths in sorted order. */
    std::vector<std::string> paths() const;

    /**
     * Materialize the whole tree: every entry is copied, histograms
     * bin by bin and every gauge callback run.  Meant for the
     * emitters and the time-series sampler; do not call it from a
     * per-window hot path that needs only a few scalars -- use value().
     */
    MetricsSnapshot snapshot() const;

    /**
     * The scalar snapshot().value(@p path) would return, read straight
     * from the live entry: counter value, gauge reading, sampler mean
     * or histogram total; 0 when @p path is absent.
     */
    double value(const std::string &path) const;

    /** Materialize only paths starting with @p prefix. */
    MetricsSnapshot snapshotSubtree(const std::string &prefix) const;

  private:
    struct Entry {
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        std::function<double()> gauge;
        const SampleStats *sampler = nullptr;
        const Histogram *histogram = nullptr;
        const void *owner = nullptr;
    };

    std::map<std::string, Entry> entries_;

    /** The entry's scalar reading (see value()). */
    static double scalar(const Entry &e);
    static MetricPoint materialize(const Entry &e);
};

/**
 * RAII bundle of registrations sharing one base path.  Components hold
 * one by value; an unbound set is inert, so the disabled-observability
 * path costs a null check per registration call and nothing at runtime.
 */
class MetricSet
{
  public:
    MetricSet() = default;
    ~MetricSet();

    MetricSet(const MetricSet &) = delete;
    MetricSet &operator=(const MetricSet &) = delete;

    /** Attach to @p reg with path prefix @p base ("" = absolute paths). */
    void bind(MetricsRegistry *reg, std::string base);

    bool bound() const { return reg_ != nullptr; }

    void counter(const std::string &name, const Counter *c);
    void gauge(const std::string &name, std::function<double()> fn);
    void sampler(const std::string &name, const SampleStats *s);
    void histogram(const std::string &name, const Histogram *h);

  private:
    MetricsRegistry *reg_ = nullptr;
    std::string base_;
    std::vector<std::string> paths_;

    std::string qualify(const std::string &name) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_METRICS_H_
