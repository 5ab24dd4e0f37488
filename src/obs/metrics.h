/**
 * @file
 * MetricsRegistry: one queryable tree over every component's live
 * statistics.
 *
 * Each component lists its statistics once (Component::listStats into
 * a StatList); the same list feeds System::stats(), the stats reset
 * and, when metrics are on, this registry, which System binds once
 * over the whole tree through one MetricSet per component.  A
 * MetricSet unregisters its entries when its component dies (ports
 * are replaced in place).  The registry stores no values -- a
 * snapshot() materializes the tree into plain data with
 * merge/delta/reset semantics for the time-series sampler, the
 * emitters and tests.
 *
 * Path convention: `<component-path>.<stat>`, the System::stats() key
 * (e.g. "system.hmc.vault3.requests_served").  A stat's scalar is a
 * counter's value, a sampler's mean, a histogram's total or a gauge's
 * reading.  Gauges ending in "_now" (queue depths) or "_in_use"
 * (tokens, credits) are the occupancy readings the congestion heatmap
 * samples.
 */

#ifndef HMCSIM_OBS_METRICS_H_
#define HMCSIM_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/inline_function.h"
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

/**
 * The receiving end of Component::listStats: one call per statistic,
 * named relative to the component's path.  The stats report, the
 * stats reset and the registry binding each implement it.
 */
class StatList
{
  public:
    /** Reads live state: an occupancy, a peak, a derived figure. */
    using Gauge = InlineFunction<double()>;

    virtual ~StatList() = default;

    virtual void counter(std::string_view name, const Counter &c) = 0;
    virtual void sampler(std::string_view name, const SampleStats &s) = 0;
    virtual void histogram(std::string_view name, const Histogram &h) = 0;
    /** Gauges are never reset; a component restarts the state they
     *  read (a peak, a window base) in Component::resetOwnStats. */
    virtual void gauge(std::string_view name, Gauge g) = 0;

    /** A gauge reading the numeric member @p v. */
    template <typename T>
    void
    level(std::string_view name, const T &v)
    {
        gauge(name, [&v] { return static_cast<double>(v); });
    }
};

/** Resets every listed counter, sampler and histogram; skips gauges. */
class StatReset final : public StatList
{
  public:
    void counter(std::string_view name, const Counter &c) override;
    void sampler(std::string_view name, const SampleStats &s) override;
    void histogram(std::string_view name, const Histogram &h) override;
    void gauge(std::string_view, Gauge) override {}
};

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

/**
 * The registry proper: path -> reference to a live stat object (or a
 * gauge callback).  Registration overwrites an existing path, and the
 * owner token keeps an earlier owner's unregistration from tearing
 * down a later owner's entry at the same path.  Gauge callbacks run while
 * snapshot() iterates the table (or value() looks one up), so a gauge
 * must never call back into the registry.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    void addCounter(std::string path, const Counter *c,
                    const void *owner = nullptr);
    void addGauge(std::string path, StatList::Gauge fn,
                  const void *owner = nullptr);
    void addSampler(std::string path, const SampleStats *s,
                    const void *owner = nullptr);
    void addHistogram(std::string path, const Histogram *h,
                      const void *owner = nullptr);

    /** Remove every path starting with @p prefix that @p owner
     *  registered and nobody re-registered since. */
    void removeOwned(const std::string &prefix, const void *owner);

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
        /** Mutable: reading a gauge runs its callback. */
        mutable StatList::Gauge gauge;
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
 * RAII bundle of registrations sharing one base path: the StatList a
 * component's listStats() registers through.  An unbound set is inert.
 */
class MetricSet final : public StatList
{
  public:
    MetricSet() = default;
    ~MetricSet() override;

    MetricSet(const MetricSet &) = delete;
    MetricSet &operator=(const MetricSet &) = delete;

    /** Attach to @p reg with path prefix @p base ("" = absolute paths). */
    void bind(MetricsRegistry *reg, std::string base);

    bool bound() const { return reg_ != nullptr; }
    MetricsRegistry *registry() const { return reg_; }

    void counter(std::string_view name, const Counter &c) override;
    void sampler(std::string_view name, const SampleStats &s) override;
    void histogram(std::string_view name, const Histogram &h) override;
    void gauge(std::string_view name, Gauge g) override;

  private:
    MetricsRegistry *reg_ = nullptr;
    /** The base path plus '.', or empty for absolute paths. */
    std::string prefix_;

    std::string qualify(std::string_view name) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_METRICS_H_
