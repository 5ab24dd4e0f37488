/**
 * @file
 * Observability: the per-System bundle of the metrics registry, the
 * packet-lifetime tracer, the time-series sampler and the latency
 * anatomy engine, wired to components through Kernel::obs().
 *
 * System constructs one (only when any `obs.*` feature is enabled) and
 * publishes it on the kernel before building the component tree, so
 * every component can register metrics / cache tracer pointers in its
 * constructor.  With everything at defaults Kernel::obs() stays null
 * and the whole layer costs nothing.
 *
 * On destruction: if `obs.trace_json` names a file, the flight
 * recorder is dumped there in Chrome trace_event format.  While alive,
 * a panic() anywhere dumps the last recorded events to stderr.
 */

#ifndef HMCSIM_OBS_OBSERVABILITY_H_
#define HMCSIM_OBS_OBSERVABILITY_H_

#include <memory>
#include <string>

#include "common/log.h"
#include "obs/anatomy.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace hmcsim {

class Kernel;

class Observability
{
  public:
    explicit Observability(const ObsConfig &cfg);
    ~Observability();

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    const ObsConfig &config() const { return cfg_; }

    /** The queryable stat tree; empty unless metrics are enabled. */
    MetricsRegistry &registry() { return registry_; }
    const MetricsRegistry &registry() const { return registry_; }

    /** Registry to register into, or null when metrics are off --
     *  components pass this straight to MetricSet::bind. */
    MetricsRegistry *
    metricsRegistry()
    {
        return cfg_.metricsEnabled() ? &registry_ : nullptr;
    }

    /** Tracer for completion-path lifecycle hooks (summary + full). */
    PacketTracer *tracer() { return tracer_.get(); }

    /** Tracer for per-event hooks; non-null only in full mode. */
    PacketTracer *
    fullTracer()
    {
        return tracer_ && tracer_->mode() == TraceMode::Full
                   ? tracer_.get()
                   : nullptr;
    }

    /** Start the periodic observers: the time-series sampler and the
     *  congestion recorder (each a no-op when its feature is off). */
    void startSampler(Kernel &kernel);

    const TimeSeriesSampler *sampler() const { return sampler_.get(); }

    /** Latency-anatomy collector, or null when obs.anatomy is off. */
    AnatomyCollector *anatomy() { return anatomy_.get(); }
    const AnatomyCollector *anatomy() const { return anatomy_.get(); }

    /** Congestion recorder; created with the anatomy engine. */
    CongestionRecorder *congestion() { return congestion_.get(); }
    const CongestionRecorder *congestion() const
    {
        return congestion_.get();
    }

    /** Human-readable tail of the trace buffer (crash diagnostics);
     *  for the Chrome JSON form use tracer()->dumpChromeJson(). */
    void dumpTrace(std::ostream &os) const;

    /** Write Chrome trace_event JSON to @p path (packet slices plus
     *  the congestion counter tracks when the anatomy engine is on);
     *  warns and continues on I/O failure. */
    void dumpTraceToFile(const std::string &path) const;

    /** Panic-path flush: trace tail to stderr, final time-series row,
     *  and the trace JSON file if one is configured. */
    void onPanic();

  private:
    ObsConfig cfg_;
    MetricsRegistry registry_;
    std::unique_ptr<PacketTracer> tracer_;
    std::unique_ptr<TimeSeriesSampler> sampler_;
    std::unique_ptr<AnatomyCollector> anatomy_;
    std::unique_ptr<CongestionRecorder> congestion_;
    PanicHook prevHook_ = nullptr;
    bool hookInstalled_ = false;
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_OBSERVABILITY_H_
