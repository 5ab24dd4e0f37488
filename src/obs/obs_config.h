/**
 * @file
 * Observability configuration: the `obs.*` config surface.
 *
 * Everything defaults off, and off is bit-identical to a build without
 * the observability layer: no metric registrations, no trace hooks,
 * no sampler events enter the event queue.
 *
 * Knobs:
 *   obs.metrics              bool    build the queryable metrics tree
 *   obs.sample_interval_ns   u64     periodic time-series sampling
 *                                    interval (0 = off; implies metrics)
 *   obs.sample_csv           path    time-series CSV destination
 *   obs.trace                off|summary|full   packet-lifetime tracer
 *   obs.trace_sample_every   u64     trace every Nth packet id (>= 1)
 *   obs.trace_buffer_events  u64     flight-recorder ring capacity
 *   obs.trace_json           path    Chrome trace_event JSON dumped at
 *                                    System teardown ("" = no dump)
 *   obs.anatomy              off|on  latency-anatomy engine: per-phase
 *                                    waterfall histograms, congestion
 *                                    heatmap windows, bottleneck verdict
 *                                    (implies metrics)
 *   obs.anatomy_window_ns    u64     congestion heatmap window (0 =
 *                                    follow sample_interval_ns, or
 *                                    1000 ns when that is off too)
 *   obs.anatomy_hist_ns      u64     upper edge of the per-phase
 *                                    latency histograms, ns
 *   obs.anatomy_hist_bins    u64     bins of the per-phase histograms
 */

#ifndef HMCSIM_OBS_OBS_CONFIG_H_
#define HMCSIM_OBS_OBS_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/config.h"

namespace hmcsim {

/** Packet-lifetime tracing level. */
enum class TraceMode {
    /** No hooks armed; bit-identical, zero-overhead default. */
    Off,
    /** One lifecycle record per sampled packet, reconstructed from the
     *  packet's latency-decomposition timestamps at completion. */
    Summary,
    /** Live events at every instrumented point along the packet path. */
    Full,
};

TraceMode traceModeFromString(const std::string &s);
std::string toString(TraceMode m);

struct ObsConfig {
    bool metrics = false;
    std::uint64_t sampleIntervalNs = 0;
    std::string sampleCsvPath = "obs_timeseries.csv";
    std::string trace = "off";
    std::uint64_t traceSampleEvery = 1;
    std::uint64_t traceBufferEvents = 1 << 16;
    std::string traceJsonPath;
    bool anatomy = false;
    std::uint64_t anatomyWindowNs = 0;
    std::uint64_t anatomyHistNs = 32768;
    std::uint64_t anatomyHistBins = 1024;

    TraceMode traceMode() const { return traceModeFromString(trace); }

    /** True when the metrics tree must exist (explicitly or because
     *  the time-series sampler or the anatomy engine needs it). */
    bool
    metricsEnabled() const
    {
        return metrics || sampleIntervalNs > 0 || anatomy;
    }

    /** Congestion-heatmap window in ns, defaults resolved. */
    std::uint64_t
    anatomyWindowNsEffective() const
    {
        if (anatomyWindowNs > 0)
            return anatomyWindowNs;
        return sampleIntervalNs > 0 ? sampleIntervalNs : 1000;
    }

    /** True when any obs feature is on (System builds Observability). */
    bool anyEnabled() const
    {
        return metricsEnabled() || traceMode() != TraceMode::Off;
    }

    void validate() const;

    /** Read "obs.*" keys over the defaults. */
    static ObsConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_OBS_CONFIG_H_
