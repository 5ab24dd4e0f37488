#include "obs/obs_config.h"

#include "common/log.h"

namespace hmcsim {

TraceMode
traceModeFromString(const std::string &s)
{
    if (s == "off")
        return TraceMode::Off;
    if (s == "summary")
        return TraceMode::Summary;
    if (s == "full")
        return TraceMode::Full;
    fatal("obs: unknown trace mode '" + s + "' (expected off|summary|full)");
}

std::string
toString(TraceMode m)
{
    switch (m) {
      case TraceMode::Off:
        return "off";
      case TraceMode::Summary:
        return "summary";
      case TraceMode::Full:
        return "full";
    }
    return "off";
}

void
ObsConfig::validate() const
{
    traceModeFromString(trace);
    if (traceSampleEvery == 0)
        fatal("obs: trace_sample_every must be >= 1");
    if (traceBufferEvents == 0)
        fatal("obs: trace_buffer_events must be >= 1");
    if (sampleIntervalNs > 0 && sampleCsvPath.empty())
        fatal("obs: sample_interval_ns needs a sample_csv destination");
    if (anatomyHistNs == 0)
        fatal("obs: anatomy_hist_ns must be >= 1");
    if (anatomyHistBins == 0)
        fatal("obs: anatomy_hist_bins must be >= 1");
}

ObsConfig
ObsConfig::fromConfig(const Config &cfg)
{
    ObsConfig c;
    c.metrics = cfg.getBool("obs.metrics", c.metrics);
    c.sampleIntervalNs =
        cfg.getU64("obs.sample_interval_ns", c.sampleIntervalNs);
    c.sampleCsvPath = cfg.getString("obs.sample_csv", c.sampleCsvPath);
    c.trace = cfg.getString("obs.trace", c.trace);
    c.traceSampleEvery =
        cfg.getU64("obs.trace_sample_every", c.traceSampleEvery);
    c.traceBufferEvents =
        cfg.getU64("obs.trace_buffer_events", c.traceBufferEvents);
    c.traceJsonPath = cfg.getString("obs.trace_json", c.traceJsonPath);
    c.anatomy = cfg.getBool("obs.anatomy", c.anatomy);
    c.anatomyWindowNs =
        cfg.getU64("obs.anatomy_window_ns", c.anatomyWindowNs);
    c.anatomyHistNs = cfg.getU64("obs.anatomy_hist_ns", c.anatomyHistNs);
    c.anatomyHistBins =
        cfg.getU64("obs.anatomy_hist_bins", c.anatomyHistBins);
    c.validate();
    return c;
}

void
ObsConfig::toConfig(Config &cfg) const
{
    cfg.setBool("obs.metrics", metrics);
    cfg.setU64("obs.sample_interval_ns", sampleIntervalNs);
    cfg.set("obs.sample_csv", sampleCsvPath);
    cfg.set("obs.trace", trace);
    cfg.setU64("obs.trace_sample_every", traceSampleEvery);
    cfg.setU64("obs.trace_buffer_events", traceBufferEvents);
    cfg.set("obs.trace_json", traceJsonPath);
    cfg.setBool("obs.anatomy", anatomy);
    cfg.setU64("obs.anatomy_window_ns", anatomyWindowNs);
    cfg.setU64("obs.anatomy_hist_ns", anatomyHistNs);
    cfg.setU64("obs.anatomy_hist_bins", anatomyHistBins);
}

}  // namespace hmcsim
