#include "obs/obs_config.h"

#include "common/log.h"

namespace hmcsim {

namespace {

/** The "obs.*" key list. */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("obs.metrics", c.metrics);
    f("obs.sample_interval_ns", c.sampleIntervalNs);
    f("obs.sample_csv", c.sampleCsvPath);
    f("obs.trace", c.trace);
    f("obs.trace_sample_every", c.traceSampleEvery);
    f("obs.trace_buffer_events", c.traceBufferEvents);
    f("obs.trace_json", c.traceJsonPath);
    f("obs.anatomy", c.anatomy);
    f("obs.anatomy_window_ns", c.anatomyWindowNs);
    f("obs.anatomy_hist_ns", c.anatomyHistNs);
    f("obs.anatomy_hist_bins", c.anatomyHistBins);
}

}  // namespace

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
    fields(c, ConfigReader{cfg});
    c.validate();
    return c;
}

void
ObsConfig::toConfig(Config &cfg) const
{
    fields(*this, ConfigWriter{cfg});
}

}  // namespace hmcsim
