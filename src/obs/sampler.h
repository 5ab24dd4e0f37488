/**
 * @file
 * Periodic time-series sampler over the metrics registry.
 *
 * Every `obs.sample_interval_ns` of simulated time it snapshots the
 * registry, differences the snapshot against the previous interval,
 * and appends one CSV row: simulated time plus, per metric, the
 * interval delta (counters), the current reading (gauges) or the
 * interval mean (samplers).  Histograms are excluded from rows.
 *
 * A stats reset re-bases the differencing (rebase()), and a replaced
 * component's paths restart from zero (restart()).
 *
 * The column set is frozen at the first fire (sorted registry paths at
 * that moment), so the CSV stays rectangular even if components are
 * later replaced.  Sampling events are observation-only: they read
 * stats and touch no simulation state.
 */

#ifndef HMCSIM_OBS_SAMPLER_H_
#define HMCSIM_OBS_SAMPLER_H_

#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/kernel.h"

namespace hmcsim {

class TimeSeriesSampler
{
  public:
    /**
     * @param interval sampling period in ticks (> 0)
     * @param csv_path destination file (opened lazily at start())
     */
    TimeSeriesSampler(Kernel &kernel, const MetricsRegistry &registry,
                      Tick interval, std::string csv_path);

    /** Begin periodic sampling; idempotent. */
    void start();

    /**
     * Write one final partial-interval row and flush the CSV without
     * rescheduling -- the panic path calls this so the time series
     * ends at the crash instant, not the last whole interval.  No-op
     * before start().
     */
    void flushNow();

    /**
     * Difference the next row against the registry as it reads now.
     * System::resetStats() calls this, so a row that spans the reset
     * reports counts since the reset rather than a negative delta.
     * No-op before start().
     */
    void rebase();

    /**
     * Difference the next row of the paths under @p prefix against
     * zero: the component there was replaced and its stats restarted.
     */
    void restart(const std::string &prefix);

    std::uint64_t rowsWritten() const { return rows_; }
    const std::string &csvPath() const { return path_; }

  private:
    Kernel &kernel_;
    const MetricsRegistry &registry_;
    Tick interval_;
    std::string path_;
    std::ofstream out_;
    bool started_ = false;
    std::vector<std::string> columns_;
    MetricsSnapshot prev_;
    std::uint64_t rows_ = 0;

    void fire();
    void writeRow();
    void writeHeader(const MetricsSnapshot &snap);
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_SAMPLER_H_
