/**
 * @file
 * Power/thermal characterization sweep (no paper counterpart: the
 * paper measures a real cube whose bandwidth is shaped by power and
 * thermal limits; this figure exposes the simulator's model of them).
 *
 * Part 1 sweeps offered load (active GUPS ports) with the default
 * observation-only power model: energy, average power, and
 * steady-state stack temperature vs. delivered bandwidth.
 *
 * Part 2 runs a sustained 9-port load against a deliberately low
 * thermal limit with accelerated thermal constants and reports a
 * time series of consecutive windows: the stack heats up, the
 * governor engages, and delivered bandwidth degrades -- the paper's
 * throttle-cliff behaviour under sustained load.
 */

#include <iostream>

#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

void
loadSweep()
{
    std::cout << "fig_power_thermal part 1: load vs energy/temperature "
                 "(observation-only)\n";
    bench::CsvOutput csv_out("fig_power_thermal_load");
    CsvWriter csv(csv_out.stream(),
                  {"request_bytes", "bandwidth_gbs", "energy_pj",
                   "avg_power_w", "temp_c", "throttle_pct"});

    // Throttling stays off (the default); thermals are accelerated so
    // the reported temperature is the steady state for each load.
    SystemConfig cfg;
    cfg.hmc.power.thermal.layerCapacitanceJperK = 1e-5;
    const Tick warmup = scaled(fastMode() ? 5 : 15) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 6 : 30) * kMicrosecond;

    for (std::uint32_t bytes : kSizes) {
        WorkloadSpec gups;
        gups.requestBytes = bytes;
        SystemConfig point = cfg;
        addWorkloadPorts(point, 9, gups, 7919);
        const ExperimentResult r = runPoint(point, warmup, window);
        csv.row()
            .cell(bytes)
            .cell(r.bandwidthGBs, 2)
            .cell(r.energyPj, 0)
            .cell(r.avgPowerW, 2)
            .cell(r.maxTempC, 2)
            .cell(r.throttlePct, 1);
    }
    csv.finish();
}

void
throttleCliff()
{
    std::cout << "\nfig_power_thermal part 2: sustained load against a "
                 "low thermal limit (accelerated constants)\n";

    SystemConfig cfg;
    cfg.hmc.power.thermal.layerCapacitanceJperK = 1e-5;
    cfg.hmc.power.stepInterval = 1 * kMicrosecond;
    cfg.hmc.power.throttle.enabled = true;
    cfg.hmc.power.throttle.onThresholdC = 49.0;
    cfg.hmc.power.throttle.offThresholdC = 47.5;
    cfg.hmc.power.throttle.maxSlowdown = 4.0;

    WorkloadSpec gups;
    gups.requestBytes = 128;
    addWorkloadPorts(cfg, 9, gups, 7919);
    System sys(cfg);

    bench::CsvOutput csv_out("fig_power_thermal_throttle");
    CsvWriter csv(csv_out.stream(),
                  {"window", "time_us", "bandwidth_gbs", "energy_pj",
                   "temp_c", "throttle_pct"});
    const Tick window = scaled(fastMode() ? 3 : 8) * kMicrosecond;
    const int windows = fastMode() ? 8 : 12;

    double first_bw = 0.0;
    double last_bw = 0.0;
    double peak_temp = 0.0;
    double total_energy_pj = 0.0;
    double last_throttle_pct = 0.0;
    for (int w = 0; w < windows; ++w) {
        const ExperimentResult r = sys.measure(window);
        csv.row()
            .cell(w)
            .cell(ticksToUs(sys.now()), 1)
            .cell(r.bandwidthGBs, 2)
            .cell(r.energyPj, 0)
            .cell(r.maxTempC, 2)
            .cell(r.throttlePct, 1);
        if (w == 0)
            first_bw = r.bandwidthGBs;
        last_bw = r.bandwidthGBs;
        peak_temp = std::max(peak_temp, r.maxTempC);
        total_energy_pj += r.energyPj;
        last_throttle_pct = r.throttlePct;
    }
    csv.finish();

    Report rep(std::cout);
    rep.section("throttle cliff");
    rep.measured("cold-window bandwidth", first_bw, "GB/s");
    rep.measured("sustained (throttled) bandwidth", last_bw, "GB/s");
    rep.measured("degradation", first_bw / last_bw, "x");
    rep.power(total_energy_pj, peak_temp, last_throttle_pct);
    rep.note("with this limit static power alone keeps the stack above "
             "the band, so the governor saturates at full depth and "
             "bandwidth settles on the throttled plateau");
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    loadSweep();
    throttleCliff();
    return 0;
}
