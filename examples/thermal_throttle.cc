/**
 * @file
 * Thermal throttling scenario: a sustained 9-port GUPS load against a
 * cube configured with a low thermal limit and accelerated thermal
 * constants, printed as a per-window time series.  Watch the stack
 * heat up, the governor engage, and delivered bandwidth fall until
 * the temperature regulates inside the hysteresis band.
 *
 * Run: ./example_thermal_throttle [key=value ...]
 * e.g. ./example_thermal_throttle hmc.power_throttle_on_c=52
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;

int
main(int argc, char **argv)
try {
    Config overrides;
    SystemConfig{}.toConfig(overrides);
    // Scenario defaults: aggressive limit, fast thermals.  Command
    // line key=value pairs can override any of them.
    overrides.setDouble("hmc.power_layer_capacitance_j_per_k", 1e-5);
    overrides.setU64("hmc.power_step_ps", 1 * kMicrosecond);
    overrides.setBool("hmc.power_throttle_enabled", true);
    overrides.setDouble("hmc.power_throttle_on_c", 49.0);
    overrides.setDouble("hmc.power_throttle_off_c", 47.5);
    std::vector<std::string> args(argv + 1, argv + argc);
    overrides.applyOverrides(args);
    const SystemConfig cfg = SystemConfig::fromConfig(overrides);

    System sys(cfg);
    WorkloadSpec gups;
    gups.requestBytes = 128;
    gups.patternVaults = cfg.hmc.numVaults;
    gups.patternBanks = cfg.hmc.numBanksPerVault;
    for (PortId p = 0; p < cfg.host.numPorts; ++p) {
        gups.seed = 7919 + p;
        sys.configureWorkload(p, gups);
    }

    std::printf("thermal throttle scenario: 9-port GUPS, 128 B reads\n");
    std::printf("  limit: on above %.1f C, off below %.1f C, "
                "max slowdown %.1fx\n\n",
                cfg.hmc.power.throttle.onThresholdC,
                cfg.hmc.power.throttle.offThresholdC,
                cfg.hmc.power.throttle.maxSlowdown);
    std::printf("%8s %10s %12s %10s %10s %13s\n", "time_us", "temp_c",
                "power_w", "bw_gbs", "latency_ns", "throttle_pct");

    for (int w = 0; w < 12; ++w) {
        const ExperimentResult r = sys.measure(8 * kMicrosecond);
        std::printf("%8.1f %10.2f %12.2f %10.2f %10.0f %13.1f\n",
                    ticksToUs(sys.now()), r.maxTempC, r.avgPowerW,
                    r.bandwidthGBs, r.avgReadLatencyNs, r.throttlePct);
    }
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
