/**
 * @file
 * Quickstart: build the paper's AC-510 + HMC 1.1 system with default
 * configuration, point one GUPS port at the whole cube, and print the
 * measured bandwidth and latency.
 *
 * Run: ./quickstart [key=value ...]
 * e.g. ./quickstart hmc.topology=quadrant_ring host.tags_per_port=16
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
    // Optional key=value overrides from the command line.
    Config overrides;
    SystemConfig{}.toConfig(overrides);  // start from defaults
    std::vector<std::string> args(argv + 1, argv + argc);
    overrides.applyOverrides(args);
    const SystemConfig cfg = SystemConfig::fromConfig(overrides);

    System sys(cfg);

    std::printf("hmc-noc-sim quickstart\n");
    std::printf("  cube: %u vaults x %u banks, %.0f GB/s peak (Eq. 1)\n",
                cfg.hmc.numVaults, cfg.hmc.numBanksPerVault,
                cfg.hmc.peakBandwidthGBs());

    // One GUPS port, random 64 B reads over every vault and bank.
    WorkloadSpec gups;
    gups.requestBytes = 64;
    gups.patternVaults = cfg.hmc.numVaults;
    gups.patternBanks = cfg.hmc.numBanksPerVault;
    gups.seed = 1;
    sys.configureWorkload(0, gups);

    sys.run(20 * kMicrosecond);                       // warm up
    ExperimentResult r = sys.measure(50 * kMicrosecond);

    std::printf("\none port, 64 B random reads, whole cube:\n");
    std::printf("  reads          %llu\n",
                static_cast<unsigned long long>(r.totalReads));
    std::printf("  bandwidth      %.2f GB/s (request+response bytes)\n",
                r.bandwidthGBs);
    std::printf("  read latency   avg %.0f ns  min %.0f  max %.0f\n",
                r.avgReadLatencyNs, r.minReadLatencyNs,
                r.maxReadLatencyNs);

    // Scale up to all nine ports, like the paper's GUPS runs.
    for (PortId p = 1; p < cfg.host.numPorts; ++p) {
        gups.seed = 1 + p;
        sys.configureWorkload(p, gups);
    }
    sys.run(20 * kMicrosecond);
    r = sys.measure(50 * kMicrosecond);
    std::printf("\nnine ports (paper's high-contention GUPS):\n");
    std::printf("  bandwidth      %.2f GB/s\n", r.bandwidthGBs);
    std::printf("  read latency   avg %.0f ns\n", r.avgReadLatencyNs);
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
