/**
 * @file
 * QoS-by-partitioning demo (the paper's Section IV-C proposal): a
 * latency-sensitive stream shares a hot quadrant with heavy background
 * traffic, then gets a private vault carved out of it.  Prints the
 * high-priority stream's latency under both layouts.
 *
 * The host deserializer is widened beyond the AC-510 default so the
 * cube-side contention (what vault partitioning can fix) is isolated
 * from the host-side response bottleneck (what it cannot).
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "host/system.h"

using namespace hmcsim;

namespace {

struct Outcome {
    double hiAvgNs;
    double hiMaxNs;
    double bgGBs;
};

/**
 * Port 0 is the high-priority stream; ports 1-8 are heavy GUPS
 * background traffic on the hot quadrant (vaults 12-15).
 * @param partitioned if true, the high-priority stream owns vault 15
 *        exclusively and background is confined to vaults 12-14... as
 *        close as power-of-two masks allow: background keeps vaults
 *        12-13 and the stream owns 14-15.
 */
Outcome
run(bool partitioned)
{
    SystemConfig cfg;
    cfg.host.deserializerPacketsPerCycle = 4;
    cfg.host.deserializerPacketBudgetCap = 8;
    cfg.host.deserializerFlitsPerCycle = 16;
    cfg.host.requestsPerCyclePerLink = 4;
    cfg.host.tagsPerPort = 96;

    // Partitioned: the stream owns vaults 14-15, the background 12-13.
    // Shared: both cover the whole hot quadrant (vaults 12-15).
    WorkloadSpec hp;
    hp.type = "trace";
    hp.requestBytes = 64;
    hp.patternVaults = partitioned ? 2 : 4;
    hp.baseVault = partitioned ? 14 : 12;
    hp.window = 8;  // latency-sensitive: shallow queue
    hp.seed = 2024;
    cfg.host.portWorkloads.push_back({0, hp});

    WorkloadSpec bg;
    bg.requestBytes = 16;
    bg.patternVaults = partitioned ? 2 : 4;
    bg.baseVault = 12;
    for (PortId p = 1; p <= 8; ++p) {
        bg.seed = 100 + p;
        cfg.host.portWorkloads.push_back({p, bg});
    }
    const ExperimentResult r =
        runPoint(cfg, 20 * kMicrosecond, 60 * kMicrosecond);

    Outcome o{};
    for (const PortStats &ps : r.ports) {
        if (ps.port == 0) {
            o.hiAvgNs = ps.avgReadNs;
            o.hiMaxNs = ps.maxReadNs;
        } else {
            o.bgGBs += ps.bandwidthGBs;
        }
    }
    return o;
}

}  // namespace

int
main()
try {
    std::printf("QoS via vault partitioning (paper Section IV-C)\n");
    std::printf("8 GUPS ports hammer a hot quadrant; one shallow "
                "stream needs low latency\n\n");
    const Outcome shared = run(false);
    const Outcome partitioned = run(true);

    std::printf("%-22s %12s %12s %12s\n", "layout", "hi avg (ns)",
                "hi max (ns)", "bg GB/s");
    std::printf("%-22s %12.0f %12.0f %12.2f\n", "fully shared",
                shared.hiAvgNs, shared.hiMaxNs, shared.bgGBs);
    std::printf("%-22s %12.0f %12.0f %12.2f\n", "private vaults",
                partitioned.hiAvgNs, partitioned.hiMaxNs,
                partitioned.bgGBs);

    std::printf("\nhigh-priority avg improved %.2fx, tail %.2fx, at a "
                "%.0f%% background cost\n",
                shared.hiAvgNs / partitioned.hiAvgNs,
                shared.hiMaxNs / partitioned.hiMaxNs,
                (1.0 - partitioned.bgGBs / shared.bgGBs) * 100.0);
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
