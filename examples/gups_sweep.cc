/**
 * @file
 * GUPS access-pattern sweep: reproduce the spirit of the paper's
 * Section IV-A interactively.  For every structural access pattern
 * (1 bank .. 16 vaults) and request size, print bandwidth and latency
 * as a CSV table -- the data behind Fig. 6.
 *
 * Run: ./gups_sweep [window_us]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;

namespace {

struct Pattern {
    const char *name;
    std::uint32_t vaults;
    std::uint32_t banks;
};

constexpr Pattern kPatterns[] = {
    {"1 bank", 1, 1},    {"2 banks", 1, 2},  {"4 banks", 1, 4},
    {"8 banks", 1, 8},   {"1 vault", 1, 16}, {"2 vaults", 2, 16},
    {"4 vaults", 4, 16}, {"8 vaults", 8, 16}, {"16 vaults", 16, 16},
};

}  // namespace

int
main(int argc, char **argv)
try {
    Tick window = 30 * kMicrosecond;
    if (argc > 1)
        window = static_cast<Tick>(std::atof(argv[1]) * kMicrosecond);

    CsvWriter csv(std::cout, {"pattern", "vaults", "banks",
                              "request_bytes", "bandwidth_gbs",
                              "avg_latency_ns", "max_latency_ns"});
    for (const Pattern &pat : kPatterns) {
        for (std::uint32_t bytes : {16u, 32u, 64u, 128u}) {
            WorkloadSpec gups;
            gups.requestBytes = bytes;
            gups.patternVaults = pat.vaults;
            gups.patternBanks = pat.banks;
            SystemConfig point;
            addWorkloadPorts(point, 9, gups, 7919);
            const ExperimentResult r = runPoint(point, window / 3, window);
            csv.row()
                .cell(pat.name)
                .cell(pat.vaults)
                .cell(pat.banks)
                .cell(bytes)
                .cell(r.bandwidthGBs, 2)
                .cell(r.avgReadLatencyNs, 0)
                .cell(r.maxReadLatencyNs, 0);
        }
    }
    csv.finish();
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
