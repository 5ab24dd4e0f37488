/**
 * @file
 * Fig. 13 reproduction: response bandwidth vs number of active GUPS
 * ports (1..9, a proxy for requested bandwidth) for every structural
 * access pattern and request size.  Sloped lines = no bottleneck;
 * flat lines = a saturated resource.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/paper_ref.h"
#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

struct Pattern {
    const char *name;
    std::uint32_t vaults;
    std::uint32_t banks;
};

constexpr Pattern kPatterns[] = {
    {"1_bank", 1, 1},    {"2_banks", 1, 2},   {"4_banks", 1, 4},
    {"8_banks", 1, 8},   {"1_vault", 1, 16},  {"2_vaults", 2, 16},
    {"4_vaults", 4, 16}, {"8_vaults", 8, 16}, {"16_vaults", 16, 16},
};

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const bool fast = fastMode();
    const Tick warmup = scaled(fast ? 3 : 8) * kMicrosecond;
    const Tick window = scaled(fast ? 6 : 20) * kMicrosecond;
    const std::vector<std::uint32_t> ports =
        fast ? std::vector<std::uint32_t>{1, 5, 9}
             : std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9};

    std::cout << "Fig. 13: bandwidth vs active ports per pattern and "
                 "size\n";
    bench::CsvOutput csv_out("fig13_ports_bandwidth");
    CsvWriter csv(csv_out.stream(), {"request_bytes", "pattern", "active_ports",
                              "bandwidth_gbs", "avg_latency_ns"});

    // series[(bytes, pattern)] = bandwidth per port count.
    std::map<std::pair<std::uint32_t, std::string>, std::vector<double>>
        series;
    for (std::uint32_t bytes : kSizes) {
        for (const Pattern &pat : kPatterns) {
            for (std::uint32_t np : ports) {
                WorkloadSpec gups;
                gups.requestBytes = bytes;
                gups.patternVaults = pat.vaults;
                gups.patternBanks = pat.banks;
                SystemConfig point;
                addWorkloadPorts(point, np, gups, 7919);
                const ExperimentResult r = runPoint(point, warmup, window);
                series[{bytes, pat.name}].push_back(r.bandwidthGBs);
                csv.row()
                    .cell(bytes)
                    .cell(pat.name)
                    .cell(np)
                    .cell(r.bandwidthGBs, 2)
                    .cell(r.avgReadLatencyNs, 0);
            }
        }
    }
    csv.finish();

    Report rep(std::cout);
    rep.section("Fig. 13 shape checks");
    const auto peak = [&](std::uint32_t bytes, const char *pat) {
        const auto &v = series.at({bytes, pat});
        return *std::max_element(v.begin(), v.end());
    };
    rep.compare("one-vault ceiling (any size, 16/32 B shown)",
                paper::kFig6VaultCapGBs, peak(32, "1_vault"), "GB/s");
    rep.compare("16-vault 128 B ceiling", paper::kFig6MaxBandwidthGBs,
                peak(128, "16_vaults"), "GB/s");
    rep.measured("8-bank vs 1-vault ceiling ratio (16 B)",
                 peak(16, "8_banks") / peak(16, "1_vault"), "ratio");
    rep.measured("4-bank 128 B ceiling / 1-vault 128 B ceiling",
                 peak(128, "4_banks") / peak(128, "1_vault"), "ratio");
    rep.note("paper: 8 banks saturate one vault at 16/32 B; 4 banks "
             "suffice at 64/128 B (Section IV-F)");
    return 0;
}
