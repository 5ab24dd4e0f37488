/**
 * @file
 * Fig. 6 reproduction: read latency vs bi-directional bandwidth for
 * every structural access pattern (1 bank .. 16 vaults) and request
 * size (16..128 B) under the 9-port GUPS firmware.
 */

#include <iostream>
#include <map>

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
    SystemConfig cfg;
    bench::applyObsEnv(cfg.obs);
    const Tick warmup = scaled(fastMode() ? 5 : 15) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 10 : 40) * kMicrosecond;

    if (!opts.jsonReport)
        std::cout << "Fig. 6: latency vs bandwidth per access pattern "
                     "(9-port GUPS, read only)\n";
    bench::CsvOutput csv_out("fig06_latency_bandwidth");
    CsvWriter csv(csv_out.stream(),
                  {"pattern", "request_bytes", "bandwidth_gbs",
                   "avg_latency_ns", "min_latency_ns", "max_latency_ns"});

    std::map<std::pair<std::string, std::uint32_t>, ExperimentResult> all;
    for (const Pattern &pat : kPatterns) {
        for (std::uint32_t bytes : kSizes) {
            WorkloadSpec gups;
            gups.requestBytes = bytes;
            gups.patternVaults = pat.vaults;
            gups.patternBanks = pat.banks;
            SystemConfig point = cfg;
            addWorkloadPorts(point, 9, gups, 7919);
            const ExperimentResult r = runPoint(point, warmup, window);
            all[{pat.name, bytes}] = r;
            csv.row()
                .cell(pat.name)
                .cell(bytes)
                .cell(r.bandwidthGBs, 2)
                .cell(r.avgReadLatencyNs, 0)
                .cell(r.minReadLatencyNs, 0)
                .cell(r.maxReadLatencyNs, 0);
        }
    }
    csv.finish();

    Report rep(std::cout, opts.reportFormat());
    rep.section("Fig. 6 paper-vs-measured");
    rep.compare("lowest BW: 1 bank, 32 B",
                paper::kFig6MinBandwidthGBs,
                all.at({"1_bank", 32}).bandwidthGBs, "GB/s");
    rep.compare("highest BW: >=2 vaults, 128 B",
                paper::kFig6MaxBandwidthGBs,
                all.at({"16_vaults", 128}).bandwidthGBs, "GB/s");
    rep.compare("one-vault internal cap", paper::kFig6VaultCapGBs,
                all.at({"1_vault", 32}).bandwidthGBs, "GB/s");
    rep.compare("latency: 1 bank, 128 B",
                paper::kFig6OneBank128BLatencyNs,
                all.at({"1_bank", 128}).avgReadLatencyNs, "ns");
    rep.compare("latency: 16 vaults, 16 B",
                paper::kFig6MultiVault16BLatencyNs,
                all.at({"16_vaults", 16}).avgReadLatencyNs, "ns");

    rep.section("shape checks");
    const double flat2 = all.at({"2_vaults", 128}).bandwidthGBs;
    const double flat16 = all.at({"16_vaults", 128}).bandwidthGBs;
    rep.measured(">=2-vault plateau flatness (2v/16v)", flat2 / flat16,
                 "ratio");
    rep.measured("128B-vs-16B bandwidth gain",
                 all.at({"16_vaults", 128}).bandwidthGBs /
                     all.at({"16_vaults", 16}).bandwidthGBs,
                 "x");
    rep.measured("1-bank vs multi-vault latency blowup",
                 all.at({"1_bank", 128}).avgReadLatencyNs /
                     all.at({"16_vaults", 16}).avgReadLatencyNs,
                 "x");
    return 0;
}
