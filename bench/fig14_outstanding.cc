/**
 * @file
 * Fig. 14 reproduction: Little's-law estimate of outstanding requests
 * for the two-bank and four-bank access patterns, measured at each
 * curve's saturation point (as the paper does with Fig. 13 data).
 */

#include <iostream>
#include <vector>

#include "analysis/littles_law.h"
#include "analysis/paper_ref.h"
#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const bool fast = fastMode();
    const Tick warmup = scaled(fast ? 4 : 10) * kMicrosecond;
    const Tick window = scaled(fast ? 8 : 25) * kMicrosecond;

    std::cout << "Fig. 14: outstanding requests (Little's law) at "
                 "saturation, 2- and 4-bank patterns\n";
    bench::CsvOutput csv_out("fig14_outstanding");
    CsvWriter csv(csv_out.stream(),
                  {"banks", "request_bytes", "saturation_ports",
                   "data_bandwidth_gbs", "avg_latency_ns",
                   "outstanding_estimate"});

    Report rep(std::cout);
    std::vector<double> avg_by_banks;
    for (std::uint32_t banks : {2u, 4u}) {
        SampleStats across_sizes;
        for (std::uint32_t bytes : kSizes) {
            // Sweep ports to find the saturation (knee) point.
            std::vector<double> bw;
            std::vector<ExperimentResult> runs;
            for (std::uint32_t np = 1; np <= 9; np += fast ? 2 : 1) {
                WorkloadSpec gups;
                gups.requestBytes = bytes;
                gups.patternVaults = 1;
                gups.patternBanks = banks;
                SystemConfig point;
                addWorkloadPorts(point, np, gups, 7919);
                runs.push_back(runPoint(point, warmup, window));
                bw.push_back(runs.back().bandwidthGBs);
            }
            // Measure at the knee (where the curve first flattens):
            // there the bank queues are the binding resource and the
            // estimate scales with the bank count.  Deeper into the
            // flat region our host-side tag pool caps the population
            // and the per-bank scaling washes out (the paper's
            // firmware had a larger tag budget, hence its larger
            // absolute values; the 2-bank/4-bank ratio is the
            // transferable result).
            const std::size_t idx = saturationIndex(bw, 0.05);
            const ExperimentResult &r = runs[idx];
            // Data-payload bandwidth, as the paper divides by the
            // request size.
            const double data_gbs =
                static_cast<double>(r.totalReads) * bytes /
                (static_cast<double>(r.windowTicks) * 1e-3);
            const double outstanding = estimateOutstanding(
                data_gbs, r.avgReadLatencyNs, bytes);
            across_sizes.add(outstanding);
            csv.row()
                .cell(banks)
                .cell(bytes)
                .cell(std::uint64_t{idx * (fast ? 2 : 1) + 1})
                .cell(data_gbs, 3)
                .cell(r.avgReadLatencyNs, 0)
                .cell(outstanding, 1);
        }
        avg_by_banks.push_back(across_sizes.mean());
    }
    csv.finish();

    rep.section("Fig. 14 paper-vs-measured");
    rep.compare("outstanding, 2 banks (avg over sizes)",
                paper::kFig14TwoBanks, avg_by_banks[0], "requests");
    rep.compare("outstanding, 4 banks (avg over sizes)",
                paper::kFig14FourBanks, avg_by_banks[1], "requests");
    rep.compare("4-bank / 2-bank ratio (queue-per-bank evidence)",
                paper::kFig14FourBanks / paper::kFig14TwoBanks,
                avg_by_banks[1] / avg_by_banks[0], "x");
    rep.note("paper's inference: a vault controller dedicates one "
             "queue per bank (Section IV-F)");
    return 0;
}
