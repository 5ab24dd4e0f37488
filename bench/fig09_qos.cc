/**
 * @file
 * Fig. 9 reproduction: QoS case study.  Three stream ports pinned to
 * one vault (1 or 5) while the fourth sweeps every vault; reports the
 * maximum observed latency per position of the fourth port.
 */

#include <iostream>
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

struct Summary {
    VaultId pinned;
    std::uint32_t bytes;
    double collideMaxUs;
    SampleStats elsewhereUs;
};

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const Tick warmup = scaled(5) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 8 : 20) * kMicrosecond;
    const std::vector<std::uint32_t> sizes =
        fastMode() ? std::vector<std::uint32_t>{64}
                   : std::vector<std::uint32_t>(std::begin(kSizes),
                                                std::end(kSizes));

    std::cout << "Fig. 9: max latency, 3 ports pinned + 1 sweeping\n";
    bench::CsvOutput csv_out("fig09_qos");
    CsvWriter csv(csv_out.stream(), {"pinned_vault", "fourth_vault",
                              "request_bytes", "max_latency_us"});

    std::vector<Summary> summaries;
    for (VaultId pinned : {VaultId{1}, VaultId{5}}) {
        for (std::uint32_t bytes : sizes) {
            Summary s;
            s.pinned = pinned;
            s.bytes = bytes;
            s.collideMaxUs = 0.0;
            for (VaultId fourth = 0; fourth < 16; ++fourth) {
                const VaultId vaults[] = {pinned, pinned, pinned, fourth};
                WorkloadSpec stream;
                stream.type = "trace";
                stream.requestBytes = bytes;
                stream.patternVaults = 1;
                SystemConfig point;
                for (PortId p = 0; p < 4; ++p) {
                    stream.baseVault = vaults[p];
                    stream.seed = (17 + fourth) * 31337 + p;
                    point.host.portWorkloads.push_back({p, stream});
                }
                const ExperimentResult r = runPoint(point, warmup, window);
                const double max_us = r.maxReadLatencyNs / 1000.0;
                csv.row()
                    .cell(std::uint64_t{pinned})
                    .cell(std::uint64_t{fourth})
                    .cell(bytes)
                    .cell(max_us, 3);
                if (fourth == pinned)
                    s.collideMaxUs = max_us;
                else
                    s.elsewhereUs.add(max_us);
            }
            summaries.push_back(s);
        }
    }
    csv.finish();

    Report rep(std::cout);
    for (const Summary &s : summaries) {
        rep.section("pinned vault " + std::to_string(s.pinned) + ", " +
                    std::to_string(s.bytes) + " B");
        rep.compare("collision penalty over mean elsewhere",
                    paper::kFig9CollisionPenaltyPct,
                    (s.collideMaxUs / s.elsewhereUs.mean() - 1.0) * 100.0,
                    "%");
        rep.measured("max-latency variation elsewhere",
                     (s.elsewhereUs.max() - s.elsewhereUs.min()) * 1000.0,
                     "ns");
    }
    rep.note("paper: collision raises max latency up to ~40%; "
             "variation elsewhere grows with request size");
    return 0;
}
