/**
 * @file
 * Fig. 7 reproduction: average latency of low-load accesses for 1..55
 * requests per stream (multi-port stream firmware, 16 banks of one
 * vault, averaged across four representative vaults).
 */

#include <iostream>
#include <map>

#include "analysis/aggregate.h"
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
    const Tick warmup = scaled(3) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 8 : 20) * kMicrosecond;
    const int step = fastMode() ? 9 : 3;
    const std::vector<VaultId> vaults = fastMode()
        ? std::vector<VaultId>{0}
        : std::vector<VaultId>{0, 5, 10, 15};

    std::cout << "Fig. 7: average low-load latency vs number of "
                 "requests in a stream (1..55)\n";
    bench::CsvOutput csv_out("fig07_low_load_latency");
    CsvWriter csv(csv_out.stream(),
                  {"num_requests", "request_bytes", "avg_latency_us"});

    std::map<std::pair<int, std::uint32_t>, double> series;
    for (int n = 1; n <= 55; n = n == 1 ? 1 + step : n + step) {
        for (std::uint32_t bytes : kSizes) {
            std::vector<ExperimentResult> runs;
            for (VaultId v : vaults) {
                WorkloadSpec stream;
                stream.type = "trace";
                stream.requestBytes = bytes;
                stream.patternVaults = 1;
                stream.baseVault = v;
                stream.batchSize = static_cast<std::uint32_t>(n);
                stream.seed = 104729 + v;
                SystemConfig point;
                point.host.portWorkloads.push_back({0, stream});
                runs.push_back(runPoint(point, warmup, window));
            }
            const double us =
                mergeReadLatencies(runs).mean() / 1000.0;
            series[{n, bytes}] = us;
            csv.row().cell(n).cell(bytes).cell(us, 3);
        }
    }
    csv.finish();

    Report rep(std::cout);
    rep.section("Fig. 7 paper-vs-measured");
    rep.compare("floor (1 request, 16 B)", paper::kFig7FloorUs,
                series.at({1, 16}), "us");
    const int last = 55;
    rep.compare("16 B at 55 requests", paper::kFig7Max16BUs,
                series.at({last, 16}), "us");
    rep.compare("128 B at 55 requests", paper::kFig7Max128BUs,
                series.at({last, 128}), "us");
    rep.note("paper: floor = 547 ns infrastructure + 100-180 ns HMC");
    rep.measured("small-n size insensitivity (128B/16B at n=1)",
                 series.at({1, 128}) / series.at({1, 16}), "ratio");
    rep.measured("slope ratio 128B/16B",
                 (series.at({last, 128}) - series.at({1, 128})) /
                     (series.at({last, 16}) - series.at({1, 16})),
                 "x");
    return 0;
}
