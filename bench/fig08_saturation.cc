/**
 * @file
 * Fig. 8 reproduction: low-load latency over 1..350 requests per
 * stream -- the linear region (partially utilized) followed by the
 * constant region (queues full).
 */

#include <iostream>
#include <map>
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
    const Tick warmup = scaled(3) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 8 : 20) * kMicrosecond;
    const int step = fastMode() ? 50 : 15;

    if (!opts.jsonReport)
        std::cout << "Fig. 8: latency vs requests in a stream (1..350)\n";
    bench::CsvOutput csv_out("fig08_saturation");
    CsvWriter csv(csv_out.stream(),
                  {"num_requests", "request_bytes", "avg_latency_us"});

    std::map<std::uint32_t, std::vector<std::pair<int, double>>> series;
    for (int n = 1; n <= 350; n = n == 1 ? step : n + step) {
        for (std::uint32_t bytes : kSizes) {
            WorkloadSpec stream;
            stream.type = "trace";
            stream.requestBytes = bytes;
            stream.patternVaults = 1;
            stream.batchSize = static_cast<std::uint32_t>(n);
            stream.seed = 104729;
            SystemConfig point;
            point.host.portWorkloads.push_back({0, stream});
            const ExperimentResult r = runPoint(point, warmup, window);
            series[bytes].emplace_back(n, r.avgReadLatencyNs / 1000.0);
            csv.row().cell(n).cell(bytes).cell(
                r.avgReadLatencyNs / 1000.0, 3);
        }
    }
    csv.finish();

    Report rep(std::cout, opts.reportFormat());
    rep.section("Fig. 8 paper-vs-measured");
    for (std::uint32_t bytes : kSizes) {
        // Knee: first n whose latency reaches 95% of the final level.
        std::vector<double> curve;
        for (const auto &[n, us] : series[bytes])
            curve.push_back(us);
        const std::size_t idx = saturationIndex(curve, 0.10);
        rep.compare("knee (" + std::to_string(bytes) + " B requests)",
                    paper::kFig8KneeRequests,
                    static_cast<double>(series[bytes][idx].first),
                    "requests", /*approximate=*/true);
        rep.measured("saturated latency " + std::to_string(bytes) + " B",
                     curve.back(), "us");
    }
    rep.note("linear region = partially utilized queue; constant "
             "region = full queue (paper Section IV-B)");
    return 0;
}
