/**
 * @file
 * Ablation: vault-controller scheduling (FIFO vs FR-FCFS) under
 * closed- and open-page policies, on a row-locality-friendly stream
 * and on uniform random traffic.
 */

#include <iostream>

#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

ExperimentResult
run(const SystemConfig &cfg, bool sequential, Tick warmup, Tick window)
{
    System sys(cfg);
    Rng rng(4242);
    WorkloadSpec stream;
    stream.type = "trace";
    for (PortId p = 0; p < 4; ++p) {
        Trace trace;
        if (sequential) {
            // Row-friendly walk within one vault: eight 32 B beats per
            // 256 B row before moving on, so open page gets 7 hits per
            // row while closed page re-activates every time.
            DecodedAddr d;
            d.vault = p * 4;
            d.bank = 0;
            trace.reserve(4096);
            for (std::uint32_t i = 0; i < 4096; ++i) {
                d.row = i / 8;
                d.col = i % 8;
                d.blockOffset = 0;
                TraceRecord rec;
                rec.addr = sys.addressMap().encode(d);
                rec.bytes = 32;
                trace.push_back(rec);
            }
        } else {
            trace = makeRandomTrace(
                rng, sys.addressMap().vaultPattern(p * 4),
                cfg.hmc.totalCapacityBytes(), 4096, 32);
        }
        sys.configureWorkload(p, stream, std::move(trace));
    }
    sys.run(warmup);
    return sys.measure(window);
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const Tick warmup = scaled(fastMode() ? 4 : 10) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 8 : 25) * kMicrosecond;

    std::cout << "Ablation: vault scheduler and page policy\n";
    bench::CsvOutput csv_out("ablation_sched");
    CsvWriter csv(csv_out.stream(),
                  {"scheduler", "page_policy", "workload",
                   "bandwidth_gbs", "avg_latency_ns"});
    for (const char *sched : {"fifo", "frfcfs"}) {
        for (const char *page : {"closed", "open"}) {
            for (bool sequential : {true, false}) {
                SystemConfig cfg;
                cfg.hmc.scheduler = sched;
                cfg.hmc.pagePolicy = page;
                const ExperimentResult r =
                    run(cfg, sequential, warmup, window);
                csv.row()
                    .cell(sched)
                    .cell(page)
                    .cell(sequential ? "sequential" : "random")
                    .cell(r.bandwidthGBs, 2)
                    .cell(r.avgReadLatencyNs, 0);
            }
        }
    }
    csv.finish();

    Report rep(std::cout);
    rep.note("expected: open+frfcfs wins on sequential (row hits), "
             "closed wins on random (no conflict precharge on the "
             "critical path)");
    return 0;
}
