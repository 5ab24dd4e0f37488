/**
 * @file
 * Ablation: internal NoC topology.  The paper characterizes the stock
 * quadrant NoC; here we swap it for a ring and an idealized single
 * switch to isolate how much of the latency/bandwidth behaviour the
 * interconnect contributes.
 */

#include <iostream>

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
    const Tick warmup = scaled(fastMode() ? 4 : 10) * kMicrosecond;
    const Tick window = scaled(fastMode() ? 8 : 25) * kMicrosecond;

    std::cout << "Ablation: logic-layer NoC topology\n";
    bench::CsvOutput csv_out("ablation_noc");
    CsvWriter csv(csv_out.stream(),
                  {"topology", "request_bytes", "bandwidth_gbs",
                   "avg_latency_ns", "max_latency_ns",
                   "noc_avg_latency_ns"});

    Report rep(std::cout);
    for (const char *topo :
         {"quadrant_xbar", "quadrant_ring", "single_switch"}) {
        for (std::uint32_t bytes : {16u, 128u}) {
            SystemConfig cfg;
            cfg.hmc.topology = topo;
            WorkloadSpec gups;
            gups.requestBytes = bytes;
            addWorkloadPorts(cfg, 9, gups, 31);
            System sys(cfg);
            sys.run(warmup);
            const ExperimentResult r = sys.measure(window);
            csv.row()
                .cell(topo)
                .cell(bytes)
                .cell(r.bandwidthGBs, 2)
                .cell(r.avgReadLatencyNs, 0)
                .cell(r.maxReadLatencyNs, 0)
                .cell(sys.device().network().latencyNs().mean(), 1);
        }
    }
    csv.finish();
    rep.note("expected: the external links and vault bandwidth, not "
             "the internal topology, bound throughput -- topology "
             "mostly shifts latency spread (paper Section IV-D/E)");
    return 0;
}
