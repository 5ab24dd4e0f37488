/**
 * @file
 * Read/write-mix sweep (paper Section IV-F): read-only traffic only
 * uses the response direction and write-only traffic only the request
 * direction of the full-duplex links; mixing them exploits both.
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

    std::cout << "Read/write mix vs bi-directional link usage (128 B "
                 "requests, 9 ports)\n";
    bench::CsvOutput csv_out("ablation_rw_mix");
    CsvWriter csv(csv_out.stream(),
                  {"write_port_fraction", "bandwidth_gbs",
                   "down_link_flits", "up_link_flits",
                   "down_up_balance"});

    double best_mixed = 0.0, read_only = 0.0;
    for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const std::uint32_t writers =
            static_cast<std::uint32_t>(frac * 9 + 0.5);
        WorkloadSpec gups;
        gups.requestBytes = 128;
        SystemConfig cfg;
        addWorkloadPorts(cfg, 9, gups, 71);
        for (PortId p = 0; p < writers; ++p)
            cfg.host.portWorkloads[p].spec.kind = ReqKind::WriteOnly;
        System sys(cfg);
        sys.run(warmup);
        const ExperimentResult r = sys.measure(window);
        std::uint64_t down = 0, up = 0;
        for (LinkId l = 0; l < 2; ++l) {
            down += sys.device().link(l).flitsSent(LinkDir::HostToCube);
            up += sys.device().link(l).flitsSent(LinkDir::CubeToHost);
        }
        const double balance = down && up
            ? static_cast<double>(std::min(down, up)) /
                static_cast<double>(std::max(down, up))
            : 0.0;
        csv.row()
            .cell(frac, 2)
            .cell(r.bandwidthGBs, 2)
            .cell(down)
            .cell(up)
            .cell(balance, 3);
        if (frac == 0.0)
            read_only = r.bandwidthGBs;
        best_mixed = std::max(best_mixed, r.bandwidthGBs);
    }
    csv.finish();

    Report rep(std::cout);
    rep.section("asymmetry check");
    rep.measured("read-only bandwidth", read_only, "GB/s");
    rep.measured("best mixed bandwidth", best_mixed, "GB/s");
    rep.measured("mixing gain", best_mixed / read_only, "x");
    rep.note("paper: applications should balance reads and writes to "
             "use both link directions (Section IV-F)");
    return 0;
}
