/**
 * @file
 * Ablation: address-mapping scheme.  The paper's insight (Section
 * IV-F) is that the vault-then-bank low-order interleave dodges the
 * per-vault bandwidth bottleneck for spatially local traffic; the
 * bank-then-vault alternative funnels consecutive blocks into one
 * vault and should collapse to the ~10 GB/s vault cap.
 */

#include <iostream>

#include "analysis/paper_ref.h"
#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

ExperimentResult
run(const SystemConfig &cfg, bool hot_region, Tick warmup, Tick window)
{
    System sys(cfg);
    Rng rng(99);
    WorkloadSpec stream;
    stream.type = "trace";
    for (PortId p = 0; p < 9; ++p) {
        Trace trace;
        if (hot_region) {
            // All ports hammer one hot 2 KB buffer (half an OS page)
            // with 128 B accesses.  Under the spec's vault-then-bank
            // interleave those 16 blocks stripe over all 16 vaults;
            // under bank-then-vault they collapse into a single vault
            // and hit its 10 GB/s internal ceiling.
            const AddressPattern hot{0x7FF, 0};
            trace = makeRandomTrace(rng, hot, cfg.hmc.totalCapacityBytes(),
                                    8192, 128);
        } else {
            trace = makeRandomTrace(rng, sys.addressMap().pattern(16, 16),
                                    cfg.hmc.totalCapacityBytes(), 8192, 128);
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

    std::cout << "Ablation: address interleaving scheme\n";
    bench::CsvOutput csv_out("ablation_mapping");
    CsvWriter csv(csv_out.stream(), {"map_scheme", "workload", "bandwidth_gbs",
                              "avg_latency_ns"});
    double seq_vault_first = 0.0, seq_bank_first = 0.0;
    for (const char *scheme : {"vault_then_bank", "bank_then_vault"}) {
        for (bool hot_region : {true, false}) {
            SystemConfig cfg;
            cfg.hmc.mapScheme = scheme;
            const ExperimentResult r =
                run(cfg, hot_region, warmup, window);
            csv.row()
                .cell(scheme)
                .cell(hot_region ? "hot_2kb" : "random")
                .cell(r.bandwidthGBs, 2)
                .cell(r.avgReadLatencyNs, 0);
            if (hot_region) {
                (std::string(scheme) == "vault_then_bank"
                     ? seq_vault_first
                     : seq_bank_first) = r.bandwidthGBs;
            }
        }
    }
    csv.finish();

    Report rep(std::cout);
    rep.section("hot-buffer interleave comparison");
    rep.measured("vault-then-bank (spec Fig. 3)", seq_vault_first,
                 "GB/s");
    rep.measured("bank-then-vault (ablation)", seq_bank_first, "GB/s");
    rep.measured("interleave advantage",
                 seq_vault_first / seq_bank_first, "x");
    rep.compare("bank-then-vault collapses toward the vault cap",
                paper::kFig6VaultCapGBs, seq_bank_first, "GB/s");
    return 0;
}
