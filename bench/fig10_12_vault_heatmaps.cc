/**
 * @file
 * Figs. 10, 11, and 12 reproduction.
 *
 * Sweep all C(16,4) = 1820 four-vault combinations with the stream
 * firmware, record the per-combination average latency, and associate
 * it with every vault in the combination.  Rendered three ways:
 *   Fig. 10 -- per-vault latency histograms (rows = vaults)
 *   Fig. 11 -- mean and stddev of latency across vaults per size
 *   Fig. 12 -- per-latency-interval vault histograms (rows = bins)
 *
 * Full sweep is 1820 x sizes short simulations; HMCSIM_BENCH_FAST
 * subsamples combinations 8:1 and runs 64 B only.
 */

#include <array>
#include <iostream>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/heatmap.h"
#include "analysis/paper_ref.h"
#include "analysis/report.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/strutil.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

std::vector<std::array<VaultId, 4>>
allCombinations(unsigned stride)
{
    std::vector<std::array<VaultId, 4>> out;
    unsigned idx = 0;
    for (VaultId a = 0; a < 16; ++a)
        for (VaultId b = a + 1; b < 16; ++b)
            for (VaultId c = b + 1; c < 16; ++c)
                for (VaultId d = c + 1; d < 16; ++d)
                    if (idx++ % stride == 0)
                        out.push_back({a, b, c, d});
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const bool fast = fastMode();
    const unsigned stride = fast ? 8 : 1;
    const Tick warmup = scaled(2) * kMicrosecond;
    const Tick window = scaled(fast ? 4 : 8) * kMicrosecond;
    const std::vector<std::uint32_t> sizes =
        fast ? std::vector<std::uint32_t>{64}
             : std::vector<std::uint32_t>(std::begin(kSizes),
                                          std::end(kSizes));

    const auto combos = allCombinations(stride);
    std::cout << "Figs. 10-12: " << combos.size()
              << " four-vault combinations per size\n";

    Report rep(std::cout);
    for (std::uint32_t bytes : sizes) {
        // Pass 1: per-combination average latency.
        std::vector<double> combo_avg_ns(combos.size(), 0.0);
        std::vector<SampleStats> per_vault(16);
        for (std::size_t i = 0; i < combos.size(); ++i) {
            WorkloadSpec stream;
            stream.type = "trace";
            stream.requestBytes = bytes;
            stream.patternVaults = 1;
            SystemConfig point;
            for (PortId p = 0; p < 4; ++p) {
                stream.baseVault = combos[i][p];
                stream.seed = (1000 + i) * 31337 + p;
                point.host.portWorkloads.push_back({p, stream});
            }
            const ExperimentResult r = runPoint(point, warmup, window);
            combo_avg_ns[i] = r.avgReadLatencyNs;
            for (VaultId v : combos[i])
                per_vault[v].add(r.avgReadLatencyNs);
        }

        // Shared latency axis across the per-size views.
        const SampleStats overall = statsOfValues(combo_avg_ns);
        const double lo = overall.min();
        const double hi = overall.max() + 1e-9;
        constexpr std::size_t kBins = 9;  // like the paper's axes

        // Fig. 10: rows = vaults, cols = latency bins.
        std::vector<Histogram> vault_hist;
        std::vector<std::string> vault_labels;
        for (VaultId v = 0; v < 16; ++v) {
            vault_hist.emplace_back(lo, hi, kBins);
            vault_labels.push_back("vault" + std::to_string(v));
        }
        // Fig. 12: rows = latency bins, cols = vaults.
        Heatmap by_interval(
            [&] {
                std::vector<std::string> rows;
                const Histogram axis(lo, hi, kBins);
                for (std::size_t b = 0; b < kBins; ++b)
                    rows.push_back(formatDouble(axis.binLow(b), 0));
                return rows;
            }(),
            [&] {
                std::vector<std::string> cols;
                for (VaultId v = 0; v < 16; ++v)
                    cols.push_back(std::to_string(v));
                return cols;
            }());
        const Histogram axis(lo, hi, kBins);
        for (std::size_t i = 0; i < combos.size(); ++i) {
            for (VaultId v : combos[i]) {
                vault_hist[v].add(combo_avg_ns[i]);
                by_interval.add(axis.binIndex(combo_avg_ns[i]), v);
            }
        }

        std::cout << "\n-- Fig. 10 (" << bytes
                  << " B): per-vault latency histogram, bins " << lo
                  << ".." << hi << " ns --\n";
        const Heatmap fig10 =
            Heatmap::fromHistograms(vault_labels, vault_hist);
        std::cout << fig10.toAscii();
        std::cout << fig10.toCsv();

        std::cout << "\n-- Fig. 12 (" << bytes
                  << " B): vault histogram per latency interval --\n";
        std::cout << by_interval.toAscii();

        // Fig. 11: mean and stddev across vault means.
        std::vector<double> vault_means;
        for (VaultId v = 0; v < 16; ++v)
            vault_means.push_back(per_vault[v].mean());
        const SampleStats fig11 = statsOfValues(vault_means);

        rep.section("Fig. 11 (" + std::to_string(bytes) + " B)");
        rep.measured("average latency across vaults",
                     fig11.mean() / 1000.0, "us");
        const double paper_stddev =
            bytes == 16 ? paper::kFig11Stddev16BNs
            : bytes == 32 ? paper::kFig11Stddev32BNs
            : bytes == 64 ? paper::kFig11Stddev64BNs
                          : paper::kFig11Stddev128BNs;
        rep.compare("stddev of latency across vaults", paper_stddev,
                    overall.stddev(), "ns");
        const double paper_range =
            bytes == 16 ? paper::kFig10Range16BNs
            : bytes == 32 ? paper::kFig10Range32BNs
            : bytes == 64 ? paper::kFig10Range64BNs
                          : paper::kFig10Range128BNs;
        rep.compare("latency variation range", paper_range, hi - lo,
                    "ns");
        if (bytes == 16) {
            rep.compare("axis center",
                        (paper::kFig10Lo16BNs + paper::kFig10Hi16BNs) / 2,
                        overall.mean(), "ns");
        } else if (bytes == 128) {
            rep.compare("axis center",
                        (paper::kFig10Lo128BNs + paper::kFig10Hi128BNs) /
                            2,
                        overall.mean(), "ns");
        }
    }
    rep.note("paper takeaway: vault position contributes little; "
             "request size dominates variation (Section IV-D/E)");
    rep.note("note: the absolute variance above is under-produced by "
             "design -- in a saturated closed loop the mean "
             "per-combination latency is N/lambda with lambda bound at "
             "the host, so a noiseless simulator cannot reproduce the "
             "silicon's combination-to-combination spread there");

    // Low-load view: with a single request in flight the per-vault
    // systematic variation (hmc.vault_jitter_ns_per_flit) is on the
    // critical path, and its range grows with the request size the
    // way the paper's Figs. 10/11 spreads do.
    rep.section("low-load per-vault variation (open-loop view)");
    for (std::uint32_t bytes : sizes) {
        SampleStats floors;
        for (VaultId v = 0; v < 16; ++v) {
            WorkloadSpec stream;
            stream.type = "trace";
            stream.requestBytes = bytes;
            stream.patternVaults = 1;
            stream.baseVault = v;
            stream.batchSize = 1;
            stream.seed = 104729 + v;
            SystemConfig point;
            point.host.portWorkloads.push_back({0, stream});
            floors.add(runPoint(point, scaled(2) * kMicrosecond,
                                scaled(4) * kMicrosecond)
                           .avgReadLatencyNs);
        }
        const double paper_range =
            bytes == 16 ? paper::kFig10Range16BNs
            : bytes == 32 ? paper::kFig10Range32BNs
            : bytes == 64 ? paper::kFig10Range64BNs
                          : paper::kFig10Range128BNs;
        rep.compare("low-load range across vaults, " +
                        std::to_string(bytes) + " B",
                    paper_range, floors.max() - floors.min(), "ns");
    }
    return 0;
}
