/**
 * @file
 * Whole-stack integration tests: GUPS and stream traffic through the
 * FPGA model, links, NoC, vault controllers, and DRAM, validating the
 * paper's headline behaviours end to end.
 */

#include <gtest/gtest.h>

#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

/** GUPS reads of @p bytes over @p vaults x @p banks. */
WorkloadSpec
gups(std::uint32_t bytes, std::uint32_t vaults = 16, std::uint32_t banks = 16)
{
    WorkloadSpec w;
    w.requestBytes = bytes;
    w.patternVaults = vaults;
    w.patternBanks = banks;
    return w;
}

/** Nine ports of @p w on @p cfg, seeded as the GUPS figures seed them. */
ExperimentResult
gupsRun(const WorkloadSpec &w, Tick warmup, Tick window,
        SystemConfig cfg = SystemConfig{})
{
    addWorkloadPorts(cfg, 9, w, 7919);
    return runPoint(cfg, warmup, window);
}

/** One stream port issuing batches of @p batch reads into vault 0. */
ExperimentResult
batchRun(std::uint32_t batch, std::uint32_t bytes, Tick warmup,
         Tick window, SystemConfig cfg = SystemConfig{})
{
    WorkloadSpec stream;
    stream.type = "trace";
    stream.requestBytes = bytes;
    stream.patternVaults = 1;
    stream.batchSize = batch;
    stream.seed = 104729;
    cfg.host.portWorkloads.push_back({0, stream});
    return runPoint(cfg, warmup, window);
}

TEST(EndToEnd, GupsReadOnlyReachesPaperCeiling128B)
{
    const ExperimentResult r =
        gupsRun(gups(128), 10 * kMicrosecond, 20 * kMicrosecond);
    EXPECT_GT(r.bandwidthGBs, 20.0);
    EXPECT_LT(r.bandwidthGBs, 26.0);
    EXPECT_GT(r.totalReads, 1000u);
    EXPECT_EQ(r.totalWrites, 0u);
}

TEST(EndToEnd, SmallRequestsWasteBandwidth)
{
    const Tick warmup = 10 * kMicrosecond;
    const Tick window = 20 * kMicrosecond;
    const double bw16 = gupsRun(gups(16), warmup, window).bandwidthGBs;
    const double bw128 = gupsRun(gups(128), warmup, window).bandwidthGBs;
    // Section IV-A: large packets always utilize bandwidth better.
    EXPECT_GT(bw128, 1.8 * bw16);
}

TEST(EndToEnd, LargeRequestsPayLatency)
{
    const Tick warmup = 10 * kMicrosecond;
    const Tick window = 20 * kMicrosecond;
    const double lat16 =
        gupsRun(gups(16), warmup, window).avgReadLatencyNs;
    const double lat128 =
        gupsRun(gups(128), warmup, window).avgReadLatencyNs;
    EXPECT_GT(lat128, lat16);
}

TEST(EndToEnd, OneVaultCapsNearTenGBs)
{
    const ExperimentResult r =
        gupsRun(gups(32, 1, 16), 10 * kMicrosecond, 20 * kMicrosecond);
    EXPECT_NEAR(r.bandwidthGBs, 10.0, 1.5);
}

TEST(EndToEnd, SingleBankIsWorstCase)
{
    const ExperimentResult r =
        gupsRun(gups(32, 1, 1), 10 * kMicrosecond, 20 * kMicrosecond);
    // Paper: ~2 GB/s for 32 B single-bank accesses.
    EXPECT_NEAR(r.bandwidthGBs, 2.0, 0.4);
    // And latency an order of magnitude above the distributed case.
    EXPECT_GT(r.avgReadLatencyNs, 5000.0);
}

TEST(EndToEnd, BandwidthOrderingAcrossPatterns)
{
    const Tick warmup = 5 * kMicrosecond;
    const Tick window = 15 * kMicrosecond;
    std::vector<double> bw;
    for (std::uint32_t banks : {1u, 2u, 4u, 8u})
        bw.push_back(
            gupsRun(gups(64, 1, banks), warmup, window).bandwidthGBs);
    bw.push_back(gupsRun(gups(64), warmup, window).bandwidthGBs);
    for (std::size_t i = 1; i < bw.size(); ++i)
        EXPECT_GT(bw[i], bw[i - 1] * 0.99) << "pattern step " << i;
}

TEST(EndToEnd, LowLoadFloorNearPaper)
{
    const ExperimentResult r =
        batchRun(1, 16, 5 * kMicrosecond, 20 * kMicrosecond);
    // ~0.7 us: 547 ns infrastructure + 100-180 ns in-cube.
    EXPECT_NEAR(r.avgReadLatencyNs, 700.0, 120.0);
}

TEST(EndToEnd, LatencyGrowsLinearlyThenSaturates)
{
    const auto latency = [](std::uint32_t batch) {
        return batchRun(batch, 128, 5 * kMicrosecond, 20 * kMicrosecond)
            .avgReadLatencyNs;
    };
    const double l1 = latency(1);
    const double l40 = latency(40);
    const double l200 = latency(200);
    const double l340 = latency(340);
    EXPECT_GT(l40, l1 * 1.3);       // linear growth region
    EXPECT_GT(l200, l40);
    EXPECT_NEAR(l340 / l200, 1.0, 0.12);  // saturated region is flat
}

TEST(EndToEnd, ResponsesMatchRequests)
{
    SystemConfig cfg;
    WorkloadSpec w = gups(64);
    w.seed = 1;
    cfg.host.portWorkloads.push_back({0, w});
    System sys(cfg);
    sys.run(20 * kMicrosecond);
    sys.port(0).setActive(false);
    sys.run(20 * kMicrosecond);  // drain
    const std::uint64_t sent = sys.fpga().controller().requestsSent();
    const std::uint64_t recv =
        sys.fpga().controller().responsesDelivered();
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(sent, recv);  // nothing lost anywhere in the stack
    EXPECT_EQ(sys.device().totalRequestsServed(), sent);
}

TEST(EndToEnd, WriteOnlyTrafficWorks)
{
    WorkloadSpec w = gups(64);
    w.kind = ReqKind::WriteOnly;
    const ExperimentResult r =
        gupsRun(w, 5 * kMicrosecond, 15 * kMicrosecond);
    EXPECT_GT(r.totalWrites, 500u);
    EXPECT_EQ(r.totalReads, 0u);
    EXPECT_GT(r.bandwidthGBs, 5.0);
}

TEST(EndToEnd, ReadModifyWriteProducesBoth)
{
    SystemConfig cfg;
    WorkloadSpec w = gups(32);
    w.kind = ReqKind::ReadModifyWrite;
    w.seed = 1;
    cfg.host.portWorkloads.push_back({0, w});
    System sys(cfg);
    sys.run(20 * kMicrosecond);
    const Monitor &m = sys.port(0).monitor();
    EXPECT_GT(m.reads(), 100u);
    EXPECT_GT(m.writes(), 100u);
    // Every write follows a read of the same location.
    EXPECT_LE(m.writes(), m.reads());
}

TEST(EndToEnd, CrcErrorsDegradeButDoNotBreak)
{
    // The links have ~30% serializer headroom over the deserializer
    // ceiling, so mild error rates are absorbed invisibly (retries
    // only shift where the closed-loop population queues).  Past that
    // headroom the retry traffic must eat into throughput.
    const Tick warmup = 5 * kMicrosecond;
    const Tick window = 15 * kMicrosecond;
    SystemConfig cfg;
    const ExperimentResult clean = gupsRun(gups(128), warmup, window, cfg);
    cfg.hmc.crcErrorProb = 0.45;
    cfg.hmc.retryDelay = 400 * kNanosecond;
    const ExperimentResult noisy = gupsRun(gups(128), warmup, window, cfg);
    EXPECT_GT(noisy.totalReads, 500u);  // still functional, no losses
    EXPECT_LT(noisy.bandwidthGBs, 0.95 * clean.bandwidthGBs);

    // At low load the retry delay shows up directly in the floor.
    const double clean_floor =
        batchRun(1, 64, warmup, window).avgReadLatencyNs;
    SystemConfig noisy_cfg;
    noisy_cfg.hmc.crcErrorProb = 0.4;
    noisy_cfg.hmc.retryDelay = 400 * kNanosecond;
    const double noisy_floor =
        batchRun(1, 64, warmup, window, noisy_cfg).avgReadLatencyNs;
    EXPECT_GT(noisy_floor, clean_floor + 50.0);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    const ExperimentResult a =
        gupsRun(gups(64), 5 * kMicrosecond, 10 * kMicrosecond);
    const ExperimentResult b =
        gupsRun(gups(64), 5 * kMicrosecond, 10 * kMicrosecond);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.bandwidthGBs, b.bandwidthGBs);
}

TEST(EndToEnd, RefreshStealsBandwidth)
{
    const WorkloadSpec w = gups(32, 1, 16);
    const Tick warmup = 5 * kMicrosecond;
    const Tick window = 15 * kMicrosecond;
    SystemConfig cfg;
    const double clean = gupsRun(w, warmup, window, cfg).bandwidthGBs;
    cfg.hmc.trefi = 2 * kMicrosecond;  // aggressive refresh
    const double refreshed = gupsRun(w, warmup, window, cfg).bandwidthGBs;
    EXPECT_LT(refreshed, clean);
    EXPECT_GT(refreshed, 0.5 * clean);
}

}  // namespace
}  // namespace hmcsim
