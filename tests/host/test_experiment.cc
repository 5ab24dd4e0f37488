/**
 * @file
 * Tests for the experiment harness: result collection math, port
 * validation, and reproducibility guarantees the benches depend on.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

/** The message of the FatalError @p fn throws ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Nine ports of @p gups, seeded as the GUPS figures seed them. */
SystemConfig
gupsPoint(const WorkloadSpec &gups)
{
    SystemConfig cfg;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return cfg;
}

TEST(Experiment, CollectResultAggregatesPorts)
{
    SystemConfig cfg;
    addWorkloadPorts(cfg, 2, WorkloadSpec{}, 3);
    const ExperimentResult r = runPoint(cfg, 0, 10 * kMicrosecond);
    ASSERT_EQ(r.ports.size(), 2u);
    std::uint64_t reads = 0, bytes = 0;
    for (const PortStats &ps : r.ports) {
        reads += ps.reads;
        bytes += ps.wireBytes;
        EXPECT_GT(ps.bandwidthGBs, 0.0);
    }
    EXPECT_EQ(r.totalReads, reads);
    EXPECT_EQ(r.totalWireBytes, bytes);
    EXPECT_EQ(r.mergedRead.count(), reads);
    // Paper formula: every 32 B read moves 64 wire bytes.
    EXPECT_EQ(bytes, reads * 64);
    // Bandwidth = bytes / window.
    EXPECT_NEAR(r.bandwidthGBs,
                static_cast<double>(bytes) /
                    static_cast<double>(r.windowTicks) * 1000.0,
                1e-9);
}

TEST(Experiment, IdlePortsExcludedFromResult)
{
    SystemConfig cfg;
    cfg.host.portWorkloads.push_back({4, WorkloadSpec{}});  // port 4 only
    const ExperimentResult r = runPoint(cfg, 0, 5 * kMicrosecond);
    ASSERT_EQ(r.ports.size(), 1u);
    EXPECT_EQ(r.ports[0].port, 4u);
}

TEST(Experiment, WarmupExcludedFromWindow)
{
    const SystemConfig cfg = gupsPoint(WorkloadSpec{});
    const Tick window = 10 * kMicrosecond;
    const ExperimentResult short_warm =
        runPoint(cfg, 1 * kMicrosecond, window);
    const ExperimentResult long_warm =
        runPoint(cfg, 20 * kMicrosecond, window);
    // Steady-state windows: warmup length must not change the rate by
    // more than a small transient margin.
    EXPECT_NEAR(long_warm.bandwidthGBs / short_warm.bandwidthGBs, 1.0,
                0.05);
    EXPECT_EQ(short_warm.windowTicks, window);
}

TEST(Experiment, ConfigValidatesPortCount)
{
    SystemConfig cfg;
    cfg.host.workloadPorts = cfg.host.numPorts + 1;
    EXPECT_NE(fatalMessage([&] { System sys(cfg); })
                  .find("more workload ports than ports"),
              std::string::npos);
}

TEST(Experiment, ConfigValidatesPortIndex)
{
    SystemConfig cfg;
    addWorkloadPorts(cfg, cfg.host.numPorts + 1, WorkloadSpec{}, 1);
    EXPECT_NE(fatalMessage([&] { runPoint(cfg, 0, kMicrosecond); })
                  .find("workload port out of range"),
              std::string::npos);
}

TEST(Experiment, StreamVaultsOnePortPerVault)
{
    WorkloadSpec stream;
    stream.type = "trace";
    stream.patternVaults = 1;
    SystemConfig cfg;
    const VaultId vaults[] = {0, 5, 9};
    for (PortId p = 0; p < 3; ++p) {
        stream.baseVault = vaults[p];
        cfg.host.portWorkloads.push_back({p, stream});
    }
    const ExperimentResult r =
        runPoint(cfg, 3 * kMicrosecond, 8 * kMicrosecond);
    EXPECT_EQ(r.ports.size(), 3u);
    for (const PortStats &ps : r.ports)
        EXPECT_GT(ps.reads, 0u);
}

/*
 * Each figure shape keeps the per-port seed formula of the canned
 * runner it replaced: the GUPS runner seeded port p with
 * seed * 7919 + p, the stream-batch runner its one port with
 * seed * 104729 + vault, the stream-vaults runner port p with
 * seed * 31337 + p.  The expected values are what those runners
 * produced for the same point.
 */

TEST(Experiment, GupsPointKeepsItsSeedFormula)
{
    // GUPS runner: seed 3, 64 B over vaults 8-15 x banks 0-7, 5 of 9
    // ports write-only (write-port fraction 0.5).
    WorkloadSpec gups;
    gups.requestBytes = 64;
    gups.patternVaults = 8;
    gups.patternBanks = 8;
    gups.baseVault = 8;
    SystemConfig cfg;
    addWorkloadPorts(cfg, 9, gups, 3 * 7919);
    for (PortId p = 0; p < 5; ++p)
        cfg.host.portWorkloads[p].spec.kind = ReqKind::WriteOnly;
    const ExperimentResult r =
        runPoint(cfg, 5 * kMicrosecond, 10 * kMicrosecond);
    EXPECT_EQ(r.totalReads, 836u);
    EXPECT_EQ(r.totalWrites, 1039u);
    EXPECT_EQ(r.totalWireBytes, 180000u);
    EXPECT_DOUBLE_EQ(r.avgReadLatencyNs, 2512.7863444976083);
}

TEST(Experiment, StreamBatchPointKeepsItsSeedFormula)
{
    // Stream-batch runner: seed 2, batches of 10 64 B reads, vault 3.
    WorkloadSpec stream;
    stream.type = "trace";
    stream.requestBytes = 64;
    stream.patternVaults = 1;
    stream.baseVault = 3;
    stream.batchSize = 10;
    stream.seed = 2 * 104729 + 3;
    SystemConfig cfg;
    cfg.host.portWorkloads.push_back({0, stream});
    const ExperimentResult r =
        runPoint(cfg, 3 * kMicrosecond, 8 * kMicrosecond);
    EXPECT_EQ(r.totalReads, 205u);
    EXPECT_EQ(r.totalWireBytes, 19680u);
    EXPECT_DOUBLE_EQ(r.avgReadLatencyNs, 853.87681463414663);
}

TEST(Experiment, StreamVaultsPointKeepsItsSeedFormula)
{
    // Stream-vaults runner: seed 4, 32 B streams into vaults 0, 5, 9.
    WorkloadSpec stream;
    stream.type = "trace";
    stream.patternVaults = 1;
    SystemConfig cfg;
    const VaultId vaults[] = {0, 5, 9};
    for (PortId p = 0; p < 3; ++p) {
        stream.baseVault = vaults[p];
        stream.seed = 4 * 31337 + p;
        cfg.host.portWorkloads.push_back({p, stream});
    }
    const ExperimentResult r =
        runPoint(cfg, 3 * kMicrosecond, 8 * kMicrosecond);
    EXPECT_EQ(r.totalReads, 1499u);
    EXPECT_EQ(r.totalWireBytes, 95936u);
    EXPECT_DOUBLE_EQ(r.avgReadLatencyNs, 1752.7996377585048);
}

TEST(Experiment, PointsAreDeterministic)
{
    WorkloadSpec stream;
    stream.type = "trace";
    stream.requestBytes = 64;
    stream.patternVaults = 1;
    stream.batchSize = 10;
    stream.seed = 104729;
    SystemConfig cfg;
    cfg.host.portWorkloads.push_back({0, stream});
    const Tick warmup = 3 * kMicrosecond;
    const Tick window = 8 * kMicrosecond;
    const ExperimentResult a = runPoint(cfg, warmup, window);
    const ExperimentResult b = runPoint(cfg, warmup, window);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    // A different seed changes the address stream but not the shape.
    cfg.host.portWorkloads[0].spec.seed = 999 * 104729;
    const ExperimentResult c = runPoint(cfg, warmup, window);
    EXPECT_NEAR(c.avgReadLatencyNs / a.avgReadLatencyNs, 1.0, 0.25);
}

TEST(Experiment, AccessRateConsistentWithBandwidth)
{
    WorkloadSpec gups;
    gups.requestBytes = 128;
    const ExperimentResult r =
        runPoint(gupsPoint(gups), 5 * kMicrosecond, 10 * kMicrosecond);
    // accesses/s * 160 wire bytes == bandwidth.
    EXPECT_NEAR(r.accessesPerSec() * 160.0 / 1e9, r.bandwidthGBs, 0.01);
}

}  // namespace
}  // namespace hmcsim
