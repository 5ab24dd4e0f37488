/**
 * @file
 * Bit-identity guarantees of the multi-host refactor: the default
 * host.num_hosts=1 system must produce results identical to the
 * pre-multi-host build on the experiments behind the fig06 (9-port
 * GUPS latency/bandwidth) and fig08 (stream saturation) CSVs -- same
 * counts, identical latency statistics -- whether the single host is
 * implied (default config), declared explicitly through Config keys,
 * or routed through the generalized entry-cube plumbing with an
 * explicit host0.entry_cube=0.  (The byte-equality of the full CSVs
 * was additionally verified against a pre-refactor build when this
 * guard was introduced; these tests pin the invariant in-tree.)
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_EQ(a.totalWrites, b.totalWrites);
    EXPECT_EQ(a.totalWireBytes, b.totalWireBytes);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.minReadLatencyNs, b.minReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.maxReadLatencyNs, b.maxReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.stddevReadLatencyNs, b.stddevReadLatencyNs);
    ASSERT_EQ(a.ports.size(), b.ports.size());
    for (std::size_t i = 0; i < a.ports.size(); ++i) {
        EXPECT_EQ(a.ports[i].reads, b.ports[i].reads);
        EXPECT_EQ(a.ports[i].wireBytes, b.ports[i].wireBytes);
        EXPECT_DOUBLE_EQ(a.ports[i].avgReadNs, b.ports[i].avgReadNs);
    }
}

/** The fig06 ingredient: a 9-port GUPS run on @p cfg. */
ExperimentResult
fig06Slice(SystemConfig cfg)
{
    WorkloadSpec gups;
    gups.requestBytes = 64;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return runPoint(cfg, 4 * kMicrosecond, 10 * kMicrosecond);
}

/** The fig08 ingredient: one batched stream into vault 0. */
ExperimentResult
fig08Slice(SystemConfig cfg)
{
    WorkloadSpec stream;
    stream.type = "trace";
    stream.patternVaults = 1;
    stream.batchSize = 64;
    stream.seed = 104729;
    cfg.host.portWorkloads.push_back({0, stream});
    return runPoint(cfg, 3 * kMicrosecond, 8 * kMicrosecond);
}

TEST(MultiHostIdentity, ExplicitSingleHostMatchesDefaultFig06)
{
    const ExperimentResult a = fig06Slice(SystemConfig{});

    Config cfg;
    SystemConfig{}.toConfig(cfg);
    cfg.parseString("[host]\nnum_hosts = 1\n");
    const SystemConfig explicit_cfg = SystemConfig::fromConfig(cfg);
    EXPECT_EQ(explicit_cfg.host.numHosts, 1u);
    const ExperimentResult b = fig06Slice(explicit_cfg);

    expectIdentical(a, b);
}

TEST(MultiHostIdentity, ExplicitSingleHostMatchesDefaultFig08)
{
    const ExperimentResult a = fig08Slice(SystemConfig{});

    Config cfg;
    SystemConfig{}.toConfig(cfg);
    cfg.parseString("[host]\nnum_hosts = 1\n"
                    "host0.entry_cube = 0\n");
    const ExperimentResult b = fig08Slice(SystemConfig::fromConfig(cfg));

    expectIdentical(a, b);
}

TEST(MultiHostIdentity, SingleHostChainUnchangedByEntryPlumbing)
{
    // A chained single-host system must not notice the entry-cube
    // generalization: implicit entry vs explicit host0.entry_cube=0,
    // on the topology with the richest response routing (ring).
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    const ExperimentResult a = fig06Slice(base);

    SystemConfig explicit_entry = base;
    explicit_entry.host.entryCubes = {0};
    const ExperimentResult b = fig06Slice(explicit_entry);

    expectIdentical(a, b);
}

TEST(MultiHostIdentity, SingleHostKeepsLegacyStatNamespace)
{
    // The classic fabric keeps its "fpga" component (and stat key)
    // namespace; nothing moved under a host0 prefix.
    SystemConfig cfg;
    WorkloadSpec gups;
    gups.seed = 9;
    cfg.host.portWorkloads.push_back({0, gups});
    System sys(cfg);
    sys.run(3 * kMicrosecond);
    const auto stats = sys.stats();
    EXPECT_EQ(stats.count("system.fpga.controller.requests_sent"), 1u);
    for (const auto &[key, value] : stats)
        EXPECT_EQ(key.find("system.host0."), std::string::npos) << key;
}

TEST(MultiHostIdentity, DualHostRunsAreDeterministic)
{
    const auto run = [] {
        SystemConfig cfg;
        cfg.hmc.chain.numCubes = 4;
        cfg.hmc.chain.topology = "ring";
        cfg.host.numHosts = 2;
        WorkloadRunSpec spec;
        spec.workload.type = "gups";
        spec.workload.inject = "open";
        spec.workload.ratePerNs = 0.02;
        spec.activePorts = 2;
        spec.warmup = 2 * kMicrosecond;
        spec.window = 6 * kMicrosecond;
        return runWorkload(cfg, spec);
    };
    const ExperimentResult a = run();
    const ExperimentResult b = run();
    expectIdentical(a, b);
    ASSERT_EQ(a.hosts.size(), 2u);
    ASSERT_EQ(b.hosts.size(), 2u);
    for (std::size_t h = 0; h < a.hosts.size(); ++h) {
        EXPECT_EQ(a.hosts[h].reads, b.hosts[h].reads);
        EXPECT_DOUBLE_EQ(a.hosts[h].avgReadNs, b.hosts[h].avgReadNs);
    }
}

TEST(MultiHostIdentity, HostsIssueDecorrelatedStreams)
{
    // Same config-driven workload replicated onto both hosts must not
    // replay the same address stream: per-host byte counters end up
    // close but not identical, and both hosts make progress.
    Config cfg;
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    base.host.numHosts = 2;
    base.toConfig(cfg);
    cfg.parseString("[host]\nworkload_ports = 2\nworkload = gups\n");
    System sys(SystemConfig::fromConfig(cfg));
    sys.run(6 * kMicrosecond);
    const std::uint64_t a = sys.fpga(0).controller().requestsSent();
    const std::uint64_t b = sys.fpga(1).controller().requestsSent();
    EXPECT_GT(a, 100u);
    EXPECT_GT(b, 100u);
    std::uint64_t bytes0 = 0, bytes1 = 0;
    for (PortId p = 0; p < 2; ++p) {
        bytes0 += sys.portAt(0, p).monitor().wireBytes();
        bytes1 += sys.portAt(1, p).monitor().wireBytes();
    }
    EXPECT_NE(bytes0, bytes1);
}

}  // namespace
}  // namespace hmcsim
