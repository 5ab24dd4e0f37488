/**
 * @file
 * Bit-identity guarantees of the workload refactor: the config-level
 * `workload=gups` path, the legacy GupsPortSpec path and the seed
 * GupsPort behaviour must produce identical results (same counts,
 * identical latency statistics), and a synthetic trace must replay
 * exactly like the same trace handed in.  The fig06/07/08 CSVs depend
 * on this.
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
}

TEST(WorkloadIdentity, ConfigGupsMatchesLegacyGupsPortSpec)
{
    const SystemConfig cfg;

    // Path 1: the legacy spec (what the seed GupsPort took).
    System legacy(cfg);
    GupsPortSpec gp;
    gp.gen.pattern = legacy.addressMap().pattern(16, 16);
    gp.gen.requestBytes = 32;
    gp.gen.capacity = cfg.hmc.totalCapacityBytes();
    gp.gen.seed = 2024;
    legacy.configureGupsPort(0, gp);
    legacy.run(5 * kMicrosecond);
    const ExperimentResult a = legacy.measure(15 * kMicrosecond);

    // Path 2: the config-level workload description.
    System modern(cfg);
    WorkloadSpec w;
    w.type = "gups";
    w.requestBytes = 32;
    w.patternVaults = 16;
    w.patternBanks = 16;
    w.seed = 2024;
    modern.configureWorkload(0, w);
    modern.run(5 * kMicrosecond);
    const ExperimentResult b = modern.measure(15 * kMicrosecond);

    expectIdentical(a, b);
}

TEST(WorkloadIdentity, ConfigKeysMatchLegacyGupsPortSpec)
{
    // Same as above but through the full Config-file route
    // (host.workload_ports=1), including warmup handled by System
    // construction order.
    const SystemConfig base;
    System legacy(base);
    GupsPortSpec gp;
    gp.gen.pattern = legacy.addressMap().pattern(16, 16);
    gp.gen.requestBytes = 64;
    gp.gen.capacity = base.hmc.totalCapacityBytes();
    gp.gen.seed = 77;
    legacy.configureGupsPort(0, gp);
    legacy.run(5 * kMicrosecond);
    const ExperimentResult a = legacy.measure(10 * kMicrosecond);

    Config cfg;
    base.toConfig(cfg);
    cfg.parseString("[host]\n"
                    "workload_ports = 1\n"
                    "workload = gups\n"
                    "workload.request_bytes = 64\n"
                    "workload.seed = 77\n");
    System declared(SystemConfig::fromConfig(cfg));
    declared.run(5 * kMicrosecond);
    const ExperimentResult b = declared.measure(10 * kMicrosecond);

    expectIdentical(a, b);
}

TEST(WorkloadIdentity, SyntheticTraceMatchesGivenTrace)
{
    const SystemConfig cfg;
    WorkloadSpec w;
    w.type = "trace";
    w.requestBytes = 32;
    w.traceLength = 2048;
    w.seed = 314;

    System given(cfg);
    Rng rng(314);
    given.configureWorkload(
        0, w,
        makeRandomTrace(rng, given.addressMap().pattern(16, 16),
                        cfg.hmc.totalCapacityBytes(), 2048, 32));
    given.run(5 * kMicrosecond);
    const ExperimentResult a = given.measure(10 * kMicrosecond);

    // The config path generates the synthetic trace from the same
    // seed, pattern and length, so the replay must be identical.
    System modern(cfg);
    modern.configureWorkload(0, w);
    modern.run(5 * kMicrosecond);
    const ExperimentResult b = modern.measure(10 * kMicrosecond);

    expectIdentical(a, b);
}

TEST(WorkloadIdentity, RmwChainsSurviveTheRefactor)
{
    const SystemConfig cfg;
    System sys(cfg);
    WorkloadSpec w;
    w.type = "gups";
    w.kind = ReqKind::ReadModifyWrite;
    w.seed = 5;
    sys.configureWorkload(0, w);
    sys.run(10 * kMicrosecond);
    const Monitor &m = sys.port(0).monitor();
    EXPECT_GT(m.reads(), 100u);
    EXPECT_GT(m.writes(), 100u);
    EXPECT_LE(m.writes(), m.reads());
}

TEST(WorkloadIdentity, RunnersStayDeterministic)
{
    WorkloadRunSpec spec;
    spec.workload.type = "zipf";
    spec.workload.inject = "open";
    spec.workload.ratePerNs = 0.02;
    spec.activePorts = 2;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    const ExperimentResult a = runWorkload(SystemConfig{}, spec);
    const ExperimentResult b = runWorkload(SystemConfig{}, spec);
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
}

TEST(WorkloadIdentity, MixedSeedsDecorrelatePorts)
{
    // Two ports driven from the same base seed must not issue the
    // same address stream (the old "seed + portId" hazard).
    const SystemConfig cfg;
    System sys(cfg);
    for (PortId p = 0; p < 2; ++p) {
        WorkloadSpec w;
        w.type = "gups";
        w.seed = mixSeeds(1, p);
        sys.configureWorkload(p, w);
    }
    sys.run(5 * kMicrosecond);
    // Statistically indistinguishable load, different streams: both
    // ports progressed, and their byte counters differ slightly (the
    // arbiters interleave distinct addresses).
    EXPECT_GT(sys.port(0).monitor().reads(), 100u);
    EXPECT_GT(sys.port(1).monitor().reads(), 100u);
}

}  // namespace
}  // namespace hmcsim
