/**
 * @file
 * System-level tests of multi-cube chaining: the single-cube default
 * must stay bit-identical, chained traffic must be conserved across
 * every topology, hop latency must grow with chain depth, and the
 * pass-through flow control must survive tiny token pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

SystemConfig
chainConfig(std::uint32_t cubes, const std::string &topology,
            const std::string &interleave = "cube_high")
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = cubes;
    cfg.hmc.chain.topology = topology;
    cfg.hmc.chain.interleave = interleave;
    if (topology == "star")
        cfg.hmc.numLinks = std::max(cfg.hmc.numLinks, cubes);
    return cfg;
}

/** @p cfg under nine ports of 64 B GUPS reads over every cube. */
SystemConfig
withGups(SystemConfig cfg)
{
    WorkloadSpec gups;
    gups.requestBytes = 64;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return cfg;
}

/** @p cfg with port 0 running 32 B GUPS reads over every cube. */
SystemConfig
withOnePort(SystemConfig cfg)
{
    WorkloadSpec gups;
    gups.seed = 1;
    cfg.host.portWorkloads.push_back({0, gups});
    return cfg;
}

/** Issue, quiesce, and check conservation across all cubes. */
void
runConservation(SystemConfig cfg)
{
    addWorkloadPorts(cfg, 3, WorkloadSpec{}, 101);
    System sys(cfg);
    sys.run(6 * kMicrosecond);
    for (PortId p = 0; p < 3; ++p)
        sys.port(p).setActive(false);
    sys.run(60 * kMicrosecond);  // drain every in-flight request

    std::uint64_t issued = 0, completed = 0;
    for (PortId p = 0; p < 3; ++p) {
        issued += sys.port(p).issuedRequests();
        completed += sys.port(p).monitor().accesses();
    }
    EXPECT_GT(issued, 0u);
    EXPECT_EQ(issued, completed);
    EXPECT_EQ(sys.fpga().controller().requestsSent(), issued);
    EXPECT_EQ(sys.fpga().controller().responsesDelivered(), issued);
    std::uint64_t served = 0;
    std::uint64_t cubes_hit = 0;
    for (CubeId c = 0; c < sys.numCubes(); ++c) {
        served += sys.device(c).totalRequestsServed();
        cubes_hit += sys.device(c).totalRequestsServed() > 0 ? 1 : 0;
        EXPECT_EQ(sys.fpga().controller().outstandingToCube(c), 0u);
    }
    EXPECT_EQ(served, issued);
    // The full-capacity pattern must reach every cube.
    EXPECT_EQ(cubes_hit, sys.numCubes());
}

using TopoCubes = std::tuple<const char *, std::uint32_t>;

class ChainConservation : public ::testing::TestWithParam<TopoCubes>
{
};

TEST_P(ChainConservation, NoRequestLostOrDuplicated)
{
    const auto &[topo, cubes] = GetParam();
    runConservation(chainConfig(cubes, topo));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ChainConservation,
    ::testing::Values(TopoCubes{"daisy", 2}, TopoCubes{"daisy", 4},
                      TopoCubes{"daisy", 8}, TopoCubes{"ring", 2},
                      TopoCubes{"ring", 4}, TopoCubes{"ring", 8},
                      TopoCubes{"star", 2}, TopoCubes{"star", 4}));

TEST(ChainSystem, CubeLowInterleaveConserves)
{
    runConservation(chainConfig(4, "daisy", "cube_low"));
}

TEST(ChainSystem, TinyTokenPoolsStillConserve)
{
    SystemConfig cfg = chainConfig(4, "daisy");
    cfg.hmc.linkTokens = 16;  // one max packet per direction
    cfg.hmc.chain.forwardQueuePackets = 1;
    runConservation(cfg);
}

TEST(ChainSystem, RingTinyTokenPoolsStillConserve)
{
    // The ring shares link directions between clockwise requests and
    // down-routed responses; starved credits must back-pressure, not
    // deadlock.
    SystemConfig cfg = chainConfig(8, "ring");
    cfg.hmc.linkTokens = 16;
    cfg.hmc.chain.forwardQueuePackets = 1;
    runConservation(cfg);
}

TEST(ChainSystem, SingleCubeExplicitChainKeysAreIdentical)
{
    // Setting every chain key to its default through the config
    // round-trip must not perturb timing at all.
    const Tick warmup = 3 * kMicrosecond;
    const Tick window = 8 * kMicrosecond;
    const ExperimentResult base =
        runPoint(withGups(SystemConfig{}), warmup, window);

    Config raw;
    SystemConfig{}.toConfig(raw);
    const SystemConfig roundtrip = SystemConfig::fromConfig(raw);
    const ExperimentResult same =
        runPoint(withGups(roundtrip), warmup, window);

    EXPECT_EQ(base.totalReads, same.totalReads);
    EXPECT_EQ(base.totalWireBytes, same.totalWireBytes);
    EXPECT_DOUBLE_EQ(base.avgReadLatencyNs, same.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(base.maxReadLatencyNs, same.maxReadLatencyNs);
    EXPECT_DOUBLE_EQ(base.avgChainHops, 0.0);
    ASSERT_EQ(base.cubes.size(), 1u);
    // Vault and monitor counters are snapshotted at the same instant
    // but a few requests are always mid-flight at the window edge.
    EXPECT_NEAR(static_cast<double>(base.cubes[0].requestsServed),
                static_cast<double>(base.totalReads), 16.0);
}

TEST(ChainSystem, CubePatternConfinesTraffic)
{
    const SystemConfig cfg = chainConfig(4, "daisy");
    System sys(cfg);
    Rng rng(1);
    WorkloadSpec replay;
    replay.type = "trace";
    sys.configureWorkload(
        0, replay,
        makeRandomTrace(rng, sys.addressMap().cubePattern(2),
                        cfg.hmc.totalCapacityBytes(), 4096, 32));
    sys.run(5 * kMicrosecond);
    sys.port(0).setActive(false);
    sys.run(30 * kMicrosecond);

    EXPECT_GT(sys.device(2).totalRequestsServed(), 0u);
    for (CubeId c : {0u, 1u, 3u})
        EXPECT_EQ(sys.device(c).totalRequestsServed(), 0u) << "cube " << c;
    // Two pass-through forwards out, two back.
    EXPECT_DOUBLE_EQ(sys.port(0).monitor().chainHops().mean(), 4.0);
}

/** Low-load average read latency against one confined cube. */
double
lowLoadLatencyToCube(const SystemConfig &cfg, CubeId cube)
{
    System sys(cfg);
    Rng rng(42 + cube);
    WorkloadSpec replay;
    replay.type = "trace";
    replay.batchSize = 1;  // one request in flight: pure latency floor
    sys.configureWorkload(
        0, replay,
        makeRandomTrace(rng, sys.addressMap().cubePattern(cube),
                        cfg.hmc.totalCapacityBytes(), 512, 32));
    sys.run(4 * kMicrosecond);
    const ExperimentResult r = sys.measure(10 * kMicrosecond);
    return r.avgReadLatencyNs;
}

TEST(ChainSystem, DaisyHopLatencyIsMonotoneAndSane)
{
    const SystemConfig cfg = chainConfig(4, "daisy");
    double prev = 0.0;
    std::vector<double> lat;
    for (CubeId c = 0; c < 4; ++c) {
        lat.push_back(lowLoadLatencyToCube(cfg, c));
        EXPECT_GT(lat.back(), prev) << "cube " << c;
        prev = lat.back();
    }
    // Every hop pays pass-through + SerDes + wire twice (request and
    // response legs); the serialization itself is ns-scale.  With the
    // 12 ns pass-through and 16 ns SerDes defaults that is roughly
    // 60 ns per hop -- accept a generous band around it.
    for (CubeId c = 1; c < 4; ++c) {
        const double per_hop = (lat[c] - lat[0]) / c;
        EXPECT_GT(per_hop, 30.0) << "cube " << c;
        EXPECT_LT(per_hop, 130.0) << "cube " << c;
    }
}

TEST(ChainSystem, RingShortcutsTheFarCube)
{
    const double daisy =
        lowLoadLatencyToCube(chainConfig(4, "daisy"), 3);
    const double ring = lowLoadLatencyToCube(chainConfig(4, "ring"), 3);
    // Cube 3 is 3 hops away on the daisy chain but 1 wrap hop on the
    // ring (both directions).
    EXPECT_LT(ring, daisy - 50.0);
}

TEST(ChainSystem, StarHasNoHops)
{
    System sys(withOnePort(chainConfig(4, "star")));
    sys.run(5 * kMicrosecond);
    sys.port(0).setActive(false);
    sys.run(20 * kMicrosecond);

    EXPECT_DOUBLE_EQ(sys.port(0).monitor().chainHops().mean(), 0.0);
    std::uint64_t cubes_hit = 0;
    for (CubeId c = 0; c < 4; ++c)
        cubes_hit += sys.device(c).totalRequestsServed() > 0 ? 1 : 0;
    EXPECT_EQ(cubes_hit, 4u);
}

TEST(ChainSystem, StatsExposeChainTree)
{
    System sys(withOnePort(chainConfig(4, "daisy")));
    sys.run(6 * kMicrosecond);

    const auto stats = sys.stats();
    EXPECT_TRUE(stats.count("system.chain.hmc0.link0.down_packets"));
    EXPECT_TRUE(stats.count("system.chain.hmc1.fwd.fwd_requests"));
    EXPECT_TRUE(stats.count("system.chain.hmc3.vault0.requests_served"));
    EXPECT_TRUE(stats.count(
        "system.fpga.controller.cube2_requests_sent"));
    // Cube 0's switch forwards three cubes' worth of traffic.
    EXPECT_GT(stats.at("system.chain.hmc0.fwd.fwd_requests"), 0.0);
    EXPECT_GT(stats.at("system.chain.hmc0.fwd.fwd_responses"), 0.0);
    for (CubeId c = 0; c < 4; ++c)
        EXPECT_GT(sys.device(c).totalRequestsServed(), 0u) << "cube " << c;
}

TEST(ChainSystem, ChainedResultReportsPerCube)
{
    const ExperimentResult r = runPoint(withGups(chainConfig(4, "daisy")),
                                        2 * kMicrosecond, 6 * kMicrosecond);
    ASSERT_EQ(r.cubes.size(), 4u);
    EXPECT_GT(r.avgChainHops, 0.0);
    for (CubeId c = 0; c < 4; ++c) {
        EXPECT_EQ(r.cubes[c].cube, c);
        EXPECT_EQ(r.cubes[c].requestHops, c);
        EXPECT_GT(r.cubes[c].requestsServed, 0u);
        EXPECT_GT(r.cubes[c].energyPj, 0.0);
    }
}

TEST(ChainSystem, InvalidChainConfigsPanic)
{
    SystemConfig bad = chainConfig(3, "daisy");
    EXPECT_THROW(bad.validate(), FatalError);  // not a power of two
    bad = chainConfig(16, "daisy");
    EXPECT_THROW(bad.validate(), FatalError);  // beyond the CUB field
    bad = chainConfig(4, "mesh");
    EXPECT_THROW(bad.validate(), FatalError);
    bad = chainConfig(4, "star");
    bad.hmc.numLinks = 2;  // fewer links than host-attached cubes
    EXPECT_THROW(bad.validate(), FatalError);
    bad = chainConfig(2, "daisy", "cube_middle");
    EXPECT_THROW(bad.validate(), FatalError);
}

}  // namespace
}  // namespace hmcsim
