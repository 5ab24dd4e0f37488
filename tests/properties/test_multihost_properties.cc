/**
 * @file
 * Property sweep of the multi-host chain fabric: across topologies,
 * cube counts, entry-cube placements and seeds, every response must
 * return to the host (and port) that issued its request, traffic must
 * be conserved end to end, and no two hosts' in-flight tags may ever
 * cross-deliver -- the tag namespaces are per (host, port), so hosts
 * legitimately hold numerically equal tags concurrently, and the only
 * thing keeping them apart is the packet's host id driving the
 * response route back to the right entry cube.  (A misrouted response
 * additionally trips the controller's host-mismatch panic.)
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

struct Placement {
    const char *name;
    /** Explicit entry cubes; empty = the even auto spread. */
    std::vector<CubeId> entries;
};

SystemConfig
multiHostConfig(const std::string &topology, std::uint32_t cubes,
                std::uint32_t hosts, const std::vector<CubeId> &entries)
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = cubes;
    cfg.hmc.chain.topology = topology;
    cfg.host.numHosts = hosts;
    cfg.host.entryCubes = entries;
    return cfg;
}

/**
 * Drive every host with full-capacity GUPS traffic, quiesce, and
 * check per-host and per-port conservation.
 */
void
runMultiHostConservation(const SystemConfig &cfg, std::uint64_t seed)
{
    constexpr PortId kActivePorts = 2;
    System sys(cfg);
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < kActivePorts; ++p) {
            WorkloadSpec w;
            w.type = "gups";
            w.requestBytes = 32;
            // Decorrelated but deterministic per (seed, host, port).
            w.seed = mixSeeds(seed, h * 131 + p + 1);
            sys.configureWorkloadAt(h, p, w);
        }
    }
    sys.run(4 * kMicrosecond);
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < kActivePorts; ++p)
            sys.portAt(h, p).setActive(false);
    }
    sys.run(60 * kMicrosecond);  // drain every in-flight request

    std::uint64_t total_issued = 0;
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        std::uint64_t issued = 0;
        for (PortId p = 0; p < kActivePorts; ++p) {
            const WorkloadPort &port = sys.portAt(h, p);
            // Every request this port issued came back to THIS port
            // of THIS host -- a response delivered to any other
            // (host, port) would leave these unequal (and panic in
            // the receiving controller first).
            EXPECT_GT(port.issuedRequests(), 0u)
                << "host " << h << " port " << p;
            EXPECT_EQ(port.monitor().accesses(), port.issuedRequests())
                << "host " << h << " port " << p;
            issued += port.issuedRequests();
        }
        const HmcHostController &ctrl = sys.fpga(h).controller();
        EXPECT_EQ(ctrl.requestsSent(), issued) << "host " << h;
        EXPECT_EQ(ctrl.responsesDelivered(), issued) << "host " << h;
        for (CubeId c = 0; c < sys.numCubes(); ++c) {
            EXPECT_EQ(ctrl.outstandingToCube(c), 0u)
                << "host " << h << " cube " << c;
        }
        // Tags are a per-port namespace: after the drain every pool
        // is empty again; a cross-host delivery would have released a
        // foreign pool's tag (panic) or leaked one here.
        for (PortId p = 0; p < kActivePorts; ++p) {
            const WorkloadPort &wp = sys.portAt(h, p);
            EXPECT_EQ(wp.tags().inUse(), 0u)
                << "host " << h << " port " << p;
            EXPECT_GT(wp.tags().peakInUse(), 0u)
                << "host " << h << " port " << p;
        }
        total_issued += issued;
    }
    std::uint64_t served = 0;
    for (CubeId c = 0; c < sys.numCubes(); ++c)
        served += sys.device(c).totalRequestsServed();
    EXPECT_EQ(served, total_issued);
}

using SweepParam =
    std::tuple<const char *, std::uint32_t, std::uint32_t, int,
               std::uint64_t>;

class MultiHostSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(MultiHostSweep, ResponsesReturnToIssuingHost)
{
    const auto &[topo, cubes, hosts, placement, seed] = GetParam();
    std::vector<CubeId> entries;
    if (placement == 1) {
        // Clustered: hosts packed onto adjacent entry cubes instead
        // of the even spread (stresses asymmetric return paths).
        for (HostId h = 0; h < hosts; ++h)
            entries.push_back(cubes - 1 - h);
    }
    runMultiHostConservation(
        multiHostConfig(topo, cubes, hosts, entries), seed);
}

INSTANTIATE_TEST_SUITE_P(
    TopologyCubesEntriesSeeds, MultiHostSweep,
    ::testing::Values(
        SweepParam{"daisy", 2, 2, 0, 1}, SweepParam{"daisy", 4, 2, 0, 1},
        SweepParam{"daisy", 4, 2, 1, 2}, SweepParam{"daisy", 8, 4, 0, 1},
        SweepParam{"ring", 2, 2, 0, 1}, SweepParam{"ring", 4, 2, 0, 1},
        SweepParam{"ring", 4, 2, 1, 2}, SweepParam{"ring", 4, 4, 0, 1},
        SweepParam{"ring", 8, 2, 0, 2}, SweepParam{"ring", 8, 4, 1, 1}));

TEST(MultiHostProperties, AdaptiveRoutingConservesAcrossHosts)
{
    SystemConfig cfg = multiHostConfig("ring", 4, 2, {});
    cfg.hmc.chain.routing = "adaptive";
    cfg.hmc.linkTokens = 32;  // keep backpressure (the adaptive signal)
    runMultiHostConservation(cfg, 7);
}

TEST(MultiHostProperties, TinyTokenPoolsStillConserve)
{
    SystemConfig cfg = multiHostConfig("ring", 4, 2, {});
    cfg.hmc.linkTokens = 16;  // one max packet per direction
    cfg.hmc.chain.forwardQueuePackets = 1;
    runMultiHostConservation(cfg, 3);
}

TEST(MultiHostProperties, SingleHostAtNonZeroEntryConserves)
{
    // One host, but attached mid-chain through dedicated host links:
    // exercises the Host port class and the towardEntry tables with
    // the legacy (static-eject) wiring path.
    for (const char *topo : {"daisy", "ring"}) {
        SystemConfig cfg = multiHostConfig(topo, 4, 1, {2});
        runMultiHostConservation(cfg, 11);
    }
}

TEST(MultiHostProperties, EntryCubesMustBeDistinct)
{
    EXPECT_THROW(System(multiHostConfig("ring", 4, 2, {1, 1})),
                 FatalError);
}

TEST(MultiHostProperties, MoreHostsThanCubesRejected)
{
    EXPECT_THROW(System(multiHostConfig("ring", 2, 4, {})), FatalError);
}

TEST(MultiHostProperties, StarRejectsMultipleHosts)
{
    SystemConfig cfg = multiHostConfig("star", 4, 2, {});
    cfg.hmc.numLinks = 4;
    EXPECT_THROW(System sys(cfg), FatalError);
}

TEST(MultiHostProperties, EntryPinForMissingHostRejected)
{
    // host.host2.entry_cube with num_hosts=2 (a 1-indexed-host
    // mistake) must fail loudly, not silently fall back to the
    // even spread.
    Config cfg;
    SystemConfig base = multiHostConfig("ring", 4, 2, {});
    base.toConfig(cfg);
    cfg.parseString("[host]\nhost2.entry_cube = 3\n");
    EXPECT_THROW(SystemConfig::fromConfig(cfg), FatalError);
}

TEST(MultiHostProperties, StarRejectsPinnedEntryCube)
{
    // Star links rotate over all cubes; a pinned entry cube would be
    // silently meaningless, so it must be rejected even single-host.
    SystemConfig cfg = multiHostConfig("star", 4, 1, {2});
    cfg.hmc.numLinks = 4;
    EXPECT_THROW(System sys(cfg), FatalError);
}

TEST(MultiHostProperties, AutoSpreadPlacesHostsEvenly)
{
    const SystemConfig cfg = multiHostConfig("ring", 8, 4, {});
    System sys(cfg);
    EXPECT_EQ(sys.numHosts(), 4u);
    EXPECT_EQ(sys.hostEntryCube(0), 0u);
    EXPECT_EQ(sys.hostEntryCube(1), 2u);
    EXPECT_EQ(sys.hostEntryCube(2), 4u);
    EXPECT_EQ(sys.hostEntryCube(3), 6u);
}

TEST(MultiHostProperties, RouteTableReturnsToEveryEntry)
{
    // Pure table property: from every cube, walking towardEntry must
    // reach the entry cube within numCubes steps and end on the
    // host's attachment port.
    for (const char *topo : {"daisy", "ring"}) {
        for (std::uint32_t n : {2u, 4u, 8u}) {
            for (std::uint32_t hosts = 1; hosts <= n && hosts <= 4;
                 ++hosts) {
                std::vector<CubeId> entries;
                for (HostId h = 0; h < hosts; ++h)
                    entries.push_back((h * n) / hosts);
                const ChainRouteTable rt(chainTopologyFromString(topo), n,
                                         entries);
                for (HostId h = 0; h < hosts; ++h) {
                    const CubeId entry = rt.hostEntry(h);
                    for (CubeId at = 0; at < n; ++at) {
                        CubeId cur = at;
                        std::uint32_t steps = 0;
                        while (cur != entry && steps <= n) {
                            const ChainHop hop = rt.towardEntry(cur, entry);
                            ASSERT_NE(hop, ChainHop::Local);
                            ASSERT_NE(hop, ChainHop::Host);
                            cur = rt.neighbor(cur, hop);
                            ++steps;
                        }
                        ASSERT_LE(steps, n)
                            << topo << " n=" << n << " entry=" << entry;
                        EXPECT_EQ(rt.towardEntry(entry, entry),
                                  rt.attachHop(entry));
                        // The walk length matches the precomputed
                        // response hop count.
                        EXPECT_EQ(steps, rt.responseHops(at, h));
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace hmcsim
