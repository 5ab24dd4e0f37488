/**
 * @file
 * Congestion-aware adaptive chain routing: policy unit tests against a
 * fake telemetry provider (zero-load identity, tie deviation,
 * hysteresis, bounded direction-locked misroutes), route-table
 * hardening (neighbor() underflow, towardHost tie-breaking), and
 * system-level guards -- static-mode bit-identity, conservation under
 * adaptive routing, tie-splitting under load, and the head-of-line
 * blocking accounting regression.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "chain/routing_policy.h"
#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"
#include "host/workload/sources.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {
namespace {

// ---------------------------------------------------------------------
// Policy unit tests
// ---------------------------------------------------------------------

/** Scriptable telemetry: per-kind loads, everything wired by default. */
class FakeLoads : public ChainLoadProvider
{
  public:
    ChainPortLoad up = wired();
    ChainPortLoad down = wired();
    ChainPortLoad wrap = wired();

    static ChainPortLoad
    wired(std::uint32_t queued_flits = 0, std::uint32_t tokens_in_use = 0)
    {
        ChainPortLoad load;
        load.wired = true;
        load.queuedFlits = queued_flits;
        load.queueFreePackets = 8;
        load.tokensInUse = tokens_in_use;
        return load;
    }

    ChainPortLoad
    portLoad(ChainHop kind, LinkId) const override
    {
        switch (kind) {
          case ChainHop::Up: return up;
          case ChainHop::Down: return down;
          case ChainHop::Wrap: return wrap;
          case ChainHop::Local:
          case ChainHop::Host:
            break;
        }
        return ChainPortLoad{};
    }
};

ChainPacketView
request(CubeId dest)
{
    ChainPacketView v;
    v.dest = dest;
    return v;
}

ChainPacketView
response()
{
    ChainPacketView v;
    v.toHost = true;
    return v;
}

TEST(AdaptiveRoutingPolicy, ZeroLoadTakesExactStaticPaths)
{
    // The property the hysteresis threshold guarantees: an unloaded
    // adaptive chain is indistinguishable from the static table.
    const FakeLoads idle;
    const AdaptiveRoutingParams params;
    for (const ChainTopology topo :
         {ChainTopology::Daisy, ChainTopology::Ring}) {
        for (const std::uint32_t n : {2u, 4u, 8u}) {
            const ChainRouteTable t(topo, n);
            const AdaptiveChainRouting adaptive(t, params);
            for (CubeId at = 0; at < n; ++at) {
                for (CubeId dest = 0; dest < n; ++dest) {
                    const ChainRouteDecision d =
                        adaptive.route(at, request(dest), 0, idle);
                    EXPECT_EQ(d.hop, t.next(at, dest))
                        << toString(topo) << " n=" << n << " at=" << at
                        << " dest=" << dest;
                    EXPECT_FALSE(d.deviated);
                    EXPECT_FALSE(d.misrouted);
                    EXPECT_EQ(d.dirLock, kChainDirNone);
                }
                const ChainRouteDecision d =
                    adaptive.route(at, response(), 0, idle);
                EXPECT_EQ(d.hop, t.towardHost(at))
                    << toString(topo) << " n=" << n << " at=" << at;
                EXPECT_FALSE(d.deviated);
                EXPECT_FALSE(d.misrouted);
            }
        }
    }
}

TEST(AdaptiveRoutingPolicy, RingTieDeviatesOnlyPastThreshold)
{
    const ChainRouteTable t(ChainTopology::Ring, 4);
    AdaptiveRoutingParams params;
    params.thresholdFlits = 8;
    const AdaptiveChainRouting adaptive(t, params);

    // Cube 2 is a distance-2 tie from cube 0; static breaks it Down.
    FakeLoads loads;
    loads.down = FakeLoads::wired(/*queued=*/8, /*tokens=*/0);
    ChainRouteDecision d = adaptive.route(0, request(2), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);  // 8 vs 0: not strictly past 8
    EXPECT_FALSE(d.deviated);

    loads.down = FakeLoads::wired(9, 0);
    d = adaptive.route(0, request(2), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Wrap);
    EXPECT_TRUE(d.deviated);
    EXPECT_FALSE(d.misrouted);
    EXPECT_EQ(d.dirLock, kChainDirNone);  // ties need no lock

    // Token backpressure counts like queue occupancy.
    loads.down = FakeLoads::wired(0, 9);
    d = adaptive.route(0, request(2), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Wrap);
    EXPECT_TRUE(d.deviated);
}

TEST(AdaptiveRoutingPolicy, ResponseTieDeviates)
{
    const ChainRouteTable t(ChainTopology::Ring, 4);
    const AdaptiveChainRouting adaptive(t, AdaptiveRoutingParams{});

    // Cube 2's response tie statically breaks Up (counter-clockwise).
    FakeLoads loads;
    loads.up = FakeLoads::wired(64, 0);
    const ChainRouteDecision d = adaptive.route(2, response(), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);
    EXPECT_TRUE(d.deviated);
}

TEST(AdaptiveRoutingPolicy, MisrouteIsBoundedAndDirectionLocked)
{
    const ChainRouteTable t(ChainTopology::Ring, 4);
    AdaptiveRoutingParams params;
    params.thresholdFlits = 8;
    params.misrouteThresholdFlits = 48;
    params.maxMisroutes = 1;
    const AdaptiveChainRouting adaptive(t, params);

    // Cube 1 is minimal only via Down; the long way is Wrap (ccw).
    FakeLoads loads;
    loads.down = FakeLoads::wired(60, 0);
    ChainRouteDecision d = adaptive.route(0, request(1), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Wrap);
    EXPECT_TRUE(d.misrouted);
    EXPECT_FALSE(d.deviated);
    EXPECT_EQ(d.dirLock, kChainDirCcw);

    // Below the absolute misroute threshold: stay minimal even though
    // the alternative is far less congested.
    loads.down = FakeLoads::wired(40, 0);
    d = adaptive.route(0, request(1), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);
    EXPECT_FALSE(d.misrouted);

    // Budget exhausted: stay minimal no matter the congestion.
    loads.down = FakeLoads::wired(200, 0);
    ChainPacketView spent = request(1);
    spent.misroutes = 1;
    d = adaptive.route(0, spent, 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);
    EXPECT_FALSE(d.misrouted);

    // maxMisroutes = 0 disables non-minimal routing entirely.
    AdaptiveRoutingParams no_misroute = params;
    no_misroute.maxMisroutes = 0;
    const AdaptiveChainRouting strict(t, no_misroute);
    d = strict.route(0, request(1), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);
    EXPECT_FALSE(d.misrouted);
}

TEST(AdaptiveRoutingPolicy, DirectionLockIsFollowedDownstream)
{
    const ChainRouteTable t(ChainTopology::Ring, 8);
    const AdaptiveChainRouting adaptive(t, AdaptiveRoutingParams{});
    const FakeLoads idle;

    // A ccw-locked request for cube 2 at cube 3 must keep going ccw
    // (Up) even though it matches the minimal direction anyway; at
    // cube 4 the minimal direction would be ccw too -- the lock's job
    // is cube 0's wrap entry, where minimal routing would bounce it.
    ChainPacketView locked = request(2);
    locked.dirLock = kChainDirCcw;
    locked.misroutes = 1;
    ChainRouteDecision d = adaptive.route(4, locked, 0, idle);
    EXPECT_EQ(d.hop, ChainHop::Up);
    EXPECT_EQ(d.dirLock, kChainDirCcw);

    // cw-locked response: Down mid-ring, Wrap at the last cube, Up
    // once it reaches the host-attached cube.
    ChainPacketView resp = response();
    resp.dirLock = kChainDirCw;
    resp.misroutes = 1;
    EXPECT_EQ(adaptive.route(5, resp, 0, idle).hop, ChainHop::Down);
    EXPECT_EQ(adaptive.route(7, resp, 0, idle).hop, ChainHop::Wrap);
    EXPECT_EQ(adaptive.route(0, resp, 0, idle).hop, ChainHop::Up);
}

TEST(AdaptiveRoutingPolicy, DaisyNeverDeviates)
{
    const ChainRouteTable t(ChainTopology::Daisy, 4);
    const AdaptiveChainRouting adaptive(t, AdaptiveRoutingParams{});
    FakeLoads loads;
    loads.down = FakeLoads::wired(500, 500);
    const ChainRouteDecision d = adaptive.route(0, request(3), 0, loads);
    EXPECT_EQ(d.hop, ChainHop::Down);  // no alternate path exists
    EXPECT_FALSE(d.deviated);
    EXPECT_FALSE(d.misrouted);
}

TEST(RoutingPolicy, ModeStrings)
{
    EXPECT_EQ(chainRoutingFromString("static"), ChainRoutingMode::Static);
    EXPECT_EQ(chainRoutingFromString("adaptive"),
              ChainRoutingMode::Adaptive);
    EXPECT_THROW(chainRoutingFromString("oblivious"), FatalError);
    EXPECT_EQ(toString(ChainRoutingMode::Adaptive), "adaptive");
}

// ---------------------------------------------------------------------
// Route-table hardening
// ---------------------------------------------------------------------

TEST(RouteTable, NeighborUnderflowPanicsInsteadOfWrapping)
{
    const ChainRouteTable t(ChainTopology::Daisy, 4);
    // Cube 0's Up port faces the host; before the guard this returned
    // CubeId(-1) = 4294967295 silently.
    EXPECT_THROW(t.neighbor(0, ChainHop::Up), PanicError);
    EXPECT_EQ(t.neighbor(1, ChainHop::Up), 0u);
    EXPECT_EQ(t.neighbor(2, ChainHop::Down), 3u);
    EXPECT_THROW(t.neighbor(3, ChainHop::Down), PanicError);
    EXPECT_THROW(t.neighbor(4, ChainHop::Up), PanicError);  // range
    EXPECT_EQ(t.neighbor(0, ChainHop::Wrap), 3u);
    EXPECT_EQ(t.neighbor(3, ChainHop::Wrap), 0u);
    EXPECT_EQ(t.neighbor(2, ChainHop::Local), 2u);
}

TEST(RouteTable, RingTowardHostBreaksTiesUp)
{
    // The equidistant cube (N/2) must retrace counter-clockwise (Up),
    // matching the clockwise tie-break requests use from cube 0.
    const ChainRouteTable r4(ChainTopology::Ring, 4);
    EXPECT_EQ(r4.towardHost(2), ChainHop::Up);
    const ChainRouteTable r8(ChainTopology::Ring, 8);
    EXPECT_EQ(r8.towardHost(4), ChainHop::Up);
    // Either side of the tie keeps the shortest direction.
    EXPECT_EQ(r8.towardHost(3), ChainHop::Up);
    EXPECT_EQ(r8.towardHost(5), ChainHop::Down);
    EXPECT_EQ(r8.towardHost(7), ChainHop::Wrap);
}

TEST(RouteTable, RingDistances)
{
    const ChainRouteTable t(ChainTopology::Ring, 8);
    EXPECT_EQ(t.cwDistance(0, 3), 3u);
    EXPECT_EQ(t.ccwDistance(0, 3), 5u);
    EXPECT_EQ(t.cwDistance(6, 1), 3u);
    EXPECT_EQ(t.ccwDistance(6, 1), 5u);
    EXPECT_EQ(t.cwDistance(5, 5), 0u);
    EXPECT_EQ(t.ccwDistance(5, 5), 0u);
    EXPECT_EQ(t.cwHop(7), ChainHop::Wrap);
    EXPECT_EQ(t.cwHop(2), ChainHop::Down);
    EXPECT_EQ(t.ccwHop(0), ChainHop::Wrap);
    EXPECT_EQ(t.ccwHop(2), ChainHop::Up);
}

// ---------------------------------------------------------------------
// System-level guards
// ---------------------------------------------------------------------

SystemConfig
chainConfig(std::uint32_t cubes, const std::string &topology,
            const std::string &routing)
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = cubes;
    cfg.hmc.chain.topology = topology;
    cfg.hmc.chain.routing = routing;
    return cfg;
}

/** Nine ports of 64 B GUPS reads over every cube of @p cfg. */
ExperimentResult
gupsPoint(SystemConfig cfg)
{
    WorkloadSpec gups;
    gups.requestBytes = 64;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return runPoint(cfg, 3 * kMicrosecond, 8 * kMicrosecond);
}

/**
 * A GUPS port of @p bytes confined to @p pattern.  Cube-confined
 * patterns are not WorkloadSpec keys, so the port is built from its
 * traffic source.
 */
WorkloadPort::Params
gupsAt(const SystemConfig &cfg, AddressPattern pattern, std::uint32_t bytes,
       std::uint64_t seed, ReqKind kind = ReqKind::ReadOnly)
{
    GupsSource::Params g;
    g.gen.pattern = pattern;
    g.gen.requestBytes = bytes;
    g.gen.capacity = cfg.hmc.totalCapacityBytes();
    g.gen.seed = seed;
    WorkloadPort::Params p;
    p.source = std::make_unique<GupsSource>(g);
    p.kind = kind;
    return p;
}

/** Issue from three ports, quiesce, check conservation on all cubes. */
void
runConservation(SystemConfig cfg)
{
    addWorkloadPorts(cfg, 3, WorkloadSpec{}, 707);
    System sys(cfg);
    sys.run(6 * kMicrosecond);
    for (PortId p = 0; p < 3; ++p)
        sys.port(p).setActive(false);
    sys.run(60 * kMicrosecond);

    std::uint64_t issued = 0, completed = 0;
    for (PortId p = 0; p < 3; ++p) {
        issued += sys.port(p).issuedRequests();
        completed += sys.port(p).monitor().accesses();
    }
    EXPECT_GT(issued, 0u);
    EXPECT_EQ(issued, completed);
    std::uint64_t served = 0;
    for (CubeId c = 0; c < sys.numCubes(); ++c) {
        served += sys.device(c).totalRequestsServed();
        EXPECT_EQ(sys.fpga().controller().outstandingToCube(c), 0u);
    }
    EXPECT_EQ(served, issued);
}

TEST(AdaptiveChainSystem, ConservesUnderAdaptiveRouting)
{
    runConservation(chainConfig(4, "ring", "adaptive"));
    runConservation(chainConfig(8, "ring", "adaptive"));
    runConservation(chainConfig(4, "daisy", "adaptive"));
}

TEST(AdaptiveChainSystem, ConservesWithTinyTokensAndEagerMisroutes)
{
    // Stress the misroute path: hair-trigger thresholds, one-packet
    // forward queues, minimal token pools.
    SystemConfig cfg = chainConfig(8, "ring", "adaptive");
    cfg.hmc.linkTokens = 16;
    cfg.hmc.chain.forwardQueuePackets = 1;
    cfg.hmc.chain.adaptiveThresholdFlits = 0;
    cfg.hmc.chain.adaptiveMisrouteThresholdFlits = 1;
    cfg.hmc.chain.adaptiveMaxMisroutes = 4;
    runConservation(cfg);
}

/** Low-load single-stream latency to one cube. */
double
lowLoadLatencyToCube(const SystemConfig &cfg, CubeId cube)
{
    System sys(cfg);
    Rng rng(99 + cube);
    WorkloadSpec replay;
    replay.type = "trace";
    replay.batchSize = 1;
    sys.configureWorkload(
        0, replay,
        makeRandomTrace(rng, sys.addressMap().cubePattern(cube),
                        cfg.hmc.totalCapacityBytes(), 512, 32));
    sys.run(4 * kMicrosecond);
    return sys.measure(10 * kMicrosecond).avgReadLatencyNs;
}

TEST(AdaptiveChainSystem, ZeroLoadTimingIdenticalToStatic)
{
    // One request in flight never builds occupancy, so the adaptive
    // policy must replay the static paths tick-for-tick.
    for (const char *topo : {"daisy", "ring"}) {
        for (CubeId cube = 0; cube < 4; ++cube) {
            const double s =
                lowLoadLatencyToCube(chainConfig(4, topo, "static"), cube);
            const double a = lowLoadLatencyToCube(
                chainConfig(4, topo, "adaptive"), cube);
            EXPECT_DOUBLE_EQ(s, a) << topo << " cube " << cube;
        }
    }
}

TEST(AdaptiveChainSystem, ZeroLoadTakesNoAdaptiveExits)
{
    SystemConfig cfg = chainConfig(4, "ring", "adaptive");
    System sys(cfg);
    Rng rng(4242);
    WorkloadSpec replay;
    replay.type = "trace";
    replay.batchSize = 1;
    sys.configureWorkload(
        0, replay,
        makeRandomTrace(rng, sys.addressMap().cubePattern(2),
                        cfg.hmc.totalCapacityBytes(), 512, 32));
    sys.run(10 * kMicrosecond);
    const auto stats = sys.stats();
    for (CubeId c = 0; c < 4; ++c) {
        const std::string base = "system.chain.hmc" + std::to_string(c);
        EXPECT_EQ(stats.at(base + ".fwd.adaptive_deviations"), 0.0);
        EXPECT_EQ(stats.at(base + ".fwd.misroutes"), 0.0);
    }
}

TEST(AdaptiveChainSystem, StaticModeMatchesDefaultConfigExactly)
{
    // Explicitly setting every routing knob through the config
    // round-trip must not perturb static-chain timing at all -- the
    // in-test half of the "static is bit-identical to the pre-policy
    // build" guarantee.
    const ExperimentResult base =
        gupsPoint(chainConfig(4, "ring", "static"));

    Config raw;
    chainConfig(4, "ring", "static").toConfig(raw);
    const ExperimentResult same = gupsPoint(SystemConfig::fromConfig(raw));

    EXPECT_EQ(base.totalReads, same.totalReads);
    EXPECT_EQ(base.totalWireBytes, same.totalWireBytes);
    EXPECT_DOUBLE_EQ(base.avgReadLatencyNs, same.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(base.maxReadLatencyNs, same.maxReadLatencyNs);
    EXPECT_EQ(base.totalChainMisroutes, 0u);
}

/** Confine @p base to one cube: AND the masks, OR the fixed bits. */
AddressPattern
confineToCube(const AddressMap &map, AddressPattern base, CubeId cube)
{
    const AddressPattern cp = map.cubePattern(cube);
    base.mask &= cp.mask;
    base.fixed |= cp.fixed;
    return base;
}

/**
 * Hotspot harness: single-bank writes wedge cube @p hot (the bank
 * queue fills, backs into the NoC, and the held link tokens propagate
 * the congestion up the clockwise path), while reads target the
 * distance-tie cube @p tie whose traffic adaptive routing may detour.
 */
void
driveHotAndTie(System &sys, const SystemConfig &cfg, CubeId hot,
               CubeId tie)
{
    const AddressMap &map = sys.addressMap();
    for (PortId p = 0; p < 3; ++p)
        sys.configureWorkloadPort(
            p, gupsAt(cfg, confineToCube(map, map.pattern(1, 1), hot), 64,
                      11 + p, ReqKind::WriteOnly));
    for (PortId p = 3; p < 6; ++p)
        sys.configureWorkloadPort(
            p, gupsAt(cfg, map.cubePattern(tie), 64, 11 + p));
    sys.run(30 * kMicrosecond);
}

TEST(AdaptiveChainSystem, StarAdaptiveIsIdenticalToStatic)
{
    // A star link reaches exactly one cube: there is no path or entry
    // diversity, so adaptive must match static even under full load
    // (the entry-spread stays disabled for stars).
    const ExperimentResult s = gupsPoint(chainConfig(2, "star", "static"));
    const ExperimentResult a =
        gupsPoint(chainConfig(2, "star", "adaptive"));
    EXPECT_EQ(s.totalReads, a.totalReads);
    EXPECT_EQ(s.totalWireBytes, a.totalWireBytes);
    EXPECT_DOUBLE_EQ(s.avgReadLatencyNs, a.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(s.maxReadLatencyNs, a.maxReadLatencyNs);
}

TEST(AdaptiveChainSystem, TieTrafficSplitsBothWaysUnderLoad)
{
    // Wedge cube 1 so the clockwise entry path backs up; the
    // distance-2 tie traffic for cube 2 shares that path under static
    // routing, and adaptive routing must spill part of it onto the
    // wrap link once the backpressure is visible at cube 0.
    SystemConfig cfg = chainConfig(4, "ring", "adaptive");
    cfg.host.tagsPerPort = 256;  // enough in flight to fill the chain
    {
        System sys(cfg);
        driveHotAndTie(sys, cfg, /*hot=*/1, /*tie=*/2);
        const auto stats = sys.stats();
        EXPECT_GT(stats.at("system.chain.hmc0.fwd.route_down"), 0.0);
        EXPECT_GT(stats.at("system.chain.hmc0.fwd.route_wrap"), 0.0);
        EXPECT_GT(stats.at("system.chain.hmc0.fwd.adaptive_deviations"),
                  0.0);
    }

    // The same pressure on a static chain keeps the wrap link to the
    // static flows (no deviations ever).
    cfg.hmc.chain.routing = "static";
    System ssys(cfg);
    driveHotAndTie(ssys, cfg, 1, 2);
    const auto sstats = ssys.stats();
    EXPECT_EQ(sstats.at("system.chain.hmc0.fwd.route_wrap"), 0.0);
    EXPECT_EQ(sstats.at("system.chain.hmc0.fwd.adaptive_deviations"), 0.0);
    EXPECT_EQ(sstats.at("system.chain.hmc0.fwd.misroutes"), 0.0);
}

/** Per-cube rx_hol_stalls of a finished run. */
std::vector<std::uint64_t>
holStallsPerCube(const System &sys, std::uint32_t cubes)
{
    const auto stats = sys.stats();
    std::vector<std::uint64_t> out;
    for (CubeId c = 0; c < cubes; ++c)
        out.push_back(static_cast<std::uint64_t>(
            stats.at("system.chain.hmc" + std::to_string(c) +
                     ".fwd.rx_hol_stalls")));
    return out;
}

/** Mixed 64 B traffic over every cube from nine ports per host. */
std::vector<std::uint64_t>
holStallsUnderMixedLoad(const SystemConfig &cfg)
{
    System sys(cfg);
    for (HostId h = 0; h < cfg.host.numHosts; ++h) {
        for (PortId p = 0; p < 9; ++p) {
            WorkloadSpec w;
            w.requestBytes = 64;
            w.writeFraction = 0.25;
            w.seed = 51 + 16 * h + p;
            sys.configureWorkloadAt(h, p, w);
        }
    }
    sys.run(20 * kMicrosecond);
    return holStallsPerCube(sys, cfg.hmc.chain.numCubes);
}

TEST(ChainSwitchRegression, RxHolBlockingIsAccounted)
{
    // The counts below are pinned exactly: rx_hol_stalls counts an RX
    // head once, at its first refusal, when some packet already landed
    // behind it could move right then.  Retries of the same head and
    // later arrivals behind it count nothing, so no wake changes the
    // count.  A change to how the switch finds such a packet must
    // reproduce them on both routing policies, on switch-drained and
    // device-drained RX queues alike.

    // Daisy with one-packet forward queues: cube 0's host RX carries
    // heavy 128 B writes transiting Down to cube 3 interleaved with
    // reads local to cube 0.  The Down queue refuses a write for a
    // pass-through latency at a time, and each such stall wedges the
    // locally deliverable reads queued behind the write -- the
    // head-of-line blocking the rx_hol_stalls counter was added to
    // expose (a static chain, so no adaptive machinery involved).
    {
        SystemConfig cfg = chainConfig(4, "daisy", "static");
        cfg.hmc.chain.forwardQueuePackets = 1;
        cfg.host.tagsPerPort = 256;
        System sys(cfg);
        const AddressMap &map = sys.addressMap();
        for (PortId p = 0; p < 3; ++p)
            sys.configureWorkloadPort(
                p, gupsAt(cfg, map.cubePattern(3), 128, 31 + p,
                          ReqKind::WriteOnly));
        for (PortId p = 3; p < 6; ++p)
            sys.configureWorkloadPort(
                p, gupsAt(cfg, map.cubePattern(0), 64, 31 + p));
        sys.run(30 * kMicrosecond);
        EXPECT_EQ(holStallsPerCube(sys, 4),
                  (std::vector<std::uint64_t>{1334, 0, 0, 0}));
    }

    // Static 8-cube ring, one-packet forward queues.
    {
        SystemConfig cfg = chainConfig(8, "ring", "static");
        cfg.hmc.chain.forwardQueuePackets = 1;
        EXPECT_EQ(holStallsUnderMixedLoad(cfg),
                  (std::vector<std::uint64_t>{503, 0, 0, 0, 0, 0, 0, 0}));
    }

    // Adaptive 8-cube ring with hair-trigger misroutes: routes depend
    // on live loads and on each packet's misroute budget and lock.
    {
        SystemConfig cfg = chainConfig(8, "ring", "adaptive");
        cfg.hmc.linkTokens = 16;
        cfg.hmc.chain.forwardQueuePackets = 1;
        cfg.hmc.chain.adaptiveThresholdFlits = 0;
        cfg.hmc.chain.adaptiveMisrouteThresholdFlits = 1;
        cfg.hmc.chain.adaptiveMaxMisroutes = 4;
        EXPECT_EQ(holStallsUnderMixedLoad(cfg),
                  (std::vector<std::uint64_t>{319, 43, 51, 57, 49, 41, 44,
                                              41}));
    }

    // Two hosts on a 4-cube ring: responses head for per-host entry
    // cubes, and the device drains the Up-port RX whose refused heads
    // the switch accounts.
    {
        SystemConfig cfg = chainConfig(4, "ring", "adaptive");
        cfg.host.numHosts = 2;
        cfg.hmc.chain.forwardQueuePackets = 1;
        EXPECT_EQ(holStallsUnderMixedLoad(cfg),
                  (std::vector<std::uint64_t>{2365, 1410, 2742, 21}));
    }
}

TEST(AdaptiveChainSystem, InvalidRoutingConfigPanics)
{
    SystemConfig bad = chainConfig(4, "ring", "oblivious");
    EXPECT_THROW(bad.validate(), FatalError);
    bad = chainConfig(4, "ring", "adaptive");
    bad.hmc.chain.adaptiveMaxMisroutes = 9;
    EXPECT_THROW(bad.validate(), FatalError);
}

}  // namespace
}  // namespace hmcsim
