/**
 * @file
 * Bit-identity guarantees of the optimized event core: the calendar
 * queue and the packet pool are pure engine substitutions, so the
 * experiments behind the fig06 (9-port GUPS latency/bandwidth), fig08
 * (stream saturation) and chain-figure CSVs must produce results
 * identical to the reference heap queue and to plain allocation --
 * same counts, identical latency statistics -- for every combination
 * of sim.event_queue={heap,calendar} x sim.packet_pool={0,1}.  (Full
 * CSV byte-equality against a pre-optimization build was additionally
 * verified when the engine landed; these tests pin the invariant
 * in-tree.)  The chain slice also pins the kernel's total event count,
 * and the config tests pin the `sim.*` surface: exactly four knobs,
 * each round-tripping through Config.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
    EXPECT_DOUBLE_EQ(a.avgChainHops, b.avgChainHops);
    EXPECT_EQ(a.totalChainTransitFlits, b.totalChainTransitFlits);
    ASSERT_EQ(a.ports.size(), b.ports.size());
    for (std::size_t i = 0; i < a.ports.size(); ++i) {
        EXPECT_EQ(a.ports[i].reads, b.ports[i].reads);
        EXPECT_EQ(a.ports[i].wireBytes, b.ports[i].wireBytes);
        EXPECT_DOUBLE_EQ(a.ports[i].avgReadNs, b.ports[i].avgReadNs);
    }
}

/** The four engine corners: {heap,calendar} x {pool off,on}. */
std::vector<SystemConfig>
engineCorners(SystemConfig base)
{
    std::vector<SystemConfig> corners;
    for (const char *queue : {"heap", "calendar"}) {
        for (const bool pool : {false, true}) {
            SystemConfig c = base;
            c.sim.eventQueue = queue;
            c.sim.packetPool = pool;
            corners.push_back(c);
        }
    }
    return corners;
}

/** The fig06 ingredient: a 9-port GUPS run on @p cfg. */
ExperimentResult
fig06Slice(const SystemConfig &cfg)
{
    GupsSpec spec;
    spec.requestBytes = 64;
    spec.numVaults = 16;
    spec.numBanks = 16;
    spec.warmup = 4 * kMicrosecond;
    spec.window = 10 * kMicrosecond;
    return runGups(cfg, spec);
}

/**
 * A 9-port 64 B GUPS run over the whole address space, with the
 * System held locally so the kernel's total event count comes back
 * alongside the stats.
 */
std::pair<ExperimentResult, std::uint64_t>
gupsSliceWithEvents(const SystemConfig &cfg)
{
    System sys(cfg);
    WorkloadSpec spec;
    spec.requestBytes = 64;
    for (PortId p = 0; p < 9; ++p)
        sys.configureWorkload(p, spec);
    sys.run(4 * kMicrosecond);
    ExperimentResult res = sys.measure(10 * kMicrosecond);
    return {std::move(res), sys.kernel().eventsExecuted()};
}

/** The fig08 ingredient: one batched stream into vault 0. */
ExperimentResult
fig08Slice(const SystemConfig &cfg)
{
    StreamBatchSpec spec;
    spec.batchSize = 64;
    spec.requestBytes = 32;
    spec.vault = 0;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    return runStreamBatch(cfg, spec);
}

TEST(EngineIdentity, Fig06IdenticalAcrossEngines)
{
    const ExperimentResult ref = fig06Slice(SystemConfig{});
    for (const SystemConfig &c : engineCorners(SystemConfig{}))
        expectIdentical(ref, fig06Slice(c));
}

TEST(EngineIdentity, Fig08IdenticalAcrossEngines)
{
    const ExperimentResult ref = fig08Slice(SystemConfig{});
    for (const SystemConfig &c : engineCorners(SystemConfig{}))
        expectIdentical(ref, fig08Slice(c));
}

TEST(EngineIdentity, ChainRingIdenticalAcrossEngines)
{
    // The chain figures exercise the richest event mix (inter-cube
    // links, ring response routing); heap vs calendar must agree
    // there too.
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    const auto ref = gupsSliceWithEvents(base);
    EXPECT_GT(ref.first.totalChainTransitFlits, 0u);
    for (const SystemConfig &c : engineCorners(base)) {
        const auto got = gupsSliceWithEvents(c);
        expectIdentical(ref.first, got.first);
        EXPECT_EQ(ref.second, got.second) << "event count diverged";
    }
}

TEST(EngineIdentity, ConfigRoundTripSelectsEngine)
{
    // The knobs flow through Config serialization like every other
    // subsystem's.
    Config cfg;
    SystemConfig{}.toConfig(cfg);
    cfg.parseString("[sim]\nevent_queue = heap\npacket_pool = 0\n");
    const SystemConfig parsed = SystemConfig::fromConfig(cfg);
    EXPECT_EQ(parsed.sim.eventQueue, "heap");
    EXPECT_FALSE(parsed.sim.packetPool);
    EXPECT_EQ(parsed.sim.queueKind(), EventQueueKind::Heap);

    System sys(parsed);
    EXPECT_EQ(sys.kernel().queue().kind(), EventQueueKind::Heap);

    SystemConfig def;
    EXPECT_EQ(def.sim.queueKind(), EventQueueKind::Calendar);
}

TEST(EngineIdentity, ConfigRoundTripKeepsEverySimKey)
{
    SystemConfig in;
    in.sim.eventQueue = "heap";
    in.sim.calendarBucketPs = 1024;
    in.sim.calendarBuckets = 256;
    in.sim.packetPool = false;
    Config cfg;
    in.toConfig(cfg);

    std::vector<std::string> simKeys;
    for (const std::string &k : cfg.keys()) {
        if (k.rfind("sim.", 0) == 0)
            simKeys.push_back(k);
    }
    EXPECT_EQ(simKeys,
              (std::vector<std::string>{"sim.calendar_bucket_ps",
                                        "sim.calendar_buckets",
                                        "sim.event_queue",
                                        "sim.packet_pool"}));

    const SimConfig out = SystemConfig::fromConfig(cfg).sim;
    EXPECT_EQ(out.eventQueue, "heap");
    EXPECT_EQ(out.calendarBucketPs, 1024u);
    EXPECT_EQ(out.calendarBuckets, 256u);
    EXPECT_FALSE(out.packetPool);
}

TEST(EngineIdentity, RemovedParallelKeysAreIgnored)
{
    // Configs written for older builds may still carry sim.parallel /
    // sim.threads.  Config does not reject unknown keys, so they parse
    // and run the one serial engine unchanged.
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    base.hmc.power.enabled = false;
    Config cfg;
    base.toConfig(cfg);
    cfg.parseString("[sim]\nparallel = on\nthreads = 4\n");
    const auto ref = gupsSliceWithEvents(base);
    const auto got = gupsSliceWithEvents(SystemConfig::fromConfig(cfg));
    expectIdentical(ref.first, got.first);
    EXPECT_EQ(ref.second, got.second);
}

}  // namespace
}  // namespace hmcsim
