/**
 * @file
 * Bit-identity guarantees of the calendar event queue across its
 * geometry: the sim.calendar_* knobs are pure engine tuning, so the
 * experiments behind the fig06 (9-port GUPS latency/bandwidth), fig08
 * (stream saturation) and chain-figure CSVs must produce identical
 * results -- same counts, identical latency statistics -- at the
 * default ring, at a tiny ring that forces wrap-around and far-future
 * migration, and at a two-bucket ring of wide buckets.  The chain
 * slice also pins the kernel's total event count, and the config
 * tests pin the `sim.*` surface: exactly two knobs, each
 * round-tripping through Config.
 */

#include <gtest/gtest.h>

#include <cstdint>
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

/**
 * Calendar geometries (bucket ps x buckets): the default 512 x 4096;
 * 64 x 256, a 16 ns ring that wraps constantly and sends most link and
 * DRAM delays through the far-future heap; and 4096 x 2, two wide
 * buckets holding many events each.
 */
std::vector<SystemConfig>
geometrySweep(SystemConfig base)
{
    std::vector<SystemConfig> sweep;
    for (const auto &[width, buckets] :
         {std::pair<std::uint64_t, std::uint64_t>{512, 4096},
          {64, 256},
          {4096, 2}}) {
        SystemConfig c = base;
        c.sim.calendarBucketPs = width;
        c.sim.calendarBuckets = buckets;
        sweep.push_back(c);
    }
    return sweep;
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

TEST(EngineIdentity, Fig06IdenticalAcrossGeometries)
{
    const ExperimentResult ref = fig06Slice(SystemConfig{});
    for (const SystemConfig &c : geometrySweep(SystemConfig{}))
        expectIdentical(ref, fig06Slice(c));
}

TEST(EngineIdentity, Fig08IdenticalAcrossGeometries)
{
    const ExperimentResult ref = fig08Slice(SystemConfig{});
    for (const SystemConfig &c : geometrySweep(SystemConfig{}))
        expectIdentical(ref, fig08Slice(c));
}

TEST(EngineIdentity, ChainRingIdenticalAcrossGeometries)
{
    // The chain figures exercise the richest event mix (inter-cube
    // links, ring response routing); every geometry must agree there
    // too, down to the total number of events executed.
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    const auto ref = gupsSliceWithEvents(base);
    EXPECT_GT(ref.first.totalChainTransitFlits, 0u);
    for (const SystemConfig &c : geometrySweep(base)) {
        const auto got = gupsSliceWithEvents(c);
        expectIdentical(ref.first, got.first);
        EXPECT_EQ(ref.second, got.second) << "event count diverged";
    }
}

TEST(EngineIdentity, ConfigRoundTripKeepsEverySimKey)
{
    SystemConfig in;
    in.sim.calendarBucketPs = 1024;
    in.sim.calendarBuckets = 256;
    Config cfg;
    in.toConfig(cfg);

    std::vector<std::string> simKeys;
    for (const std::string &k : cfg.keys()) {
        if (k.rfind("sim.", 0) == 0)
            simKeys.push_back(k);
    }
    EXPECT_EQ(simKeys,
              (std::vector<std::string>{"sim.calendar_bucket_ps",
                                        "sim.calendar_buckets"}));

    const SimConfig out = SystemConfig::fromConfig(cfg).sim;
    EXPECT_EQ(out.calendarBucketPs, 1024u);
    EXPECT_EQ(out.calendarBuckets, 256u);
}

TEST(EngineIdentity, RemovedParallelKeysAreIgnored)
{
    // Configs written for older builds may still carry sim.parallel /
    // sim.threads, the removed engine selectors sim.event_queue /
    // sim.packet_pool, or the removed self-profiler switch `profile`
    // in [obs].  Config does not reject unknown keys, so they parse
    // and run the one engine unchanged.
    SystemConfig base;
    base.hmc.chain.numCubes = 4;
    base.hmc.chain.topology = "ring";
    base.hmc.power.enabled = false;
    const auto ref = gupsSliceWithEvents(base);
    for (const char *removed :
         {"[sim]\nparallel = on\nthreads = 4\n",
          "[sim]\nevent_queue = heap\npacket_pool = 0\n",
          "[obs]\nprofile = 1\n"}) {
        Config cfg;
        base.toConfig(cfg);
        cfg.parseString(removed);
        const auto got = gupsSliceWithEvents(SystemConfig::fromConfig(cfg));
        expectIdentical(ref.first, got.first);
        EXPECT_EQ(ref.second, got.second) << removed;
    }

    // The profile key used to switch the observability layer on by
    // itself; now it enables nothing.
    Config cfg;
    base.toConfig(cfg);
    cfg.parseString("[obs]\nprofile = 1\n");
    const System sys(SystemConfig::fromConfig(cfg));
    EXPECT_EQ(sys.obs(), nullptr);
}

}  // namespace
}  // namespace hmcsim
