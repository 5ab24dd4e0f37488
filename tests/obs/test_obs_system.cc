/**
 * @file
 * System-level observability tests: enabling obs features must
 * observe, never perturb -- simulated results stay identical to the
 * obs-off run -- and the data the layer produces must be complete and
 * deterministic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "host/experiment.h"
#include "host/system.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {
namespace {

/** Build the standard 4-port GUPS scenario on @p cfg. */
std::unique_ptr<System>
makeScenario(const SystemConfig &cfg)
{
    auto sys = std::make_unique<System>(cfg);
    for (PortId p = 0; p < 4; ++p) {
        GupsPortSpec gp;
        gp.gen.pattern = sys->addressMap().pattern(16, 16);
        gp.gen.requestBytes = 32;
        gp.gen.seed = 0xabc + p;
        sys->configureGupsPort(p, gp);
    }
    return sys;
}

/** Warm up and measure the standard scenario. */
ExperimentResult
runScenario(System &sys)
{
    sys.run(2 * kMicrosecond);
    return sys.measure(5 * kMicrosecond);
}

ExperimentResult
runScenario(const SystemConfig &cfg)
{
    auto sys = makeScenario(cfg);
    return runScenario(*sys);
}

TEST(ObsSystem, DisabledByDefaultAndFreeOfCharge)
{
    SystemConfig cfg;
    EXPECT_FALSE(cfg.obs.anyEnabled());
    System sys(cfg);
    EXPECT_EQ(sys.obs(), nullptr);
    EXPECT_EQ(sys.kernel().obs(), nullptr);
}

TEST(ObsSystem, MetricsAreObservationOnly)
{
    // Same seeds, metrics off vs on: every simulated result must be
    // bit-identical -- the registry only reads existing stats.
    const ExperimentResult off = runScenario(SystemConfig{});

    SystemConfig cfg;
    cfg.obs.metrics = true;
    const ExperimentResult on = runScenario(cfg);

    EXPECT_EQ(on.totalReads, off.totalReads);
    EXPECT_EQ(on.totalWrites, off.totalWrites);
    EXPECT_EQ(on.totalWireBytes, off.totalWireBytes);
    EXPECT_EQ(on.avgReadLatencyNs, off.avgReadLatencyNs);
    EXPECT_EQ(on.maxReadLatencyNs, off.maxReadLatencyNs);
    EXPECT_EQ(on.bandwidthGBs, off.bandwidthGBs);
}

TEST(ObsSystem, FullTraceIsObservationOnly)
{
    const ExperimentResult off = runScenario(SystemConfig{});

    SystemConfig cfg;
    cfg.obs.trace = "full";
    const ExperimentResult on = runScenario(cfg);

    EXPECT_EQ(on.totalReads, off.totalReads);
    EXPECT_EQ(on.avgReadLatencyNs, off.avgReadLatencyNs);
    EXPECT_EQ(on.bandwidthGBs, off.bandwidthGBs);
}

TEST(ObsSystem, RegistryMatchesExperimentTotals)
{
    SystemConfig cfg;
    cfg.obs.metrics = true;
    auto sys = makeScenario(cfg);
    const ExperimentResult r = runScenario(*sys);
    ASSERT_NE(sys->obs(), nullptr);

    const MetricsSnapshot snap = sys->obs()->registry().snapshot();
    ASSERT_FALSE(snap.empty());

    // Port read counters sum to the experiment's total; vault service
    // counters account for every request.
    double reads = 0.0, served = 0.0;
    bool sawLatencySampler = false;
    for (const auto &[path, pt] : snap.points()) {
        if (path.find("port") != std::string::npos &&
            path.size() > 6 &&
            path.compare(path.size() - 6, 6, ".reads") == 0)
            reads += pt.value;
        if (path.find("requests_served") != std::string::npos)
            served += pt.value;
        if (path.find("read_latency_ns") != std::string::npos &&
            pt.sample.count() > 0)
            sawLatencySampler = true;
    }
    // Counters are cumulative (warmup + window); the experiment result
    // is the measurement window only, so >= is the right bound.
    EXPECT_GE(reads, static_cast<double>(r.totalReads));
    EXPECT_GT(r.totalReads, 0u);
    EXPECT_GE(served, static_cast<double>(r.totalReads));
    EXPECT_TRUE(sawLatencySampler);
}

/**
 * Flatten a tracer's buffer into a comparable string.  Packet ids are
 * renamed to dense first-appearance indices: the global id allocator
 * keeps counting across Systems in one process, so raw ids shift
 * between runs even though the event sequence is identical.
 */
std::string
traceFingerprint(const PacketTracer &tr)
{
    std::map<PacketId, std::size_t> dense;
    std::ostringstream oss;
    for (const TraceEvent &ev : tr.events()) {
        const auto [it, _] = dense.emplace(ev.packet, dense.size());
        oss << ev.tick << ":" << it->second << ":"
            << static_cast<int>(ev.stage) << ":" << ev.cube << ":"
            << ev.where << "\n";
    }
    return oss.str();
}

TEST(ObsSystem, FullTraceIsDeterministicAcrossRuns)
{
    const auto capture = [] {
        SystemConfig cfg;
        cfg.obs.trace = "full";
        cfg.obs.traceBufferEvents = 1 << 12;
        auto sys = makeScenario(cfg);
        runScenario(*sys);
        return traceFingerprint(*sys->obs()->tracer());
    };
    const std::string first = capture();
    const std::string second = capture();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(ObsSystem, FullTraceCoversCompleteLifecycles)
{
    SystemConfig cfg;
    cfg.obs.trace = "full";
    cfg.obs.traceBufferEvents = 1 << 14;
    auto sys = makeScenario(cfg);
    runScenario(*sys);

    // Group events per packet; a packet whose Inject survived in the
    // ring must walk Inject -> ... -> Eject in non-decreasing time.
    std::map<PacketId, std::vector<TraceEvent>> perPacket;
    for (const TraceEvent &ev : sys->obs()->tracer()->events())
        perPacket[ev.packet].push_back(ev);
    ASSERT_FALSE(perPacket.empty());

    std::size_t complete = 0;
    for (const auto &[id, evs] : perPacket) {
        for (std::size_t i = 1; i < evs.size(); ++i)
            EXPECT_LE(evs[i - 1].tick, evs[i].tick) << "packet " << id;
        if (evs.front().stage == TraceStage::Inject &&
            evs.back().stage == TraceStage::Eject) {
            ++complete;
            // A complete read lifecycle passes through the vault.
            bool sawVault = false, sawDram = false;
            for (const TraceEvent &ev : evs) {
                sawVault |= ev.stage == TraceStage::VaultEnqueue;
                sawDram |= ev.stage == TraceStage::DramDone;
            }
            EXPECT_TRUE(sawVault) << "packet " << id;
            EXPECT_TRUE(sawDram) << "packet " << id;
        }
    }
    EXPECT_GT(complete, 0u);
}

TEST(ObsSystem, SummaryTraceRecordsLifecyclesFromCompletionPath)
{
    SystemConfig cfg;
    cfg.obs.trace = "summary";
    cfg.obs.traceSampleEvery = 8;
    auto sys = makeScenario(cfg);
    runScenario(*sys);

    const std::vector<TraceEvent> evs =
        sys->obs()->tracer()->events();
    ASSERT_FALSE(evs.empty());
    for (const TraceEvent &ev : evs)
        EXPECT_EQ(ev.packet % 8, 0u);
}

TEST(ObsSystem, ChromeJsonDumpFromLiveSystem)
{
    SystemConfig cfg;
    cfg.obs.trace = "full";
    auto sys = makeScenario(cfg);
    runScenario(*sys);

    std::ostringstream oss;
    sys->obs()->tracer()->dumpChromeJson(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ObsSystem, SamplerWritesTimeSeriesCsv)
{
    const std::string path = "obs_test_timeseries.csv";
    std::remove(path.c_str());
    {
        SystemConfig cfg;
        cfg.obs.sampleIntervalNs = 500;
        cfg.obs.sampleCsvPath = path;
        auto sys = makeScenario(cfg);
        const ExperimentResult r = runScenario(*sys);
        EXPECT_GT(r.totalReads, 0u);
        ASSERT_NE(sys->obs()->sampler(), nullptr);
        EXPECT_GT(sys->obs()->sampler()->rowsWritten(), 0u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("time_ns"), std::string::npos);
    std::string row;
    std::getline(in, row);
    EXPECT_FALSE(row.empty());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hmcsim
