/**
 * @file
 * System-level observability tests: enabling obs features must
 * observe, never perturb -- simulated results stay identical to the
 * obs-off run -- and the data the layer produces must be complete and
 * deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/strutil.h"
#include "host/experiment.h"
#include "host/system.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {
namespace {

/** Build the standard 4-port GUPS scenario on @p cfg. */
std::unique_ptr<System>
makeScenario(SystemConfig cfg)
{
    addWorkloadPorts(cfg, 4, WorkloadSpec{}, 0xabc);
    return std::make_unique<System>(cfg);
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
    const std::string path =
        ::testing::TempDir() + "obs_test_timeseries.csv";
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

/** Default config plus @p overrides ("key=value"). */
SystemConfig
configWith(const std::vector<std::string> &overrides)
{
    Config raw;
    SystemConfig{}.toConfig(raw);
    raw.applyOverrides(overrides);
    return SystemConfig::fromConfig(raw);
}

/** Data rows of the time-series CSV at @p path; fails on a negative
 *  cell or a ragged row. */
std::size_t
rowsWithoutNegativeCells(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::getline(in, line);
    const std::vector<std::string> header = split(line, ',');
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        const std::vector<std::string> cells = split(line, ',');
        EXPECT_EQ(cells.size(), header.size());
        for (std::size_t i = 0; i < std::min(cells.size(), header.size());
             ++i)
            EXPECT_NE(cells[i].front(), '-')
                << header[i] << " at t=" << cells[0] << " ns";
    }
    return rows;
}

TEST(ObsSystem, SamplerRowSpanningAStatsResetIsNeverNegative)
{
    // measure() resets the stats between two sampler fires; the row at
    // t = 4000 ns must report counts since the reset, not the reset
    // counters minus the pre-reset snapshot.
    const std::string path =
        ::testing::TempDir() + "obs_test_reset_timeseries.csv";
    std::remove(path.c_str());
    {
        System sys(configWith(
            {"host.workload=gups", "host.workload_ports=9",
             "obs.sample_interval_ns=1000", "obs.sample_csv=" + path}));
        sys.run(3500 * kNanosecond);
        sys.measure(2 * kMicrosecond);
        EXPECT_EQ(sys.obs()->sampler()->rowsWritten(), 5u);
    }
    EXPECT_EQ(rowsWithoutNegativeCells(path), 5u);
    std::remove(path.c_str());
}

TEST(ObsSystem, SamplerRowSpanningAPortReplacementIsNeverNegative)
{
    // Port 0 is drained and replaced between the fires at 3000 and
    // 4000 ns; the replacement's stats start from zero, so the row at
    // t = 4000 ns must count from the replacement, not subtract the
    // old port's totals.
    const std::string path =
        ::testing::TempDir() + "obs_test_replace_timeseries.csv";
    std::remove(path.c_str());
    {
        System sys(configWith(
            {"host.workload=gups", "host.workload_ports=1",
             "obs.sample_interval_ns=1000", "obs.sample_csv=" + path}));
        sys.run(2 * kMicrosecond);
        sys.port(0).setActive(false);
        sys.run(1500 * kNanosecond);
        ASSERT_TRUE(sys.port(0).idle());
        sys.configureWorkload(0, WorkloadSpec{});
        sys.run(2500 * kNanosecond);
        EXPECT_EQ(sys.obs()->sampler()->rowsWritten(), 6u);
    }
    EXPECT_EQ(rowsWithoutNegativeCells(path), 6u);
    std::remove(path.c_str());
}

TEST(ObsSystem, StatsAndRegistryAreOneTree)
{
    const std::vector<std::vector<std::string>> configs = {
        {},
        {"hmc.num_cubes=8", "hmc.chain_topology=ring"},
        {"hmc.num_cubes=4", "hmc.chain_topology=ring", "host.num_hosts=2"},
    };
    for (std::vector<std::string> overrides : configs) {
        overrides.insert(overrides.end(), {"obs.metrics=1",
                                           "host.workload=gups",
                                           "host.workload_ports=9"});
        System sys(configWith(overrides));
        // A port replaced after the tree was bound binds in its place.
        sys.configureWorkload(0, WorkloadSpec{});
        sys.run(2 * kMicrosecond);
        const MetricsRegistry &reg = sys.obs()->registry();

        // System::stats() holds exactly the registry's component
        // paths, each with the registry's scalar.
        const std::map<std::string, double> stats = sys.stats();
        std::vector<std::string> paths;
        for (const std::string &p : reg.paths())
            if (p.rfind("obs.", 0) != 0)
                paths.push_back(p);
        std::vector<std::string> keys;
        for (const auto &[key, value] : stats) {
            keys.push_back(key);
            EXPECT_EQ(value, reg.value(key)) << key;
        }
        EXPECT_EQ(keys, paths);

        // The reset walks the same list: every counter, sampler and
        // histogram reads zero afterwards.
        std::size_t busy = 0;
        const MetricsSnapshot before = reg.snapshot();
        for (const auto &[path, pt] : before.points())
            busy += pt.kind == MetricKind::Counter && pt.value > 0.0;
        EXPECT_GT(busy, 0u);
        sys.resetStats();
        const MetricsSnapshot after = reg.snapshot();
        for (const auto &[path, pt] : after.points()) {
            switch (pt.kind) {
              case MetricKind::Counter:
                EXPECT_EQ(pt.value, 0.0) << path;
                break;
              case MetricKind::Sampler:
                EXPECT_EQ(pt.sample.count(), 0u) << path;
                EXPECT_EQ(pt.value, 0.0) << path;
                break;
              case MetricKind::Histogram:
                EXPECT_EQ(pt.value, 0.0) << path;
                for (const std::uint64_t n : pt.bins)
                    EXPECT_EQ(n, 0u) << path;
                break;
              case MetricKind::Gauge:
                break;
            }
        }
    }
}

}  // namespace
}  // namespace hmcsim
