/**
 * @file
 * Latency-anatomy tests: the phase decomposition must telescope
 * exactly to the end-to-end latency for every stamp pattern, the
 * collector must aggregate and attribute correctly, the congestion
 * recorder must window occupancy gauges, and turning the whole engine
 * on must never perturb simulated results.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "host/experiment.h"
#include "host/system.h"
#include "obs/anatomy.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {
namespace {

/** A fully stamped read response with strictly increasing stamps. */
HmcPacket
stampedResponse()
{
    HmcPacket p;
    p.cmd = HmcCmd::ReadResponse;
    p.dataBytes = 64;
    p.createdAt = 100;
    p.linkTxAt = 250;        // host_queue      = 150
    p.chainIngressAt = 300;  // link_serialize  = 50
    p.cubeArriveAt = 700;    // chain_fwd_req   = 400
    p.vaultArriveAt = 760;   // noc_request     = 60
    p.dramStartAt = 1000;    // vault_queue     = 240
    p.dataReadyAt = 1500;    // dram_service    = 500
    p.respInjectAt = 1530;   // resp_inject     = 30
    p.respHostLinkAt = 1900; // resp_return     = 370
    p.hostArriveAt = 2000;   // host_drain      = 100
    return p;
}

TEST(PhaseBreakdown, TelescopesExactly)
{
    const PhaseBreakdown b = PhaseBreakdown::fromPacket(stampedResponse());
    EXPECT_EQ(b.phase[0], 150u);
    EXPECT_EQ(b.phase[1], 50u);
    EXPECT_EQ(b.phase[2], 400u);
    EXPECT_EQ(b.phase[3], 60u);
    EXPECT_EQ(b.phase[4], 240u);
    EXPECT_EQ(b.phase[5], 500u);
    EXPECT_EQ(b.phase[6], 30u);
    EXPECT_EQ(b.phase[7], 370u);
    EXPECT_EQ(b.phase[8], 100u);
    EXPECT_EQ(b.endToEnd, 1900u);
    EXPECT_EQ(b.sum(), b.endToEnd);
    EXPECT_EQ(b.residual, 0u);
    EXPECT_TRUE(b.monotone);
    EXPECT_FALSE(b.write);
}

TEST(PhaseBreakdown, UnstampedPhasesFoldIntoTheNextOne)
{
    // A single-cube system never stamps the chain legs; a zero stamp
    // must yield a zero-length phase whose span folds forward, keeping
    // the telescoped sum exact.
    HmcPacket p = stampedResponse();
    p.chainIngressAt = 0;  // link_serialize absorbs into chain_fwd_req
    p.dramStartAt = 0;     // vault_queue absorbs into dram_service
    const PhaseBreakdown b = PhaseBreakdown::fromPacket(p);
    EXPECT_EQ(b.phase[1], 0u);
    EXPECT_EQ(b.phase[2], 450u);  // 700 - 250
    EXPECT_EQ(b.phase[4], 0u);
    EXPECT_EQ(b.phase[5], 740u);  // 1500 - 760
    EXPECT_EQ(b.sum(), b.endToEnd);
    EXPECT_EQ(b.residual, 0u);
    EXPECT_TRUE(b.monotone);
}

TEST(PhaseBreakdown, AllChainStampsZeroStillTelescopes)
{
    HmcPacket p;
    p.cmd = HmcCmd::WriteResponse;
    p.createdAt = 10;
    p.hostArriveAt = 510;
    const PhaseBreakdown b = PhaseBreakdown::fromPacket(p);
    EXPECT_EQ(b.endToEnd, 500u);
    EXPECT_EQ(b.sum(), 500u);  // everything folded into host_drain
    EXPECT_EQ(b.phase[8], 500u);
    EXPECT_EQ(b.residual, 0u);
    EXPECT_TRUE(b.write);
}

TEST(PhaseBreakdown, BackwardStampClampsAndFlagsNonMonotone)
{
    HmcPacket p = stampedResponse();
    p.vaultArriveAt = 500;  // before cubeArriveAt (700): runs backwards
    const PhaseBreakdown b = PhaseBreakdown::fromPacket(p);
    EXPECT_FALSE(b.monotone);
    EXPECT_EQ(b.phase[3], 0u);    // clamped noc_request
    EXPECT_EQ(b.phase[4], 300u);  // vault_queue measured from prev=700
    EXPECT_EQ(b.sum(), b.endToEnd);
    EXPECT_EQ(b.residual, 0u);
}

TEST(AnatomyCollector, AggregatesAndRegistersMetrics)
{
    MetricsRegistry reg;
    ObsConfig cfg;
    cfg.anatomy = true;
    {
        AnatomyCollector col(cfg, &reg);
        HmcPacket p = stampedResponse();
        p.host = 1;
        p.cube = 2;
        p.vault = 3;
        col.onComplete(p);
        col.onComplete(p);

        EXPECT_EQ(col.completions(), 2u);
        EXPECT_EQ(col.monotonicityViolations(), 0u);
        EXPECT_EQ(col.residualViolations(), 0u);
        EXPECT_EQ(col.phaseHist(AnatomyPhase::DramService, false).total(),
                  2u);
        EXPECT_EQ(col.phaseHist(AnatomyPhase::DramService, true).total(),
                  0u);
        EXPECT_DOUBLE_EQ(
            col.phaseStats(AnatomyPhase::ChainFwdReq).mean(),
            ticksToNs(400));

        // The registry saw the shared histograms and the lazily grown
        // per-(host, cube, vault, rw) breakdown cell.
        const std::vector<std::string> paths = reg.paths();
        const auto has = [&paths](const std::string &want) {
            for (const std::string &q : paths)
                if (q == want)
                    return true;
            return false;
        };
        EXPECT_TRUE(has("obs.anatomy.read.dram_service_ns"));
        EXPECT_TRUE(has("obs.anatomy.completions"));
        EXPECT_TRUE(has(
            "obs.anatomy.by_key.host1.cube2.vault3.read.host_queue_ns"));
        ASSERT_EQ(col.breakdown().size(), 1u);

        // Waterfall: nine rows, shares sum to 100%.
        const std::vector<AnatomyWaterfallRow> rows = col.waterfall();
        ASSERT_EQ(rows.size(), kNumAnatomyPhases);
        double share = 0.0;
        for (const AnatomyWaterfallRow &r : rows) {
            EXPECT_EQ(r.count, 2u);
            share += r.shareMeanPct;
        }
        EXPECT_NEAR(share, 100.0, 1e-9);

        const BottleneckVerdict v = col.verdict();
        EXPECT_EQ(v.dominantMeanPhase, "dram_service");
        EXPECT_EQ(v.completions, 2u);
        EXPECT_FALSE(v.summary.empty());

        col.reset();
        EXPECT_EQ(col.completions(), 0u);
        EXPECT_EQ(col.phaseHist(AnatomyPhase::DramService, false).total(),
                  0u);
    }
    // Destruction must unregister the lazily added by_key samplers.
    for (const std::string &p : reg.paths())
        EXPECT_EQ(p.find("obs.anatomy"), std::string::npos) << p;
}

TEST(AnatomyCollector, ChainFloorSplitsQueueingFromService)
{
    MetricsRegistry reg;
    ObsConfig cfg;
    cfg.anatomy = true;
    AnatomyCollector col(cfg, &reg);
    // Floor: 2 hops x (100 + flits x 10) ticks; a 64 B read response
    // over a 4-flit... the *request* flit count is what the response
    // reports via flits() -- just make the measured phase exceed it.
    col.setChainHopFloor(100, 10);
    HmcPacket p = stampedResponse();
    p.reqHops = 2;
    col.onComplete(p);
    const BottleneckVerdict v = col.verdict();
    // measured chain_fwd_req = 400 ticks; floor = 2*(100 + flits*10).
    const Tick floor = 2 * (100 + p.flits() * 10);
    EXPECT_DOUBLE_EQ(v.chainFwdFloorNs,
                     ticksToNs(std::min<Tick>(400, floor)));
    EXPECT_DOUBLE_EQ(v.chainFwdExcessNs,
                     ticksToNs(400 - std::min<Tick>(400, floor)));
    EXPECT_GT(v.queueingSharePct, 0.0);
    EXPECT_NEAR(v.queueingSharePct + v.serviceSharePct, 100.0, 1e-9);
}

TEST(AnatomyCollector, EmptyVerdictIsWellFormed)
{
    MetricsRegistry reg;
    ObsConfig cfg;
    cfg.anatomy = true;
    AnatomyCollector col(cfg, &reg);
    const BottleneckVerdict v = col.verdict();
    EXPECT_EQ(v.completions, 0u);
    EXPECT_EQ(v.summary, "no completed transactions observed");
}

TEST(CongestionRecorder, ClassifiesOccupancyPaths)
{
    EXPECT_TRUE(CongestionRecorder::isOccupancyPath(
        "cube0.link1.up_tokens_in_use"));
    EXPECT_TRUE(CongestionRecorder::isOccupancyPath(
        "cube0.switch.fwd_q_flits_now"));
    EXPECT_FALSE(CongestionRecorder::isOccupancyPath(
        "cube0.vault3.requests_served"));
    EXPECT_FALSE(CongestionRecorder::isOccupancyPath(
        "obs.anatomy.completions"));
    EXPECT_FALSE(
        CongestionRecorder::isOccupancyPath("host0.port1.reads"));
}

TEST(CongestionRecorder, WindowsGaugesIntoSeries)
{
    Kernel kernel;
    MetricsRegistry reg;
    double depth = 0.0;
    reg.addGauge("sw.fwd_q_flits_now", [&depth] { return depth; },
                 nullptr);
    CongestionRecorder rec(kernel, reg, 100);
    rec.start();
    // The gauge ramps over time; each 100-tick window reads it once.
    kernel.scheduleIn(150, [&depth] { depth = 5.0; });
    kernel.scheduleIn(250, [&depth] { depth = 9.0; });
    kernel.run(1000);

    EXPECT_EQ(rec.windows(), 10u);
    ASSERT_EQ(rec.paths().size(), 1u);
    EXPECT_EQ(rec.paths()[0], "sw.fwd_q_flits_now");
    EXPECT_FALSE(rec.truncated());

    const std::string csv = rec.toCsv();
    EXPECT_NE(csv.find("component,"), std::string::npos);
    EXPECT_NE(csv.find("sw.fwd_q_flits_now,0,"), std::string::npos);
    EXPECT_NE(csv.find(",9"), std::string::npos);

    const Heatmap hm = rec.toHeatmap();
    EXPECT_EQ(hm.rows(), 1u);
    EXPECT_EQ(hm.cols(), 10u);

    std::ostringstream os;
    bool first = true;
    rec.emitCounterTracks(os, first);
    EXPECT_FALSE(first);
    EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(os.str().find("\"occupancy\":9"), std::string::npos);
    EXPECT_NE(os.str().find("\"name\":\"congestion\""),
              std::string::npos);
}

TEST(CongestionRecorder, StopsAtWindowCap)
{
    Kernel kernel;
    MetricsRegistry reg;
    reg.addGauge("q_now", [] { return 1.0; }, nullptr);
    CongestionRecorder rec(kernel, reg, 10, 3);
    rec.start();
    kernel.run(1000);
    EXPECT_EQ(rec.windows(), 3u);
    EXPECT_TRUE(rec.truncated());
}

TEST(CongestionRecorder, ReadsOnlyOccupancyGauges)
{
    Kernel kernel;
    MetricsRegistry reg;
    int occupancyCalls = 0;
    int counterCalls = 0;
    reg.addGauge("x.port0.outstanding_now", [&occupancyCalls] {
        ++occupancyCalls;
        return 2.0;
    });
    reg.addGauge("x.port0.reads", [&counterCalls] {
        ++counterCalls;
        return 1.0;
    });
    CongestionRecorder rec(kernel, reg, 100);
    rec.start();
    kernel.run(1000);

    ASSERT_EQ(rec.windows(), 10u);
    EXPECT_EQ(occupancyCalls, 10);
    EXPECT_EQ(counterCalls, 0);
}

TEST(CongestionRecorder, ReadsReplacedGaugeAfterReRegistration)
{
    Kernel kernel;
    MetricsRegistry reg;
    int oldOwner = 0, newOwner = 0;
    reg.addGauge("x.port0.outstanding_now", [] { return 1.0; },
                 &oldOwner);
    CongestionRecorder rec(kernel, reg, 100);
    rec.start();
    // A new owner re-registers the gauge at the same path before the
    // old one unregisters (which the owner token then ignores).
    kernel.scheduleIn(150, [&] {
        reg.addGauge("x.port0.outstanding_now", [] { return 7.0; },
                     &newOwner);
        reg.removeOwned("x.port0.outstanding_now", &oldOwner);
    });
    kernel.run(400);

    ASSERT_EQ(rec.windows(), 4u);
    ASSERT_EQ(rec.paths().size(), 1u);
    EXPECT_EQ(rec.toCsv(),
              "component,0,0.1,0.2,0.3\n"
              "x.port0.outstanding_now,1,7,7,7\n");
}

TEST(CongestionRecorder, FreezesEmptyColumnSetAtFirstWindow)
{
    Kernel kernel;
    MetricsRegistry reg;
    CongestionRecorder rec(kernel, reg, 100);
    rec.start();
    // A gauge that registers after the first window is not sampled:
    // the column set froze (empty) then, and every row keeps the
    // header's width.
    kernel.scheduleIn(150, [&reg] {
        reg.addGauge("late.q_now", [] { return 4.0; });
    });
    kernel.run(300);

    EXPECT_EQ(rec.windows(), 3u);
    EXPECT_TRUE(rec.paths().empty());
    const std::string csv = rec.toCsv();
    std::istringstream lines(csv);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header, "component,0,0.1,0.2");  // window starts in ns
    const auto width = [](const std::string &row) {
        return std::count(row.begin(), row.end(), ',');
    };
    for (std::string row; std::getline(lines, row);)
        EXPECT_EQ(width(row), width(header)) << row;
}

/** The standard 4-port GUPS scenario from the obs system tests. */
ExperimentResult
gupsScenario(SystemConfig cfg, System **out = nullptr,
             std::unique_ptr<System> *keep = nullptr)
{
    addWorkloadPorts(cfg, 4, WorkloadSpec{}, 0xabc);
    auto sys = std::make_unique<System>(cfg);
    sys->run(2 * kMicrosecond);
    const ExperimentResult r = sys->measure(5 * kMicrosecond);
    if (out)
        *out = sys.get();
    if (keep)
        *keep = std::move(sys);
    return r;
}

TEST(AnatomySystem, IsObservationOnly)
{
    // Same seeds, anatomy off vs on: every simulated result must be
    // bit-identical -- the engine only reads timestamps and gauges.
    const ExperimentResult off = gupsScenario(SystemConfig{});

    SystemConfig cfg;
    cfg.obs.anatomy = true;
    const ExperimentResult on = gupsScenario(cfg);

    EXPECT_EQ(on.totalReads, off.totalReads);
    EXPECT_EQ(on.totalWrites, off.totalWrites);
    EXPECT_EQ(on.totalWireBytes, off.totalWireBytes);
    EXPECT_EQ(on.avgReadLatencyNs, off.avgReadLatencyNs);
    EXPECT_EQ(on.maxReadLatencyNs, off.maxReadLatencyNs);
    EXPECT_EQ(on.bandwidthGBs, off.bandwidthGBs);
}

TEST(AnatomySystem, CollectsEveryCompletionWithZeroResidual)
{
    SystemConfig cfg;
    cfg.obs.anatomy = true;
    std::unique_ptr<System> sys;
    const ExperimentResult r = gupsScenario(cfg, nullptr, &sys);

    const AnatomyCollector *a = sys->obs()->anatomy();
    ASSERT_NE(a, nullptr);
    // Completions accumulate over warmup + window.
    EXPECT_GE(a->completions(), r.totalReads);
    EXPECT_GT(a->completions(), 0u);
    EXPECT_EQ(a->monotonicityViolations(), 0u);
    EXPECT_EQ(a->residualViolations(), 0u);
    EXPECT_EQ(a->maxResidualNs(), 0.0);

    // Single-cube: the chain phases never fire.
    EXPECT_DOUBLE_EQ(a->phaseStats(AnatomyPhase::ChainFwdReq).mean(),
                     0.0);
    EXPECT_GT(a->phaseStats(AnatomyPhase::DramService).mean(), 0.0);

    const BottleneckVerdict v = a->verdict();
    EXPECT_FALSE(v.dominantMeanPhase.empty());
    EXPECT_FALSE(v.summary.empty());
}

TEST(AnatomySystem, SamplerStartAlsoWindowsCongestion)
{
    const std::string csv =
        ::testing::TempDir() + "anatomy_sampler_timeseries.csv";
    SystemConfig cfg;
    cfg.obs.anatomy = true;
    cfg.obs.sampleIntervalNs = 500;
    cfg.obs.sampleCsvPath = csv;
    std::unique_ptr<System> sys;
    gupsScenario(cfg, nullptr, &sys);

    const CongestionRecorder *c = sys->obs()->congestion();
    ASSERT_NE(c, nullptr);
    EXPECT_GT(c->windows(), 0u);
    EXPECT_FALSE(c->paths().empty());
    for (const std::string &p : c->paths())
        EXPECT_TRUE(CongestionRecorder::isOccupancyPath(p)) << p;

    // The merged trace document carries the counter tracks even with
    // no packet tracer: the congestion surface stands alone.
    std::ostringstream os;
    bool first = true;
    c->emitCounterTracks(os, first);
    EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
    sys.reset();
    EXPECT_EQ(std::remove(csv.c_str()), 0);
}

}  // namespace
}  // namespace hmcsim
