/**
 * @file
 * Benchmark-local tests: the statistics helpers (median, quartiles,
 * the >=10-samples-beyond tail rule, digest stability) and the
 * workload correctness checks, including the guard that rejects
 * traffic which never leaves cube 0 of a chain.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "host/system.h"
#include "stats.h"
#include "workloads.h"

using namespace hmcsim;
using namespace perfbench;

namespace {

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected values from Python's statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    const Quartiles a = quartiles({3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0});
    EXPECT_DOUBLE_EQ(a.q1, 1.625);
    EXPECT_DOUBLE_EQ(a.q2, 3.5);
    EXPECT_DOUBLE_EQ(a.q3, 5.75);

    const Quartiles b = quartiles({10.0, 20.0});
    EXPECT_DOUBLE_EQ(b.q1, 7.5);
    EXPECT_DOUBLE_EQ(b.q2, 15.0);
    EXPECT_DOUBLE_EQ(b.q3, 22.5);

    const Quartiles c = quartiles({7.0, 1.0, 3.0});
    EXPECT_DOUBLE_EQ(c.q1, 1.0);
    EXPECT_DOUBLE_EQ(c.q2, 3.0);
    EXPECT_DOUBLE_EQ(c.q3, 7.0);

    const Quartiles one = quartiles({5.0});
    EXPECT_DOUBLE_EQ(one.q1, 5.0);
    EXPECT_DOUBLE_EQ(one.q3, 5.0);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(tailPercentile(0), 0.0);
    EXPECT_DOUBLE_EQ(tailPercentile(19), 0.0);
    EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(99), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(999), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(10000), 99.9);
    EXPECT_DOUBLE_EQ(tailPercentile(100000), 99.99);
    EXPECT_DOUBLE_EQ(tailPercentile(5000000), 99.999);
}

TEST(Stats, DigestIsStable)
{
    // Golden values: FNV-1a 64 over "key=%.17g\n" lines in key order,
    // computed independently; a change here breaks every stored result.
    EXPECT_EQ(digest({}), "cbf29ce484222325");
    const std::map<std::string, double> m = {
        {"system.x", 0.1}, {"a.b", 1.0}, {"z", -2.5e-7}};
    EXPECT_EQ(digest(m), "6ea462c6d0a68dfa");

    std::map<std::string, double> reordered;
    reordered["z"] = -2.5e-7;
    reordered["a.b"] = 1.0;
    reordered["system.x"] = 0.1;
    EXPECT_EQ(digest(reordered), digest(m));

    std::map<std::string, double> nudged = m;
    nudged["system.x"] = std::nextafter(0.1, 1.0);
    EXPECT_NE(digest(nudged), digest(m));
}

/** One short measured window of @p w's config, as the benchmark runs
 *  it (shortened so the test stays fast). */
struct Window {
    ExperimentResult result;
    std::string digest;
    std::string failure;
};

Window
runShort(const Workload &w, std::uint64_t seed, Tick window)
{
    System sys(SystemConfig::fromConfig(w.config(seed)));
    enableLatencyHistograms(sys);
    sys.run(w.warmup);
    const std::uint64_t ev0 = sys.kernel().eventsExecuted();
    Window out;
    out.result = sys.measure(window);
    out.digest = digest(simulatedStats(sys.stats(), sys, out.result,
                                       sys.kernel().eventsExecuted() - ev0));
    out.failure = checkWindow(sys, out.result);
    return out;
}

TEST(Workloads, EveryWorkloadPassesItsCheckAndRepeatsItsDigest)
{
    for (const Workload &w : allWorkloads()) {
        const Window a = runShort(w, 1, 10 * kMicrosecond);
        const Window b = runShort(w, 1, 10 * kMicrosecond);
        const Window c = runShort(w, 2, 10 * kMicrosecond);
        EXPECT_EQ(a.failure, "") << w.name;
        EXPECT_EQ(a.digest, b.digest) << w.name;
        EXPECT_NE(a.digest, c.digest) << w.name << ": seed ignored";
    }
}

TEST(Workloads, PortSeedsComeFromTheBenchmarkSeed)
{
    const Workload &w = *findWorkload("gups128_cube1");
    const SystemConfig cfg = SystemConfig::fromConfig(w.config(7));
    ASSERT_EQ(cfg.host.portWorkloads.size(), w.ports);
    for (const PortWorkload &pw : cfg.host.portWorkloads)
        EXPECT_EQ(pw.spec.seed, portSeed(7, pw.port));
    EXPECT_NE(portSeed(7, 0), portSeed(8, 0));
    EXPECT_NE(portSeed(7, 0), portSeed(7, 1));
}

// The legacy GupsPortSpec path with its default 4 GiB capacity (the
// configuration the old chain scenarios used) keeps every request on
// cube 0 of a chain; ring8_rw64's check must refuse such a window.
TEST(Workloads, RingCheckRejectsCube0OnlyTraffic)
{
    const Workload &w = *findWorkload("ring8_rw64");
    Config cfg;
    for (const auto &[key, value] : w.keys) {
        if (key.rfind("hmc.", 0) == 0)
            cfg.set(key, value);
    }
    System sys(SystemConfig::fromConfig(cfg));
    for (PortId p = 0; p < w.ports; ++p) {
        GupsPortSpec gp;
        gp.gen.pattern = sys.addressMap().pattern(16, 16);
        gp.gen.requestBytes = 64;
        gp.gen.seed = 0x9e3779b9u + p;
        sys.configureGupsPort(p, gp);
    }
    sys.run(w.warmup);
    const ExperimentResult r = sys.measure(10 * kMicrosecond);
    EXPECT_EQ(r.totalChainTransitFlits, 0u);
    EXPECT_EQ(checkWindow(sys, r),
              "no chain transit flits: traffic never left cube 0");
}

TEST(Workloads, Fig7ProbeKeepsTheSystemAndReplacesTheTraffic)
{
    const Workload &ring = *findWorkload("ring8_rw64");
    const Workload probe = fig7Probe(ring);
    EXPECT_EQ(probe.keys.at("hmc.num_cubes"), "8");
    EXPECT_EQ(probe.keys.at("host.workload"), "trace");
    EXPECT_EQ(probe.keys.at("host.workload.batch"), "55");
    EXPECT_EQ(probe.keys.count("host.workload.write_fraction"), 0u);
    EXPECT_EQ(probe.keys.count("obs.anatomy"), 0u);
    EXPECT_EQ(runShort(probe, 1, 10 * kMicrosecond).failure, "");
}

}  // namespace
