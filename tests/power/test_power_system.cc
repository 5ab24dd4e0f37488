/**
 * @file
 * System-level tests of the power subsystem: the observation-only
 * default must not perturb timing at all, energy/temperature must show
 * up in results and stats, and an aggressive thermal limit must
 * actually cut delivered bandwidth through the throttle feedback loop.
 */

#include <gtest/gtest.h>

#include "host/experiment.h"
#include "host/system.h"

namespace hmcsim {
namespace {

/** Nine ports of 64 B GUPS reads on @p cfg, measured for 6 us. */
ExperimentResult
gupsRun(SystemConfig cfg, Tick warmup = 2 * kMicrosecond)
{
    WorkloadSpec gups;
    gups.requestBytes = 64;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return runPoint(cfg, warmup, 6 * kMicrosecond);
}

TEST(PowerSystem, ObservationOnlyIsTimingInvariant)
{
    SystemConfig with_power;
    ASSERT_TRUE(with_power.hmc.power.enabled);
    ASSERT_FALSE(with_power.hmc.power.throttle.enabled);

    SystemConfig without_power;
    without_power.hmc.power.enabled = false;

    const ExperimentResult a = gupsRun(with_power);
    const ExperimentResult b = gupsRun(without_power);

    // Bit-identical traffic: the power model only observes.
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_EQ(a.totalWireBytes, b.totalWireBytes);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.maxReadLatencyNs, b.maxReadLatencyNs);

    // ...but only the instrumented run reports power.
    EXPECT_GT(a.energyPj, 0.0);
    EXPECT_GT(a.maxTempC, 0.0);
    EXPECT_DOUBLE_EQ(a.throttlePct, 0.0);
    EXPECT_DOUBLE_EQ(b.energyPj, 0.0);
    EXPECT_DOUBLE_EQ(b.maxTempC, 0.0);
}

TEST(PowerSystem, StatsExposePowerTree)
{
    SystemConfig cfg;
    WorkloadSpec gups;
    gups.requestBytes = 64;
    gups.seed = 1;
    cfg.host.portWorkloads.push_back({0, gups});
    System sys(cfg);
    sys.run(2 * kMicrosecond);
    sys.resetStats();
    sys.run(5 * kMicrosecond);

    const auto stats = sys.stats();
    ASSERT_TRUE(stats.count("system.hmc.power.energy_pj"));
    ASSERT_TRUE(stats.count("system.hmc.power.temp_c"));
    ASSERT_TRUE(stats.count("system.hmc.power.throttle_pct"));
    ASSERT_TRUE(stats.count("system.hmc.power.temp_logic_c"));
    EXPECT_GT(stats.at("system.hmc.power.energy_pj"), 0.0);
    // Under load the stack is above ambient and the logic layer is
    // the hottest node.
    EXPECT_GT(stats.at("system.hmc.power.temp_c"),
              cfg.hmc.power.thermal.ambientC);
    EXPECT_DOUBLE_EQ(stats.at("system.hmc.power.temp_c"),
                     stats.at("system.hmc.power.temp_logic_c"));
    EXPECT_DOUBLE_EQ(stats.at("system.hmc.power.throttle_pct"), 0.0);
}

TEST(PowerSystem, ThermalLimitThrottlesBandwidth)
{
    // Accelerated thermal constants: tiny capacitance settles the
    // stack within microseconds, and a threshold just above ambient
    // guarantees the governor engages under load.
    SystemConfig hot;
    hot.hmc.power.thermal.layerCapacitanceJperK = 1e-6;
    hot.hmc.power.stepInterval = 500 * kNanosecond;
    hot.hmc.power.throttle.enabled = true;
    hot.hmc.power.throttle.onThresholdC = 48.0;
    hot.hmc.power.throttle.offThresholdC = 47.0;
    hot.hmc.power.throttle.maxSlowdown = 4.0;

    SystemConfig cool = hot;
    cool.hmc.power.throttle.enabled = false;

    // A longer warmup lets the throttle loop settle.
    const ExperimentResult throttled = gupsRun(hot, 6 * kMicrosecond);
    const ExperimentResult free_run = gupsRun(cool, 6 * kMicrosecond);

    EXPECT_GT(throttled.throttlePct, 50.0);
    EXPECT_DOUBLE_EQ(free_run.throttlePct, 0.0);
    // The feedback loop must visibly cut delivered bandwidth.
    EXPECT_LT(throttled.bandwidthGBs, 0.8 * free_run.bandwidthGBs);
}

}  // namespace
}  // namespace hmcsim
