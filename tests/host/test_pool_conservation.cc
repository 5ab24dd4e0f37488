/**
 * @file
 * Packet-pool conservation: building, running and destroying a System
 * returns every pooled block it took.  Packets still in flight when the
 * run stops (queued in ports, links, switches, vaults, or captured by
 * pending events) are released when the System goes away, so the
 * pool's live count ends where it started.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "hmc/packet_pool.h"
#include "host/system.h"

namespace hmcsim {
namespace {

using Keys = std::vector<std::pair<std::string, std::string>>;

SystemConfig
configFrom(const Keys &keys)
{
    Config cfg;
    for (const auto &[key, value] : keys)
        cfg.set(key, value);
    return SystemConfig::fromConfig(cfg);
}

/**
 * Build, run and destroy one System; the pool's live count must end
 * where it started.  @return the run's measured result.
 */
ExperimentResult
runConserved(const SystemConfig &cfg)
{
    const std::size_t live0 = packetPoolLiveBlocks();
    ExperimentResult res;
    {
        auto sys = std::make_unique<System>(cfg);
        sys->run(1 * kMicrosecond);
        res = sys->measure(2 * kMicrosecond);
        // The run stops mid-flight: packets are outstanding.
        EXPECT_GT(packetPoolLiveBlocks(), live0);
    }
    EXPECT_EQ(packetPoolLiveBlocks(), live0);
    return res;
}

TEST(PoolConservation, SingleCubeNinePortGups)
{
    const ExperimentResult res =
        runConserved(configFrom({{"host.workload", "gups"},
                                 {"host.workload.request_bytes", "128"},
                                 {"host.workload_ports", "9"}}));
    EXPECT_GT(res.totalReads, 0u);
}

TEST(PoolConservation, EightCubeRingWithWrites)
{
    const ExperimentResult res =
        runConserved(configFrom({{"hmc.num_cubes", "8"},
                                 {"hmc.chain_topology", "ring"},
                                 {"hmc.power_enabled", "false"},
                                 {"host.workload", "gups"},
                                 {"host.workload.request_bytes", "64"},
                                 {"host.workload.write_fraction", "0.25"},
                                 {"host.workload_ports", "9"}}));
    EXPECT_GT(res.totalReads, 0u);
    EXPECT_GT(res.totalWrites, 0u);
    EXPECT_GT(res.totalChainTransitFlits, 0u);
}

}  // namespace
}  // namespace hmcsim
