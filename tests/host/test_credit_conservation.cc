/**
 * @file
 * Credit and tag conservation: after a drained run, every credit pool
 * -- the SerDes token pools of both link directions, the NoC router
 * output credits and the NoC inject-port credits -- is back at
 * capacity once its pending returns have folded in, and every request
 * tag is back: no workload port holds a tag or counts a request in
 * flight, and no host controller counts one outstanding to any cube.
 * A return lost or doubled by the lazy return/fold/wake path leaves a
 * pool short of its capacity (or panics past it); a response lost in
 * the fabric leaves a tag held.  Every SerDes RX buffer is empty and
 * every vault controller idle too: a wake that a narrowed wait set
 * lost strands a packet in an RX buffer or a request in a vault.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "hmc/hmc_device.h"
#include "hmc/serdes_link.h"
#include "hmc/vault_controller.h"
#include "host/system.h"
#include "host/workload/workload_port.h"
#include "noc/network.h"
#include "noc/router.h"

namespace hmcsim {
namespace {

using Keys = std::vector<std::pair<std::string, std::string>>;

struct PoolTally {
    std::size_t linkDirs = 0;
    std::size_t routerOutputs = 0;
    std::size_t injectPorts = 0;
    /** Credits ever taken from the NoC pools, and link flits sent. */
    std::uint64_t nocConsumed = 0;
    std::uint64_t linkFlits = 0;
    std::size_t workloadPorts = 0;
    std::size_t vaults = 0;
};

void
expectFullPools(const Component &c, PoolTally &t)
{
    if (const auto *lk = dynamic_cast<const SerdesLink *>(&c)) {
        for (const LinkDir d : {LinkDir::HostToCube, LinkDir::CubeToHost}) {
            EXPECT_EQ(lk->tokensFree(d), lk->tokenCapacity(d))
                << lk->path() << " dir " << static_cast<unsigned>(d);
            EXPECT_EQ(lk->rxQueued(d), 0u)
                << lk->path() << " RX dir " << static_cast<unsigned>(d);
            ++t.linkDirs;
            t.linkFlits += lk->flitsSent(d);
        }
    } else if (const auto *r = dynamic_cast<const Router *>(&c)) {
        for (std::size_t o = 0; o < r->numOutputs(); ++o) {
            const CreditPool *p = r->outputCredits(o);
            if (!p)
                continue;  // ejection output
            EXPECT_EQ(p->available(), p->capacity())
                << r->path() << " output " << o;
            ++t.routerOutputs;
            t.nocConsumed += p->totalConsumed();
        }
    } else if (const auto *vc = dynamic_cast<const VaultController *>(&c)) {
        EXPECT_TRUE(vc->idle()) << vc->path();
        ++t.vaults;
    } else if (const auto *net = dynamic_cast<const Network *>(&c)) {
        for (NodeId ep = 0; ep < net->numEndpoints(); ++ep) {
            const CreditPool &p = net->injectCredits(ep);
            EXPECT_EQ(p.available(), p.capacity())
                << net->path() << " endpoint " << ep;
            ++t.injectPorts;
            t.nocConsumed += p.totalConsumed();
        }
    }
    for (const Component *child : c.children())
        expectFullPools(*child, t);
}

/** Every request tag of every host is back after a drain. */
void
expectAllTagsReturned(System &sys, PoolTally &t)
{
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        Fpga &fpga = sys.fpga(h);
        for (PortId p = 0; p < fpga.numPorts(); ++p) {
            const WorkloadPort &wp = fpga.port(p);
            EXPECT_EQ(wp.tags().inUse(), 0u) << wp.path();
            EXPECT_EQ(wp.inFlight(), 0u) << wp.path();
            ++t.workloadPorts;
        }
        for (CubeId c = 0; c < sys.numCubes(); ++c)
            EXPECT_EQ(fpga.controller().outstandingToCube(c), 0u)
                << "host " << h << " cube " << c;
    }
}

/** Run traffic, stop every port, drain, and check every pool and tag. */
PoolTally
drainAndCheck(const Keys &keys)
{
    Config cfg;
    for (const auto &[key, value] : keys)
        cfg.set(key, value);
    System sys(SystemConfig::fromConfig(cfg));
    sys.run(2 * kMicrosecond);
    for (HostId h = 0; h < sys.numHosts(); ++h)
        sys.fpga(h).deactivateAllPorts();
    EXPECT_TRUE(sys.runUntilIdle(100 * kMicrosecond));
    // Pass every return still pending (none is more than a few ns out).
    sys.run(1 * kMicrosecond);

    const Component *root = &sys.device(0);
    while (root->parent())
        root = root->parent();
    PoolTally t;
    expectFullPools(*root, t);
    EXPECT_GT(t.linkFlits, 0u);
    EXPECT_GT(t.nocConsumed, 0u);
    EXPECT_EQ(t.vaults, 16u * sys.numCubes());
    expectAllTagsReturned(sys, t);
    EXPECT_EQ(t.workloadPorts, 9u * sys.numHosts());
    return t;
}

TEST(CreditConservation, SingleCubeGups)
{
    const PoolTally t =
        drainAndCheck({{"host.workload", "gups"},
                       {"host.workload.request_bytes", "128"},
                       {"host.workload_ports", "9"}});
    EXPECT_EQ(t.linkDirs, 4u);  // 2 links x 2 directions
    EXPECT_GT(t.routerOutputs, 0u);
    EXPECT_GT(t.injectPorts, 0u);
}

TEST(CreditConservation, EightCubeRing)
{
    const PoolTally t =
        drainAndCheck({{"hmc.num_cubes", "8"},
                       {"hmc.chain_topology", "ring"},
                       {"hmc.power_enabled", "false"},
                       {"host.workload", "gups"},
                       {"host.workload.request_bytes", "64"},
                       {"host.workload.write_fraction", "0.25"},
                       {"host.workload_ports", "9"}});
    // 8 cubes x 2 links plus 2 ring-closing links, both directions.
    EXPECT_EQ(t.linkDirs, 36u);
}

TEST(CreditConservation, StaticRingWithOnePacketQueuesAndFewTokens)
{
    // Every lane sees head-of-line and token blocking: the narrowed
    // static wait sets must wake every stalled drain.
    const PoolTally t =
        drainAndCheck({{"hmc.num_cubes", "8"},
                       {"hmc.chain_topology", "ring"},
                       {"hmc.chain_forward_queue_packets", "1"},
                       {"hmc.link_tokens", "18"},
                       {"hmc.power_enabled", "false"},
                       {"host.workload", "gups"},
                       {"host.workload.request_bytes", "128"},
                       {"host.workload.write_fraction", "0.5"},
                       {"host.workload_ports", "9"}});
    EXPECT_EQ(t.linkDirs, 36u);
}

TEST(CreditConservation, AdaptiveRingWithEagerMisroutes)
{
    // Hair-trigger ties and misroutes: a refused head's route compares
    // two outputs, so it must wait on both of them.
    const PoolTally t =
        drainAndCheck({{"hmc.num_cubes", "8"},
                       {"hmc.chain_topology", "ring"},
                       {"hmc.chain_routing", "adaptive"},
                       {"hmc.chain_forward_queue_packets", "1"},
                       {"hmc.link_tokens", "16"},
                       {"hmc.chain_adaptive_threshold_flits", "0"},
                       {"hmc.chain_adaptive_misroute_threshold_flits", "1"},
                       {"hmc.chain_adaptive_max_misroutes", "4"},
                       {"hmc.power_enabled", "false"},
                       {"host.workload", "gups"},
                       {"host.workload.request_bytes", "128"},
                       {"host.workload.write_fraction", "0.5"},
                       {"host.workload_ports", "9"}});
    EXPECT_EQ(t.linkDirs, 36u);
}

TEST(CreditConservation, TwoHostAdaptiveRingWithOnePacketQueues)
{
    const PoolTally t =
        drainAndCheck({{"hmc.num_cubes", "4"},
                       {"hmc.chain_topology", "ring"},
                       {"hmc.chain_routing", "adaptive"},
                       {"hmc.chain_forward_queue_packets", "1"},
                       {"host.num_hosts", "2"},
                       {"host.workload", "gups"},
                       {"host.workload.request_bytes", "128"},
                       {"host.workload.write_fraction", "0.5"},
                       {"host.workload_ports", "9"}});
    // 4 cubes x 2 links, 2 wrap links, 2 dedicated host-1 links.
    EXPECT_EQ(t.linkDirs, 24u);
}

}  // namespace
}  // namespace hmcsim
