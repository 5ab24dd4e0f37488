/**
 * @file
 * Spurious wakes change no statistic on static chains.  Every drain
 * and pump retries only on what its head waits on, and each RX head is
 * accounted once, at its first refusal, so an extra retry of every
 * inject-pool drain and every ready output port -- one every 7 ns --
 * must leave every statistic but the kernel's event counts as it was.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chain/chain_switch.h"
#include "chain/cube_network.h"
#include "host/system.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {
namespace {

/** Retries every switch's inject-pool drains and ready ports, then
 *  reposts itself 7 ns later. */
struct SpuriousWake {
    System *sys;

    void
    operator()() const
    {
        CubeNetwork &chain = *sys->chain();
        for (CubeId c = 0; c < chain.numCubes(); ++c) {
            ChainSwitch &sw = *chain.switchAt(c);
            for (LinkId l = 0; l < chain.numHostLinks(); ++l)
                sw.onLocalInjectSpace(l);
            sw.pumpReady();
        }
        sys->kernel().scheduleIn(7 * kNanosecond, *this);
    }
};

/** Statistics after 20 us of mixed 64 B traffic from nine ports per
 *  host, without the kernel's own counts. */
std::map<std::string, double>
runMixed(const SystemConfig &cfg, bool spurious)
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
    if (spurious)
        sys.kernel().scheduleIn(7 * kNanosecond, SpuriousWake{&sys});
    sys.run(20 * kMicrosecond);
    std::map<std::string, double> stats = sys.stats();
    for (auto it = stats.begin(); it != stats.end();) {
        if (it->first.find("kernel.") != std::string::npos)
            it = stats.erase(it);
        else
            ++it;
    }
    return stats;
}

/** The statistics a spurious-wake run changes, as "name: a -> b". */
std::vector<std::string>
changedBySpuriousWakes(const SystemConfig &cfg)
{
    const auto base = runMixed(cfg, false);
    const auto woken = runMixed(cfg, true);
    std::vector<std::string> changed;
    for (const auto &[name, value] : base) {
        const auto it = woken.find(name);
        if (it == woken.end())
            changed.push_back(name + ": missing");
        else if (it->second != value)
            changed.push_back(name + ": " + std::to_string(value) + " -> " +
                              std::to_string(it->second));
    }
    if (woken.size() != base.size())
        changed.push_back("statistic count differs");
    // A run that never stalls a head would show nothing.
    double stalls = 0.0;
    for (const auto &[name, value] : base)
        if (name.find("queue_full_stalls") != std::string::npos)
            stalls += value;
    EXPECT_GT(stalls, 0.0);
    return changed;
}

SystemConfig
staticChain(std::uint32_t cubes, const std::string &topology)
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = cubes;
    cfg.hmc.chain.topology = topology;
    cfg.hmc.chain.routing = "static";
    cfg.hmc.chain.forwardQueuePackets = 1;
    return cfg;
}

TEST(ChainWakeIndependence, EightCubeRing)
{
    EXPECT_EQ(changedBySpuriousWakes(staticChain(8, "ring")),
              std::vector<std::string>{});
}

TEST(ChainWakeIndependence, EightCubeRingWithFewTokens)
{
    SystemConfig cfg = staticChain(8, "ring");
    cfg.hmc.linkTokens = 18;
    EXPECT_EQ(changedBySpuriousWakes(cfg), std::vector<std::string>{});
}

TEST(ChainWakeIndependence, FourCubeDaisy)
{
    EXPECT_EQ(changedBySpuriousWakes(staticChain(4, "daisy")),
              std::vector<std::string>{});
}

TEST(ChainWakeIndependence, TwoHostFourCubeRing)
{
    SystemConfig cfg = staticChain(4, "ring");
    cfg.host.numHosts = 2;
    EXPECT_EQ(changedBySpuriousWakes(cfg), std::vector<std::string>{});
}

}  // namespace
}  // namespace hmcsim
