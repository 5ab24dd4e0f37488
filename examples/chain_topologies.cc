/**
 * @file
 * Multi-cube chaining demo: the `hmc.num_cubes` / `hmc.chain_*` config
 * surface, CUB-field address decode, and the latency/capacity trade of
 * daisy chains, rings and stars.
 *
 * Run: ./example_chain_topologies [key=value ...]
 * e.g. ./example_chain_topologies hmc.num_cubes=8 \
 *          hmc.chain_topology=ring hmc.chain_interleave=cube_low
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;

namespace {

void
runOne(SystemConfig cfg)
{
    cfg.validate();
    System sys(cfg);
    const AddressMap &map = sys.addressMap();

    std::printf("\n== %u cube(s), %s topology, %s interleave ==\n",
                cfg.hmc.chain.numCubes, cfg.hmc.chain.topology.c_str(),
                cfg.hmc.chain.interleave.c_str());
    std::printf("  capacity %.0f GB total, CUB field: %u bit(s) at bit %u\n",
                static_cast<double>(cfg.hmc.totalCapacityBytes()) /
                    (1ull << 30),
                map.cubeBits(), map.cubeLow());
    if (CubeNetwork *chain = sys.chain()) {
        std::printf("  bisection %.1f GB/s; request hops per cube:",
                    chain->bisectionBandwidthGBs());
        for (CubeId c = 0; c < sys.numCubes(); ++c)
            std::printf(" %u", chain->routes().requestHops(c));
        std::printf("\n");
    }

    // All nine GUPS ports, random 64 B reads over every cube.
    WorkloadSpec gups;
    gups.requestBytes = 64;
    gups.patternVaults = cfg.hmc.numVaults;
    gups.patternBanks = cfg.hmc.numBanksPerVault;
    for (PortId p = 0; p < cfg.host.numPorts; ++p) {
        gups.seed = 17 + p;
        sys.configureWorkload(p, gups);
    }
    sys.run(10 * kMicrosecond);
    const ExperimentResult r = sys.measure(25 * kMicrosecond);

    std::printf("  bandwidth %.2f GB/s, avg latency %.0f ns, "
                "avg chain hops %.2f\n",
                r.bandwidthGBs, r.avgReadLatencyNs, r.avgChainHops);
    for (const CubeStats &cs : r.cubes) {
        std::printf("    cube %u: served %llu (hops %u, peak "
                    "outstanding %u)\n",
                    cs.cube,
                    static_cast<unsigned long long>(cs.requestsServed),
                    cs.requestHops, cs.peakOutstanding);
    }
}

}  // namespace

int
main(int argc, char **argv)
try {
    if (argc > 1) {
        // Explicit key=value overrides: run exactly that system.
        Config overrides;
        SystemConfig{}.toConfig(overrides);
        std::vector<std::string> args(argv + 1, argv + argc);
        overrides.applyOverrides(args);
        runOne(SystemConfig::fromConfig(overrides));
        return 0;
    }

    SystemConfig cfg;
    runOne(cfg);  // classic single cube

    cfg.hmc.chain.numCubes = 4;
    cfg.hmc.chain.topology = "daisy";
    runOne(cfg);

    cfg.hmc.chain.topology = "ring";
    runOne(cfg);

    cfg.hmc.chain.topology = "star";
    cfg.hmc.numLinks = 4;  // one host link per cube
    runOne(cfg);

    cfg.hmc.chain.topology = "daisy";
    cfg.hmc.numLinks = 2;
    cfg.hmc.chain.interleave = "cube_low";
    runOne(cfg);
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
