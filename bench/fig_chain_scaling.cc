/**
 * @file
 * Multi-cube chaining: capacity scaling vs. added hop latency -- the
 * chained analogue of the paper's Fig. 6/8 bandwidth-latency story.
 *
 * Part 1 sweeps 1/2/4/8 cubes x topology under full GUPS load
 * (capacity grows linearly; bandwidth stays host-link-bound for
 * chains, so the trade is capacity for hop latency).  Part 2 confines
 * a single low-load stream to each cube of a daisy chain and fits the
 * per-hop latency, checking it against the configured pass-through +
 * SerDes + wire delays.  Bisection bandwidth per topology is derived
 * from the route tables.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "bench_util.h"
#include "chain/route_table.h"
#include "common/csv.h"
#include "common/units.h"
#include "host/experiment.h"
#include "host/system.h"

using namespace hmcsim;
using namespace hmcsim::bench;

namespace {

SystemConfig
chainConfig(std::uint32_t cubes, const std::string &topology)
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = cubes;
    cfg.hmc.chain.topology = topology;
    if (topology == "star" && cfg.hmc.numLinks < cubes)
        cfg.hmc.numLinks = cubes;
    bench::applyObsEnv(cfg.obs);
    return cfg;
}

/** @p cfg under nine ports of 64 B GUPS reads over every cube. */
SystemConfig
gups64(SystemConfig cfg)
{
    WorkloadSpec gups;
    gups.requestBytes = 64;
    addWorkloadPorts(cfg, 9, gups, 7919);
    return cfg;
}

double
lowLoadLatencyToCube(const SystemConfig &cfg, CubeId cube, Tick warmup,
                     Tick window)
{
    System sys(cfg);
    Rng rng(1234 + cube);
    WorkloadSpec stream;
    stream.type = "trace";
    stream.batchSize = 1;
    sys.configureWorkload(
        0, stream,
        makeRandomTrace(rng, sys.addressMap().cubePattern(cube),
                        cfg.hmc.totalCapacityBytes(), 512, 32));
    sys.run(warmup);
    return sys.measure(window).avgReadLatencyNs;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseBenchArgs(argc, argv);
    (void)opts;
    const bool fast = fastMode();
    const Tick warmup = scaled(fast ? 2 : 6) * kMicrosecond;
    const Tick window = scaled(fast ? 5 : 16) * kMicrosecond;

    std::cout << "chain scaling: capacity and hop latency vs cube count "
                 "and topology\n";
    bench::CsvOutput csv_out("fig_chain_scaling");
    CsvWriter csv(csv_out.stream(),
                  {"topology", "num_cubes", "capacity_gb", "bandwidth_gbs",
                   "avg_latency_ns", "avg_chain_hops",
                   "bisection_gbs"});

    const std::vector<std::uint32_t> cube_counts =
        fast ? std::vector<std::uint32_t>{1, 4}
             : std::vector<std::uint32_t>{1, 2, 4, 8};

    // Part 1: saturated GUPS load across the whole cube network.
    double daisy1_bw = 0.0, daisy1_lat = 0.0;
    std::vector<double> daisy_bw, daisy_lat, daisy_hops;
    for (const char *topo : {"daisy", "ring", "star"}) {
        for (std::uint32_t cubes : cube_counts) {
            if (std::string(topo) == "star" && cubes > 4)
                continue;  // star needs one host link per cube (max 4)
            const SystemConfig cfg = chainConfig(cubes, topo);
            const ExperimentResult r =
                runPoint(gups64(cfg), warmup, window);

            // Static metric: derivable from the route table alone.
            const ChainRouteTable rt(
                chainTopologyFromString(cfg.hmc.chain.topology), cubes);
            const double bisection = rt.bisectionLinkCount() *
                cfg.hmc.linkBandwidthGBsPerDirection();
            csv.row()
                .cell(topo)
                .cell(cubes)
                .cell(static_cast<double>(cfg.hmc.totalCapacityBytes()) /
                          (1ull << 30),
                      0)
                .cell(r.bandwidthGBs, 2)
                .cell(r.avgReadLatencyNs, 0)
                .cell(r.avgChainHops, 2)
                .cell(bisection, 1);
            if (std::string(topo) == "daisy") {
                daisy_bw.push_back(r.bandwidthGBs);
                daisy_lat.push_back(r.avgReadLatencyNs);
                daisy_hops.push_back(r.avgChainHops);
                if (cubes == 1) {
                    daisy1_bw = r.bandwidthGBs;
                    daisy1_lat = r.avgReadLatencyNs;
                }
            }
        }
    }
    csv.finish();

    // Part 2: per-cube latency decomposition on a 4-cube daisy chain.
    const SystemConfig daisy4 = chainConfig(4, "daisy");
    std::vector<double> lat;
    for (CubeId c = 0; c < 4; ++c)
        lat.push_back(lowLoadLatencyToCube(daisy4, c, warmup, window));

    Report rep(std::cout);
    rep.section("chain scaling shape checks");
    rep.measured("daisy capacity scaling (" +
                     std::to_string(cube_counts.back()) + "/1 cubes)",
                 static_cast<double>(
                     chainConfig(cube_counts.back(), "daisy")
                         .hmc.totalCapacityBytes()) /
                     static_cast<double>(
                         SystemConfig{}.hmc.totalCapacityBytes()),
                 "x");
    rep.measured("daisy bandwidth retained (N cubes / 1)",
                 daisy_bw.back() / daisy1_bw, "ratio");
    // Under saturation the hop cost can be hidden (or even inverted)
    // by the contention relief of spreading load over more vaults;
    // part 2 isolates the true per-hop latency at low load.
    rep.measured("saturated latency delta per hop",
                 daisy_hops.back() > 0.0
                     ? (daisy_lat.back() - daisy1_lat) / daisy_hops.back()
                     : 0.0,
                 "ns");

    // Expected one-hop round trip: store-and-forward pass-through plus
    // SerDes pipeline and wire, both directions (serialization of the
    // 1-flit request and 3-flit response is sub-2 ns at 15 Gbps x 8).
    const double expected_hop_ns =
        2.0 * ticksToNs(daisy4.hmc.chain.passThroughLatency +
                        daisy4.hmc.serdesLatency +
                        daisy4.hmc.linkWireLatency);
    double worst_rel_err = 0.0;
    for (CubeId c = 1; c < 4; ++c) {
        const double per_hop = (lat[c] - lat[0]) / c;
        rep.measured("low-load hop latency via cube " + std::to_string(c),
                     per_hop, "ns");
        worst_rel_err = std::max(
            worst_rel_err,
            std::abs(per_hop - expected_hop_ns) / expected_hop_ns);
    }
    rep.measured("expected per-hop (2x passthrough+serdes+wire)",
                 expected_hop_ns, "ns");
    rep.measured("worst relative error vs expected", worst_rel_err,
                 "frac");
    rep.note("capacity scales linearly with cubes; chained bandwidth "
             "stays bound by the host links while star splits them");

    // Per-cube share under the saturated 4-cube daisy run.
    const ExperimentResult r4 =
        runPoint(gups64(chainConfig(4, "daisy")), warmup, window);
    rep.section("4-cube daisy per-cube breakdown");
    std::uint64_t total_served = 0;
    for (const CubeStats &cs : r4.cubes)
        total_served += cs.requestsServed;
    for (const CubeStats &cs : r4.cubes) {
        rep.perCube(cs.cube, cs.requestsServed, cs.requestHops,
                    total_served
                        ? 100.0 * static_cast<double>(cs.requestsServed) /
                            static_cast<double>(total_served)
                        : 0.0);
    }

    // Part 3: static vs adaptive routing under a cube-skewed zipf
    // hotspot, open loop.  The skew concentrates flows on the near
    // cubes so the ring's clockwise entry path congests while the wrap
    // side idles; bursty injection makes the congestion transient --
    // the regime where occupancy-driven tie-splitting and bounded
    // misroutes trim the tail without wasting capacity on detours.
    // Small link-token pools keep the interior backpressure visible
    // (the signal the adaptive policy reads).  Offered-vs-accepted and
    // p99 quantify the win.  The daisy rows isolate the entry-link
    // spreading component: a daisy chain has no path diversity, so
    // switch-level deviations/misroutes stay zero and any delta comes
    // from the congestion-aware entry-link pick alone.
    {
        bench::CsvOutput routing_out("fig_chain_routing");
        CsvWriter rcsv(routing_out.stream(),
                       {"topology", "routing", "offered_per_ns",
                        "accepted_per_ns", "avg_latency_ns",
                        "p99_latency_ns", "deviations", "misroutes",
                        "rx_hol_stalls"});
        rep.section(
            "static vs adaptive chain routing (zipf cube hotspot)");
        for (const char *topo : {"ring", "daisy"}) {
            double acc[2] = {0.0, 0.0};
            double p99[2] = {0.0, 0.0};
            int idx = 0;
            for (const char *routing : {"static", "adaptive"}) {
                SystemConfig cfg = chainConfig(4, topo);
                cfg.hmc.chain.routing = routing;
                cfg.hmc.linkTokens = 32;
                cfg.host.tagsPerPort = 128;
                WorkloadRunSpec wr;
                wr.workload.type = "zipf";
                wr.workload.zipfDomain = "cube";
                wr.workload.zipfTheta = 0.9;
                wr.workload.requestBytes = 64;
                wr.workload.writeFraction = 0.5;
                wr.workload.inject = "open";
                wr.workload.ratePerNs = 0.018;
                wr.workload.burstiness = 64.0;
                wr.activePorts = 9;
                wr.warmup = warmup;
                wr.window = window;
                // 50 ns bins: p99 sits around 4-5 us here, so the
                // bin quantization stays ~1% of the measured value.
                wr.latencyHistBins = 800;
                wr.latencyHistLoNs = 0.0;
                wr.latencyHistHiNs = 40000.0;
                const ExperimentResult rr = runWorkload(cfg, wr);
                acc[idx] = rr.acceptedPerNs();
                p99[idx] = rr.p99ReadLatencyNs;
                ++idx;
                rcsv.row()
                    .cell(topo)
                    .cell(routing)
                    .cell(rr.offeredPerNs(), 4)
                    .cell(rr.acceptedPerNs(), 4)
                    .cell(rr.avgReadLatencyNs, 0)
                    .cell(rr.p99ReadLatencyNs, 0)
                    .cell(static_cast<double>(rr.totalAdaptiveDeviations),
                          0)
                    .cell(static_cast<double>(rr.totalChainMisroutes), 0)
                    .cell(static_cast<double>(rr.totalRxHolStalls), 0);
            }
            rep.measured(std::string(topo) +
                             " accepted throughput (adaptive/static)",
                         acc[0] > 0.0 ? acc[1] / acc[0] : 0.0, "ratio");
            rep.measured(std::string(topo) + " p99 latency "
                                             "(adaptive/static)",
                         p99[0] > 0.0 ? p99[1] / p99[0] : 0.0, "ratio");
        }
        rcsv.finish();
        rep.note("switch-level adaptivity needs path diversity: the "
                 "ring splits tie traffic across both directions, "
                 "while the daisy rows carry only the entry-link "
                 "spread (deviations and misroutes stay zero)");
    }
    return 0;
}
