/**
 * @file
 * Experiment harness: result structures and the two ways the
 * benchmark binaries run a point.  runPoint() builds a fresh System
 * from a SystemConfig that describes every port; runWorkload() spreads
 * one WorkloadSpec over N ports.  Both run a warmup window, then
 * measure a steady-state window and return paper-formula statistics.
 */

#ifndef HMCSIM_HOST_EXPERIMENT_H_
#define HMCSIM_HOST_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {

class System;

/** Per-port slice of an experiment result. */
struct PortStats {
    /** Host fabric this port belongs to (0 in single-host systems). */
    HostId host = 0;
    PortId port = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wireBytes = 0;
    double avgReadNs = 0.0;
    double minReadNs = 0.0;
    double maxReadNs = 0.0;
    double stddevReadNs = 0.0;
    /** This port's bandwidth share (paper formula), GB/s. */
    double bandwidthGBs = 0.0;
    /** Open-loop injection: requests the rate controller offered over
     *  the window (accepted = reads + writes); 0 for closed loop. */
    double offeredRequests = 0.0;
};

/** Per-host slice of a multi-host experiment result. */
struct HostStats {
    HostId host = 0;
    /** Chain entry cube this host's controller attaches at. */
    CubeId entryCube = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t requestsSent = 0;
    std::uint64_t responsesDelivered = 0;
    /** This host's bandwidth share (paper formula), GB/s. */
    double bandwidthGBs = 0.0;
    double avgReadNs = 0.0;
    /** Open-loop offered requests summed over this host's ports. */
    double offeredRequests = 0.0;
};

/** Per-cube slice of a multi-cube experiment result. */
struct CubeStats {
    CubeId cube = 0;
    std::uint64_t requestsServed = 0;
    /** Requests issued toward this cube, summed over all hosts. */
    std::uint64_t requestsSent = 0;
    /** Peak outstanding toward this cube, summed over the hosts'
     *  controllers.  Each controller tracks its own peak, so in
     *  multi-host runs this is an upper bound on the simultaneous
     *  peak (the per-host maxima need not coincide in time). */
    std::uint32_t peakOutstanding = 0;
    /** Pass-through forwards to reach this cube on the static route
     *  from HOST 0's entry; other hosts' distances differ in
     *  multi-host fabrics (ChainRouteTable::requestHops(c, h)). */
    std::uint32_t requestHops = 0;
    /** Non-minimal adaptive forwards this cube's switch committed. */
    std::uint64_t misroutes = 0;
    /** RX drains this cube's switch ended on head-of-line blocking. */
    std::uint64_t rxHolStalls = 0;
    double energyPj = 0.0;
    double maxTempC = 0.0;
};

struct ExperimentResult {
    Tick windowTicks = 0;
    /** Every active port of every host (PortStats::host tells whose). */
    std::vector<PortStats> ports;

    /** One entry per host controller (a single entry classically). */
    std::vector<HostStats> hosts;

    /** One entry per cube (a single entry without chaining). */
    std::vector<CubeStats> cubes;

    /** Mean pass-through hops per read (request + response legs). */
    double avgChainHops = 0.0;

    /** Per-read chain-hop distribution merged over all ports; entry i
     *  counts reads that took i hops (last entry saturates). */
    std::vector<std::uint64_t> chainHopCounts;

    /** Adaptive routing: non-preferred minimal choices (ring ties)
     *  across all switches. */
    std::uint64_t totalAdaptiveDeviations = 0;

    /** Adaptive routing: non-minimal forwards across all switches. */
    std::uint64_t totalChainMisroutes = 0;

    /** Head-of-line-blocked RX drains across all switches. */
    std::uint64_t totalRxHolStalls = 0;

    /** Pass-through flits forwarded by all switches over the window
     *  (the transit volume crossing the cube-to-cube fabric). */
    std::uint64_t totalChainTransitFlits = 0;

    /** Static bisection bandwidth of the chain fabric, GB/s (0 for
     *  the classic single-cube system). */
    double chainBisectionGBs = 0.0;

    /** Flits that crossed the fabric's bisection cut over the window,
     *  busier direction (see CubeNetwork::bisectionFlitsSent). */
    std::uint64_t chainBisectionFlits = 0;

    /** Transit bandwidth over the window, GB/s. */
    double chainTransitGBs() const;

    /** Bisection-cut traffic (busier direction) over the window,
     *  GB/s; divide by chainBisectionGBs for the utilization. */
    double chainBisectionTrafficGBs() const;

    std::uint64_t totalReads = 0;
    std::uint64_t totalWrites = 0;
    std::uint64_t totalWireBytes = 0;

    /** Open-loop offered requests across all ports (0 = closed loop). */
    double totalOfferedRequests = 0.0;

    /** Total request+response bytes over the window, GB/s (Eq. in
     *  Section III-B of the paper). */
    double bandwidthGBs = 0.0;

    double avgReadLatencyNs = 0.0;
    double minReadLatencyNs = 0.0;
    double maxReadLatencyNs = 0.0;
    double stddevReadLatencyNs = 0.0;

    /** 99th-percentile read latency from the per-port histograms;
     *  0 unless the run enabled latency histograms (see
     *  WorkloadRunSpec::latencyHistBins). */
    double p99ReadLatencyNs = 0.0;

    /** Merged read-latency accumulator for further analysis. */
    SampleStats mergedRead;

    // ----- power & thermal (zero when the power model is disabled) -----

    /** Total cube energy over the window (dynamic + static), pJ. */
    double energyPj = 0.0;

    /** Average cube power over the window, W. */
    double avgPowerW = 0.0;

    /** Hottest stack layer at the end of the window, Celsius. */
    double maxTempC = 0.0;

    /** Percentage of the window spent thermally throttled. */
    double throttlePct = 0.0;

    /** Accesses per second across all ports. */
    double accessesPerSec() const;

    /** Accepted request rate in requests/ns (open-loop comparisons). */
    double acceptedPerNs() const;

    /** Offered request rate in requests/ns (open loop only). */
    double offeredPerNs() const;
};

/** Collect a result from @p sys over a window that just ended. */
ExperimentResult collectResult(System &sys, Tick window_ticks);

struct SystemConfig;  // host/system.h

/**
 * One figure point: build a System from @p cfg, whose host.workload*
 * and host.port<N>.workload* entries describe the ports, run
 * @p warmup, then measure @p window.
 */
ExperimentResult runPoint(const SystemConfig &cfg, Tick warmup,
                          Tick window);

/**
 * Point ports [0, @p ports) of @p cfg at @p w, port p seeded
 * @p seed + p.  The GUPS figures keep their historic address streams
 * this way: a run seed s becomes seed s * 7919.
 */
void addWorkloadPorts(SystemConfig &cfg, std::uint32_t ports,
                      WorkloadSpec w, std::uint64_t seed);

// ----- pluggable workload experiments (bench/fig_workload_sweep) -----

/**
 * Run one WorkloadSpec on @p activePorts ports.  Per-port seeds are
 * derived from @p seed with the SplitMix64 mixer, so adjacent ports
 * draw decorrelated streams.
 */
struct WorkloadRunSpec {
    WorkloadSpec workload;
    std::uint32_t activePorts = 9;
    Tick warmup = 10 * kMicrosecond;
    Tick window = 30 * kMicrosecond;
    std::uint64_t seed = 1;

    /** When non-zero, enable a read-latency histogram on every active
     *  port so the result carries p99ReadLatencyNs.  Observation-only:
     *  recording samples does not perturb timing. */
    std::size_t latencyHistBins = 0;
    double latencyHistLoNs = 0.0;
    double latencyHistHiNs = 50000.0;
};

ExperimentResult runWorkload(const SystemConfig &cfg,
                             const WorkloadRunSpec &spec);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_EXPERIMENT_H_
