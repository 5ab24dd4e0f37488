/**
 * @file
 * Host-side (FPGA + software) configuration, modelling the AC-510
 * infrastructure: a 187.5 MHz fabric with nine ports, a vendor HMC
 * controller that issues one request per cycle per link and drains
 * response flits through a deserializer of limited width, per-port tag
 * pools, and the fixed FPGA/PCIe latency the paper measures at ~547 ns.
 */

#ifndef HMCSIM_HOST_HOST_CONFIG_H_
#define HMCSIM_HOST_HOST_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {

/**
 * SplitMix stream offset decorrelating per-host seed derivations from
 * the per-port streams (which mix small port ids): host H>0 draws from
 * mixSeeds(seed, kHostSeedStream + H).
 */
constexpr std::uint64_t kHostSeedStream = 0x486F5374ull;  // "HoSt"

/** One config-driven port workload (resolved from host.port<N>.*). */
struct PortWorkload {
    PortId port = 0;
    WorkloadSpec spec;
};

struct HostConfig {
    /** FPGA fabric frequency (the AC-510 runs at 187.5 MHz). */
    double fpgaMhz = 187.5;

    /** Number of request ports (the firmware instantiates nine). */
    std::uint32_t numPorts = 9;

    /** Outstanding-request tags per port. */
    std::uint32_t tagsPerPort = 40;

    /** Write-request FIFO depth per port (requests). */
    std::uint32_t portFifoDepth = 16;

    /** Requests the controller can issue per cycle per link. */
    std::uint32_t requestsPerCyclePerLink = 1;

    /**
     * Response deserializer (shared across links): bounded both in
     * packets per FPGA cycle (tag lookup / reassembly rate) and in
     * flits per FPGA cycle (datapath width).  1 packet/cycle and
     * 7 flits/cycle reproduce the paper's per-size response ceilings
     * (~10 GB/s at 16 B rising to ~23 GB/s at 128 B reads).
     */
    std::uint32_t deserializerPacketsPerCycle = 1;
    std::uint32_t deserializerPacketBudgetCap = 4;
    std::uint32_t deserializerFlitsPerCycle = 7;
    std::uint32_t deserializerFlitBudgetCap = 28;

    /**
     * Constant added to every measured latency sample, standing in for
     * the FPGA controller / transceiver / PCIe / driver stages the
     * paper attributes ~547 ns to (we model ~90 ns of the round trip
     * explicitly).
     */
    double fixedLatencyNs = 600.0;

    /** In-flight window of a stream port (AXI-Stream buffer depth). */
    std::uint32_t streamWindow = 72;

    /** Stream-port response drain rate (flits per FPGA cycle). */
    std::uint32_t streamDrainFlitsPerCycle = 1;

    /** Base RNG seed for the per-port address generators; per-port
     *  seeds are derived with the SplitMix64 mixer (mixSeeds). */
    std::uint64_t seed = 12345;

    /**
     * Host controllers driving the cube network (host.num_hosts).
     * Each host replicates the full FPGA fabric -- numPorts ports, tag
     * pools, its own controller -- and attaches at its own chain entry
     * cube.  1 keeps the classic single-host system bit-identical.
     */
    std::uint32_t numHosts = 1;

    /**
     * Entry cube per host (host.host<H>.entry_cube), sized numHosts.
     * kEntryCubeAuto spreads unset hosts evenly around the topology:
     * host H enters at cube H * num_cubes / num_hosts.  Entry cubes
     * must be distinct; more than one host needs a daisy or ring
     * topology.  Empty means all-auto.
     */
    std::vector<CubeId> entryCubes;

    /**
     * Resolve entryCubes against a concrete cube count: substitute the
     * even spread for kEntryCubeAuto entries and validate bounds and
     * distinctness.  Returned vector is sized numHosts.
     */
    std::vector<CubeId> resolvedEntryCubes(std::uint32_t num_cubes) const;

    /**
     * Config-driven workloads: ports [0, workloadPorts) are configured
     * from `workload` at System construction; any port with an
     * explicit host.port<N>.workload key is configured too (override
     * wins).  0 with no per-port keys keeps the seed behaviour of
     * inactive default ports.
     */
    std::uint32_t workloadPorts = 0;

    /** Shared workload defaults (host.workload*). */
    WorkloadSpec workload;

    /** Per-port workloads (fromConfig fills one for every port that
     *  runs one, sorted by port). */
    std::vector<PortWorkload> portWorkloads;

    /**
     * The ports System configures: portWorkloads, then every port
     * below workloadPorts that has no entry, running `workload`.
     */
    std::vector<PortWorkload> resolvedPortWorkloads() const;

    void validate() const;

    /** Read "host.*" keys; a host/port index past the count is fatal. */
    static HostConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_HOST_CONFIG_H_
