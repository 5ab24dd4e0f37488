/**
 * @file
 * Public entry point of the library: System assembles the full stack
 * (FPGA host model + HMC device) from a SystemConfig and provides the
 * run/measure API the examples and benchmarks are written against.
 *
 * Quickstart:
 * @code
 *   SystemConfig cfg;                       // paper's AC-510 defaults
 *   WorkloadSpec gups;                      // random reads, whole cube
 *   gups.requestBytes = 64;
 *   cfg.host.portWorkloads.push_back({0, gups});  // on port 0
 *   System sys(cfg);
 *   sys.run(20 * kMicrosecond);             // warm up
 *   ExperimentResult r = sys.measure(50 * kMicrosecond);
 * @endcode
 *
 * Ports are declared in config (host.workload_ports=N,
 * host.workload=zipf, host.port0.workload=..., see
 * host/workload/workload_spec.h) and are configured and activated at
 * System construction; in code, push PortWorkload entries onto
 * cfg.host.portWorkloads, or set cfg.host.workloadPorts to run
 * cfg.host.workload on the first ports.  configureWorkload() replaces
 * a port of a running System.
 *
 * Multi-host fabrics: host.num_hosts builds N independent FPGA hosts
 * (each with its own ports, controller, tag pools) attached at
 * distinct chain entry cubes (host.host<H>.entry_cube, default spread
 * evenly).  Config-driven workloads are replicated onto every host
 * with decorrelated seeds; the single-port configure* helpers target
 * host 0, configureWorkloadAt() targets any host.  num_hosts=1 is
 * bit-identical to the classic single-host build.
 */

#ifndef HMCSIM_HOST_SYSTEM_H_
#define HMCSIM_HOST_SYSTEM_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chain/cube_network.h"
#include "hmc/hmc_device.h"
#include "host/experiment.h"
#include "host/fpga.h"
#include "host/host_config.h"
#include "obs/observability.h"
#include "sim/sim_config.h"

namespace hmcsim {

/** Whole-system configuration: device plus host infrastructure. */
struct SystemConfig {
    HmcConfig hmc;
    HostConfig host;
    ObsConfig obs;
    /** Engine implementation knobs (never change simulated behaviour). */
    SimConfig sim;

    void validate() const;

    /** Read "hmc.*", "host.*", "obs.*" and "sim.*" keys. */
    static SystemConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

class System
{
  public:
    explicit System(const SystemConfig &cfg = SystemConfig{});

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg_; }

    Kernel &kernel() { return kernel_; }
    Tick now() const { return kernel_.now(); }

    /** Cube @p c; the classic single-cube accessor is device(0). */
    HmcDevice &device(CubeId c = 0);
    std::uint32_t numCubes() const { return cfg_.hmc.chain.numCubes; }

    /** The cube chain; null in the classic single-cube system. */
    CubeNetwork *chain() { return chain_.get(); }

    // ----- host controllers -----

    std::uint32_t
    numHosts() const
    {
        return static_cast<std::uint32_t>(hosts_.size());
    }

    /** Host @p h's FPGA fabric; the classic accessor is fpga(). */
    Fpga &fpga(HostId h = 0);

    /** Chain entry cube of host @p h (0 in the classic system). */
    CubeId hostEntryCube(HostId h) const;

    const AddressMap &addressMap() const;

    /** Port @p p of host 0 (the classic single-host accessor). */
    WorkloadPort &port(PortId p) { return fpga().port(p); }

    /** Port @p p of host @p h. */
    WorkloadPort &portAt(HostId h, PortId p) { return fpga(h).port(p); }

    WorkloadPort &
    configureWorkloadPort(PortId p, WorkloadPort::Params params)
    {
        return fpga().configureWorkloadPort(p, std::move(params));
    }

    /** Replace port @p p of host 0; a given @p trace is replayed
     *  (see buildWorkloadParams). */
    WorkloadPort &
    configureWorkload(PortId p, const WorkloadSpec &spec,
                      std::optional<Trace> trace = {})
    {
        return fpga().configureWorkload(p, spec, std::move(trace));
    }

    /** Configure one port of one specific host. */
    WorkloadPort &
    configureWorkloadAt(HostId h, PortId p, const WorkloadSpec &spec)
    {
        return fpga(h).configureWorkload(p, spec);
    }

    WorkloadPort &
    configureGupsPort(PortId p, const GupsPortSpec &params)
    {
        return fpga().configureGupsPort(p, params);
    }

    /** Advance simulated time by @p duration. */
    void run(Tick duration);

    /**
     * Run until every port of every host is idle (trace replay
     * finished) or @p max_duration elapses.
     * @return true if the system went idle
     */
    bool runUntilIdle(Tick max_duration);

    /** Clear all statistics (monitors, link/NoC/vault counters). */
    void resetStats();

    /** resetStats() + run(): a measured steady-state window. */
    ExperimentResult measure(Tick duration);

    /** Dump the full stat tree (path -> value). */
    std::map<std::string, double> stats() const;

    /** Observability layer, or null when every obs.* knob is off. */
    Observability *obs() { return obs_.get(); }
    const Observability *obs() const { return obs_.get(); }

  private:
    SystemConfig cfg_;
    Kernel kernel_;
    /** Declared before the component tree: components cache pointers
     *  into the observability layer, so it must outlive them. */
    std::unique_ptr<Observability> obs_;
    std::unique_ptr<Component> root_;
    /** Exactly one of cube_ (single-cube, bit-identical legacy
     *  construction) and chain_ (multi-cube network) is set. */
    std::unique_ptr<HmcDevice> cube_;
    std::unique_ptr<CubeNetwork> chain_;
    /** One FPGA fabric per host controller; hosts_[0] is the classic
     *  "fpga" (its component name stays "fpga" when numHosts == 1). */
    std::vector<std::unique_ptr<Fpga>> hosts_;
    /** Resolved entry cube per host. */
    std::vector<CubeId> entryCubes_;

    HostAttach makeAttach(HostId h);
    HostConfig hostConfigFor(HostId h) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_SYSTEM_H_
