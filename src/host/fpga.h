/**
 * @file
 * The FPGA fabric: nine request ports and the host HMC controller on
 * one 187.5 MHz clock.  The clock ticks only the edges where a port or
 * the controller has work and replays the no-op edges it skips, so a
 * run matches a clock that ticks every edge bit for bit (see
 * Fpga::plan).  Ports start as inactive GUPS-sourced WorkloadPorts and
 * are replaced in place when an experiment (or the config-driven
 * workload layer) configures them.
 */

#ifndef HMCSIM_HOST_FPGA_H_
#define HMCSIM_HOST_FPGA_H_

#include <memory>
#include <vector>

#include "host/hmc_host_controller.h"
#include "host/workload/workload_build.h"
#include "host/workload/workload_port.h"
#include "sim/clock.h"

namespace hmcsim {

class Fpga : public Component
{
  public:
    Fpga(Kernel &kernel, Component *parent, std::string name,
         const HostConfig &cfg, HostAttach attach);

    const HostConfig &config() const { return cfg_; }
    const ClockDomain &clock() const { return clock_; }

    Port &port(PortId p);
    std::uint32_t numPorts() const { return cfg_.numPorts; }

    /** Replace port @p p with a fully parameterized port (active). */
    WorkloadPort &configureWorkloadPort(PortId p,
                                        WorkloadPort::Params params);

    /** Replace port @p p per a config-level workload spec (active). */
    WorkloadPort &configureWorkload(PortId p, const WorkloadSpec &spec);

    /** Replace port @p p with a GUPS-firmware port (active). */
    WorkloadPort &configureGupsPort(PortId p, const GupsPortSpec &params);

    /** Replace port @p p with a stream-firmware port (active). */
    WorkloadPort &configureStreamPort(PortId p,
                                      const StreamPortSpec &params);

    /** Deactivate every port (they keep their workload). */
    void deactivateAllPorts();

    HmcHostController &controller() { return *ctrl_; }

    /** Begin ticking at the first edge after now; idempotent. */
    void start();

    /** True when every port reports idle. */
    bool allPortsIdle() const;

  private:
    HostConfig cfg_;
    HostAttach attach_;
    ClockDomain clock_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::unique_ptr<HmcHostController> ctrl_;
    bool running_ = false;
    /** False when a wake could not keep the free-running order (see
     *  plan()): the clock then ticks every edge. */
    bool skipAhead_ = true;
    /** First edge neither ticked nor replayed yet. */
    Tick nextEdge_ = 0;
    /** Edge of the next scheduled tick; kTickNever while asleep, 0
     *  before start() so that no wake can schedule one. */
    Tick plannedEdge_ = 0;
    /** Time of the live relay event; kTickNever when none. */
    Tick relayAt_ = kTickNever;
    /** Generation of the live tick event; older ones are dropped when
     *  they fire. */
    std::uint64_t gen_ = 0;

    void tickAll();
    void plan();
    void relay(Tick at);
    void postTick(Tick edge);
    void replayTo(Tick edge);
    void wakeAt(Tick edge);
    void onPortActivity(bool activating);
    void adopt(Port &port);
    void rebindController();
    WorkloadPort::Params defaultPortParams(PortId p) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_FPGA_H_
