#include "host/fpga.h"

#include "common/log.h"
#include "sim/kernel.h"

namespace hmcsim {

Fpga::Fpga(Kernel &kernel, Component *parent, std::string name,
           const HostConfig &cfg, HostAttach attach)
    : Component(kernel, parent, std::move(name)), cfg_(cfg),
      attach_(std::move(attach)),
      clock_(ClockDomain::fromMhz("fpga", cfg.fpgaMhz))
{
    cfg_.validate();
    ctrl_ = std::make_unique<HmcHostController>(kernel, this, "controller",
                                                cfg_, attach_);
    for (PortId p = 0; p < cfg_.numPorts; ++p) {
        ports_.push_back(std::make_unique<WorkloadPort>(
            kernel, this, "port" + std::to_string(p), p, cfg_,
            defaultPortParams(p)));
    }
    rebindController();
}

WorkloadPort::Params
Fpga::defaultPortParams(PortId p) const
{
    GupsPortSpec spec;
    spec.kind = ReqKind::ReadOnly;
    spec.gen.mode = AddrMode::Random;
    spec.gen.pattern = AddressPattern{attach_.totalCapacityBytes - 1, 0};
    spec.gen.requestBytes = 32;
    spec.gen.capacity = attach_.totalCapacityBytes;
    spec.gen.seed = mixSeeds(cfg_.seed, p);
    return workloadFromGupsSpec(spec, cfg_);
}

Port &
Fpga::port(PortId p)
{
    if (p >= ports_.size())
        panic("Fpga::port: port out of range");
    return *ports_[p];
}

void
Fpga::rebindController()
{
    std::vector<Port *> table;
    table.reserve(ports_.size());
    for (auto &p : ports_)
        table.push_back(p.get());
    ctrl_->setPorts(std::move(table));
}

WorkloadPort &
Fpga::configureWorkloadPort(PortId p, WorkloadPort::Params params)
{
    if (p >= ports_.size())
        panic("Fpga::configureWorkloadPort: port out of range");
    auto port = std::make_unique<WorkloadPort>(
        kernel(), this, "port" + std::to_string(p), p, cfg_,
        std::move(params));
    WorkloadPort &ref = *port;
    ports_[p] = std::move(port);
    ref.setActive(true);
    rebindController();
    return ref;
}

WorkloadPort &
Fpga::configureWorkload(PortId p, const WorkloadSpec &spec)
{
    return configureWorkloadPort(
        p, buildWorkloadParams(spec, *attach_.map, cfg_, p));
}

WorkloadPort &
Fpga::configureGupsPort(PortId p, const GupsPortSpec &params)
{
    return configureWorkloadPort(p, workloadFromGupsSpec(params, cfg_));
}

WorkloadPort &
Fpga::configureStreamPort(PortId p, const StreamPortSpec &params)
{
    return configureWorkloadPort(p, workloadFromStreamSpec(params, cfg_));
}

void
Fpga::deactivateAllPorts()
{
    for (auto &p : ports_)
        p->setActive(false);
}

bool
Fpga::allPortsIdle() const
{
    for (const auto &p : ports_) {
        if (!p->idle())
            return false;
    }
    return true;
}

void
Fpga::start()
{
    if (running_)
        return;
    running_ = true;
    const Tick first = clock_.nextEdgeAfter(now());
    kernel().scheduleAt(first, [this] { tickAll(); });
}

void
Fpga::tickAll()
{
    if (!running_)
        return;
    for (auto &p : ports_)
        p->tick();
    ctrl_->tick();
    kernel().scheduleIn(clock_.period(), [this] { tickAll(); });
}

}  // namespace hmcsim
