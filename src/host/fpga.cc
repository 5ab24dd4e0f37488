#include "host/fpga.h"

#include <algorithm>

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
        adopt(*ports_.back());
    }
    rebindController();
    const Tick period = clock_.period();
    for (SerdesLink *lk : attach_.links) {
        lk->setOnRxAvailable(LinkDir::CubeToHost, [this] {
            if (plannedEdge_ != nextEdge_)
                wakeAt(clock_.nextEdgeAtOrAfter(now()));
        });
        // The shortest lead with which a response arrival (or a request
        // retry) can be scheduled; plan() needs both above one period.
        const SerdesLink::Params &lp = lk->params();
        const Tick flight =
            lk->flitPeriod() + lp.wireLatency + lp.serdesLatency;
        const bool retries = lp.crcErrorProb > 0.0;
        if (flight <= period ||
            (retries && lk->flitPeriod() + lp.retryDelay <= period))
            skipAhead_ = false;
    }
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
Fpga::adopt(Port &port)
{
    port.setOnActivityChange([this](bool activating) {
        onPortActivity(activating);
    });
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
    adopt(ref);
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
    nextEdge_ = clock_.nextEdgeAfter(now());
    postTick(nextEdge_);
}

void
Fpga::postTick(Tick edge)
{
    plannedEdge_ = edge;
    const std::uint64_t g = ++gen_;
    kernel().scheduleAt(edge, [this, g] {
        if (g == gen_)
            tickAll();
    });
}

void
Fpga::tickAll()
{
    replayTo(now());
    for (auto &p : ports_)
        p->tick();
    ctrl_->tick();
    nextEdge_ = now() + clock_.period();
    plan();
}

/*
 * The clock ticks only edges where some tick changes state.  After a
 * tick, every port and the controller report how many cycles remain
 * until theirs next does (cyclesToWork); the clock sleeps through the
 * edges in between and, before the next tick, replays them in closed
 * form (replayTo).  A response landing in a host link's RX or a port
 * (re)activation wakes it at the first edge the free-running clock
 * would have seen it on.
 *
 * That alone keeps every tick on a free-running edge; bit-identity
 * also needs each tick to keep its place among the events that share
 * its time.  The free-running clock posts the tick at edge E from the
 * tick at E - P (P = one period), so the tick follows every event
 * scheduled for E before E - P and precedes every one scheduled after.
 * A tick due at the next edge is posted the same way.  A later tick is
 * posted by a relay event at E - P, so the same split holds up to the
 * events scheduled at exactly E - P.  A wake posts the tick at E from
 * some time in (E - P, E].  Either way, only events landing on E with
 * a lead of at most P can change places with the tick.  Of the events
 * that touch host state, response arrivals and request retries have a
 * longer lead: the constructor falls back to ticking every edge
 * (skipAhead_) for links whose shortest flight or retry delay is not
 * longer than P.  A token return on a request link has a shorter lead
 * (3.2 ns by default) but only matters to a tick that sends; the
 * controller lets the clock sleep only while every link holds the
 * tokens for a full cycle of sends, so an early or late token return
 * cannot change one.
 */
void
Fpga::plan()
{
    std::uint64_t n = skipAhead_ ? ctrl_->cyclesToWork() : 1;
    for (auto &p : ports_) {
        if (n == 1)
            break;
        n = std::min(n, p->cyclesToWork());
    }
    if (n == Port::kNoSelfWake) {
        plannedEdge_ = kTickNever;
        return;
    }
    if (n == 1) {
        postTick(nextEdge_);
        return;
    }
    plannedEdge_ = now() + n * clock_.period();
    const Tick at = plannedEdge_ - clock_.period();
    // A relay a wake left pending may already serve this edge.
    if (relayAt_ == at)
        return;
    relayAt_ = at;
    kernel().scheduleAt(at, [this, at] { relay(at); });
}

void
Fpga::relay(Tick at)
{
    if (relayAt_ != at)
        return;  // superseded by a later plan
    relayAt_ = kTickNever;
    if (plannedEdge_ == at + clock_.period())
        postTick(plannedEdge_);
}

void
Fpga::replayTo(Tick edge)
{
    if (edge <= nextEdge_)
        return;
    const std::uint64_t n = (edge - nextEdge_) / clock_.period();
    for (auto &p : ports_)
        p->skipCycles(n);
    ctrl_->skipCycles(n);
    nextEdge_ = edge;
}

void
Fpga::wakeAt(Tick edge)
{
    edge = std::max(edge, nextEdge_);
    if (edge < plannedEdge_)
        postTick(edge);
}

void
Fpga::onPortActivity(bool activating)
{
    // Ports change activity between runs, when every event up to now
    // has fired: the edges up to now count as ticked.  Settle them
    // before the change so replay credits only the cycles the port
    // was active.
    const Tick next = clock_.nextEdgeAfter(now());
    replayTo(std::min(next, plannedEdge_));
    if (activating)
        wakeAt(next);
}

}  // namespace hmcsim
