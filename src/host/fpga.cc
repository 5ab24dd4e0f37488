#include "host/fpga.h"

#include <algorithm>

#include "common/log.h"
#include "obs/observability.h"
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
                                                cfg_, attach_, ports_);
    for (PortId p = 0; p < cfg_.numPorts; ++p) {
        ports_.push_back(std::make_unique<WorkloadPort>(
            kernel, this, "port" + std::to_string(p), p, cfg_,
            defaultPortParams(p)));
        adopt(*ports_.back());
    }
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
    WorkloadSpec spec;  // 32 B random reads over every vault and bank
    spec.patternVaults = 1u << attach_.map->vaultBits();
    spec.patternBanks = 1u << attach_.map->bankBits();
    return buildWorkloadParams(spec, *attach_.map, cfg_, p);
}

WorkloadPort &
Fpga::port(PortId p)
{
    if (p >= ports_.size())
        panic("Fpga::port: port out of range");
    return *ports_[p];
}

void
Fpga::adopt(WorkloadPort &port)
{
    port.setOnActivityChange([this](bool activating) {
        onPortActivity(activating);
    });
}

WorkloadPort &
Fpga::configureWorkloadPort(PortId p, WorkloadPort::Params params)
{
    if (p >= ports_.size())
        panic("Fpga::configureWorkloadPort: port out of range");
    if (const std::uint32_t in_flight = ports_[p]->inFlight())
        fatal(path() + ": cannot replace port " + std::to_string(p) +
              " with " + std::to_string(in_flight) +
              " requests in flight; deactivate it and run until it "
              "drains first");
    auto port = std::make_unique<WorkloadPort>(
        kernel(), this, "port" + std::to_string(p), p, cfg_,
        std::move(params));
    WorkloadPort &ref = *port;
    adopt(ref);
    ports_[p] = std::move(port);  // the old port leaves the registry
    if (MetricsRegistry *reg = boundRegistry()) {
        ref.bindMetrics(*reg);
        if (Observability *obs = kernel().obs())
            obs->onComponentReplaced(ref.path());
    }
    ref.setActive(true);
    return ref;
}

WorkloadPort &
Fpga::configureWorkload(PortId p, const WorkloadSpec &spec,
                        std::optional<Trace> trace)
{
    return configureWorkloadPort(
        p, buildWorkloadParams(spec, *attach_.map, cfg_, p,
                               std::move(trace)));
}

WorkloadPort &
Fpga::configureGupsPort(PortId p, const GupsPortSpec &params)
{
    return configureWorkloadPort(p, workloadFromGupsPortSpec(params, cfg_));
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
    syncRxArm();
}

void
Fpga::syncRxArm()
{
    // A response arrival wakes the clock only while it sleeps past its
    // next edge; otherwise the tick due there reads the RX itself, so
    // the arrival needs no event.  Before start() every arrival keeps
    // its event (nothing else would step the run onto it).
    const bool armed = !running_ || plannedEdge_ != nextEdge_;
    if (armed == rxArmed_)
        return;
    rxArmed_ = armed;
    for (SerdesLink *lk : attach_.links)
        lk->setRxArmed(LinkDir::CubeToHost, armed);
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
    if (n == WorkloadPort::kNoSelfWake) {
        plannedEdge_ = kTickNever;
        syncRxArm();
        return;
    }
    if (n == 1) {
        postTick(nextEdge_);
        return;
    }
    plannedEdge_ = now() + n * clock_.period();
    syncRxArm();
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
    syncRxArm();
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
