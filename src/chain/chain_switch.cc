#include "chain/chain_switch.h"

#include "common/log.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

namespace {

std::size_t
kindIndex(ChainHop kind)
{
    switch (kind) {
      case ChainHop::Up: return 0;
      case ChainHop::Down: return 1;
      case ChainHop::Wrap: return 2;
      case ChainHop::Host: return 3;
      case ChainHop::Local:
        break;
    }
    panic("ChainSwitch: Local is not a port kind");
}

}  // namespace

ChainSwitch::ChainSwitch(Kernel &kernel, HmcDevice &dev, std::string name,
                         const ChainRouteTable &routes,
                         const ChainRoutingPolicy &policy,
                         const ChainParams &params)
    : Component(kernel, &dev, std::move(name)), dev_(dev), routes_(routes),
      policy_(policy), params_(params)
{
    for (auto &kind : ports_)
        kind.resize(dev_.numLinks());
    if (Observability *o = kernel.obs())
        tracer_ = o->fullTracer();
}

ChainSwitch::Port &
ChainSwitch::port(ChainHop kind, LinkId l)
{
    if (l >= dev_.numLinks())
        panic("ChainSwitch::port: link out of range");
    Port &p = ports_[kindIndex(kind)][l];
    if (!p.link)
        panic("ChainSwitch: cube " + std::to_string(cubeId()) +
              " routed a packet to an unwired " + toString(kind) +
              " port");
    return p;
}

void
ChainSwitch::setPort(ChainHop kind, LinkId l, SerdesLink *link,
                     LinkDir out_dir, bool consume_rx)
{
    if (l >= dev_.numLinks())
        panic("ChainSwitch::setPort: link out of range");
    Port &p = ports_[kindIndex(kind)][l];
    p.link = link;
    p.outDir = out_dir;
    p.kind = kind;
    p.lane = l;
    if (consume_rx) {
        link->setOnRxAvailable(inDir(p),
                               [this, kind, l] { drainInRx(kind, l); });
    }
}

LinkDir
ChainSwitch::inDir(const Port &p)
{
    return p.outDir == LinkDir::HostToCube ? LinkDir::CubeToHost
                                           : LinkDir::HostToCube;
}

bool
ChainSwitch::isLocal(const HmcPacket &pkt) const
{
    return pkt.isRequest() && pkt.cube == cubeId();
}

ChainPortLoad
ChainSwitch::portLoad(ChainHop kind, LinkId l) const
{
    ChainPortLoad load;
    if (l >= dev_.numLinks())
        return load;
    const Port &p = ports_[kindIndex(kind)][l];
    if (!p.link)
        return load;
    load.wired = true;
    load.queuedFlits = p.qFlits;
    const std::uint32_t queued =
        static_cast<std::uint32_t>(p.q.size());
    load.queueFreePackets = queued >= params_.forwardQueuePackets
        ? 0
        : params_.forwardQueuePackets - queued;
    load.tokensInUse = p.link->tokensInUse(p.outDir);
    return load;
}

ChainPacketView
ChainSwitch::view(const HmcPacket &pkt) const
{
    ChainPacketView v;
    v.toHost = pkt.isResponse();
    // Responses head for the entry cube of the host that issued them;
    // requests for their CUB field.
    v.dest = v.toHost ? routes_.hostEntry(pkt.host) : pkt.cube;
    v.misroutes = pkt.chainMisroutes;
    v.dirLock = pkt.chainDirLock;
    return v;
}

ChainRouteDecision
ChainSwitch::decide(LinkId l, const HmcPacket &pkt) const
{
    return policy_.route(cubeId(), view(pkt), l, *this);
}

void
ChainSwitch::commit(const ChainRouteDecision &d, const HmcPacketPtr &pkt)
{
    switch (d.hop) {
      case ChainHop::Up: routeUp_.inc(); break;
      case ChainHop::Down: routeDown_.inc(); break;
      case ChainHop::Wrap: routeWrap_.inc(); break;
      case ChainHop::Host: routeHost_.inc(); break;
      case ChainHop::Local: break;
    }
    if (d.deviated)
        adaptiveDeviations_.inc();
    if (d.misrouted) {
        misroutes_.inc();
        ++pkt->chainMisroutes;
    }
    pkt->chainDirLock = d.dirLock;
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::ChainForward, cubeId(),
                        static_cast<std::uint32_t>(d.hop));
}

bool
ChainSwitch::tryForward(LinkId l, const HmcPacketPtr &pkt)
{
    const ChainRouteDecision d = decide(l, *pkt);
    if (d.hop == ChainHop::Local)
        panic("ChainSwitch::tryForward: packet is local to cube " +
              std::to_string(cubeId()));
    if (!enqueue(d.hop, l, pkt)) {
        // The device drains the Up port's RX and reports the stop
        // (onDeviceRxBlocked); remember what its head waits on.
        port(ChainHop::Up, l).waitMask = waitsOn(d);
        return false;
    }
    commit(d, pkt);
    return true;
}

void
ChainSwitch::onDeviceRxBlocked(LinkId l)
{
    Port &up = port(ChainHop::Up, l);
    blocked(up, l,
            isLocal(*up.link->rxPeek(inDir(up))) ? bit(ChainHop::Local)
                                                 : up.waitMask);
}

void
ChainSwitch::scheduleKick(Port &p, Tick at)
{
    if (p.kickScheduled)
        return;
    p.kickScheduled = true;
    kernel().scheduleAt(at, [this, &p] {
        p.kickScheduled = false;
        pump(p);
    });
}

bool
ChainSwitch::enqueue(ChainHop kind, LinkId l, const HmcPacketPtr &pkt)
{
    Port &p = port(kind, l);
    if (p.q.size() >= params_.forwardQueuePackets)
        return false;
    // Store-and-forward: the packet was fully received upstream; it
    // traverses the switch in passThroughLatency and then competes for
    // the output link's tokens.
    p.q.push_back(Pending{now() + params_.passThroughLatency, pkt, true});
    p.qFlits += pkt->flits();
    scheduleKick(p, p.q.back().readyAt);
    return true;
}

void
ChainSwitch::pump(Port &p)
{
    bool popped = false;
    while (!p.q.empty()) {
        Pending &head = p.q.front();
        if (head.readyAt > now()) {
            scheduleKick(p, head.readyAt);
            break;
        }
        const std::uint32_t flits = head.pkt->flits();
        if (!p.link->canSend(p.outDir, flits))
            break;  // resumed by the link's tokens-free callback
        p.link->reserveTokens(p.outDir, flits);
        if (head.countHop) {
            if (head.pkt->isRequest()) {
                ++head.pkt->reqHops;
                fwdRequests_.inc();
            } else {
                ++head.pkt->respHops;
                fwdResponses_.inc();
            }
            fwdFlits_.inc(flits);
            // Transit energy lands on THIS cube: it drives the
            // outgoing wire and pays the switch buffering, wherever
            // the link object happens to live.
            if (probe_)
                probe_->record(PowerEvent::ChainForwardFlit, flits);
        }
        p.link->send(p.outDir, head.pkt);
        p.qFlits -= flits;
        p.q.pop_front();
        popped = true;
    }
    if (popped)
        wakeLane(p.lane, p.kind);  // forward-queue space freed
}

void
ChainSwitch::pumpReady()
{
    // A port whose head is not ready yet has a kick posted, so only
    // ports with a ready head can move: the ones transmitting on the
    // direction whose tokens came back, and any ready head that never
    // got a kick of its own because one for a later packet was pending
    // (scheduleKick keeps one kick per port).
    for (auto &kind : ports_) {
        for (Port &p : kind) {
            if (!p.q.empty() && p.q.front().readyAt <= now())
                pump(p);
        }
    }
}

bool
ChainSwitch::behindCanMove(const Port &p, LinkId l) const
{
    // Head-of-line blocking, not plain backpressure: a packet already
    // landed behind the refused head could move right now.  Reading the
    // inject pool's credits does not arm it, unlike canInjectLocal.
    const LinkDir in_dir = inDir(p);
    const CreditPool &pool =
        dev_.network().injectCredits(dev_.linkEndpoint(l));
    for (std::size_t i = 1, n = p.link->rxQueued(in_dir); i < n; ++i) {
        const HmcPacket &pkt = *p.link->rxPeekAt(in_dir, i);
        if (isLocal(pkt) ? pool.available() >= pkt.flits()
                         : portLoad(decide(l, pkt).hop, l).queueFreePackets)
            return true;
    }
    return false;
}

void
ChainSwitch::drainInRx(ChainHop kind, LinkId l)
{
    Port &p = port(kind, l);
    const LinkDir in_dir = inDir(p);
    while (p.link->rxAvailable(in_dir)) {
        const HmcPacketPtr &head = p.link->rxPeek(in_dir);
        if (isLocal(*head)) {
            // Pop before injecting, mirroring HmcDevice::drainLinkRx:
            // the RX token return must take its slot ahead of the
            // injection's events.
            if (!dev_.canInjectLocal(l, head->flits())) {
                blocked(p, l, bit(ChainHop::Local));
                return;  // onLocalInjectSpace retries
            }
            HmcPacketPtr pkt = p.link->rxPop(in_dir);
            if (!dev_.tryInjectLocal(l, pkt))
                panic("ChainSwitch: NoC credits vanished between "
                      "check and inject");
            localInjects_.inc();
            continue;
        }
        const ChainRouteDecision d = decide(l, *head);
        if (!enqueue(d.hop, l, head)) {
            blocked(p, l, waitsOn(d));
            return;  // pump() retries when a queue it waits on pops
        }
        commit(d, head);
        p.link->rxPop(in_dir);
    }
}

void
ChainSwitch::blocked(Port &p, LinkId l, std::uint8_t wait)
{
    p.waitMask = wait;
    // Account each head once, at its first refusal, so retries -- on
    // whatever wake -- count nothing.
    const std::uint64_t pops = p.link->rxPopped(inDir(p));
    if (p.refusedAt == pops)
        return;
    p.refusedAt = pops;
    if (!(wait & bit(ChainHop::Local)))
        queueFullStalls_.inc();
    if (behindCanMove(p, l))
        rxHolStalls_.inc();
}

void
ChainSwitch::wakeLane(LinkId l, ChainHop freed)
{
    // A head waits on its own lane's resources only: retry, in drain
    // order, the lane-l drains whose head waits on the freed one.  The
    // Up port's RX is the device's, and its drain runs first.
    for (std::size_t k = 0; k < kPortKinds; ++k) {
        Port &p = ports_[k][l];
        if (!p.link || !(p.waitMask & bit(freed)) ||
            !p.link->rxAvailable(inDir(p)))
            continue;
        if (p.kind == ChainHop::Up)
            dev_.kickLinkRx(l);
        else
            drainInRx(p.kind, l);
    }
}

void
ChainSwitch::onLocalInjectSpace(LinkId l)
{
    wakeLane(l, ChainHop::Local);
}

bool
ChainSwitch::tryReserveEject(LinkId l, std::uint32_t flits)
{
    Port &p = port(routes_.towardHost(cubeId()), l);
    if (!p.link->canSend(p.outDir, flits))
        return false;
    p.link->reserveTokens(p.outDir, flits);
    return true;
}

void
ChainSwitch::ejectFromNoc(LinkId l, const HmcPacketPtr &pkt)
{
    // Locally generated response leaving its origin cube: not a
    // pass-through forward, so no hop count or transit energy here.
    Port &p = port(routes_.towardHost(cubeId()), l);
    p.link->send(p.outDir, pkt);
}

void
ChainSwitch::ejectRoutedFromNoc(LinkId l, const HmcPacketPtr &pkt)
{
    const ChainRouteDecision d = decide(l, *pkt);
    if (d.hop == ChainHop::Local)
        panic("ChainSwitch::ejectRoutedFromNoc: response routed Local");
    // Unconditional admission past the pass-through queue cap: the
    // NoC's switch allocation already committed this ejection, and the
    // overhang stays bounded by the hosts' outstanding-tag pools (the
    // only source of responses).  No pass-through latency: an origin
    // ejection models the same direct NoC-to-link hand-off as the
    // single-host path, just behind a per-packet route decision.
    Port &p = port(d.hop, l);
    p.q.push_back(Pending{now(), pkt, false});
    p.qFlits += pkt->flits();
    routedEjects_.inc();
    commit(d, pkt);
    pump(p);
}

void
ChainSwitch::listStats(StatList &s) const
{
    s.counter("fwd_requests", fwdRequests_);
    s.counter("fwd_responses", fwdResponses_);
    s.counter("fwd_flits", fwdFlits_);
    s.counter("local_injects", localInjects_);
    s.counter("queue_full_stalls", queueFullStalls_);
    s.counter("rx_hol_stalls", rxHolStalls_);
    s.counter("route_up", routeUp_);
    s.counter("route_down", routeDown_);
    s.counter("route_wrap", routeWrap_);
    s.counter("route_host", routeHost_);
    s.counter("routed_ejects", routedEjects_);
    s.counter("adaptive_deviations", adaptiveDeviations_);
    s.counter("misroutes", misroutes_);
    // Occupancy gauges feeding the congestion heatmaps: total
    // forward-queue flits, plus a per-kind split so a hotspot's
    // direction is visible.
    s.gauge("fwd_q_flits_now", [this] {
        double total = 0.0;
        for (const auto &kind : ports_)
            for (const Port &p : kind)
                total += p.qFlits;
        return total;
    });
    static constexpr const char *kKindGauge[kPortKinds] = {
        "up_q_flits_now", "down_q_flits_now", "wrap_q_flits_now",
        "host_q_flits_now"};
    for (std::size_t k = 0; k < kPortKinds; ++k) {
        s.gauge(kKindGauge[k], [this, k] {
            double total = 0.0;
            for (const Port &p : ports_[k])
                total += p.qFlits;
            return total;
        });
    }
}

}  // namespace hmcsim
