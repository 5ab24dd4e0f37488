#include "chain/chain_switch.h"

#include <algorithm>

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
        // The device drains the Up port's RX: account its refused head
        // there, and remember which queue it waits on.
        Port &up = port(ChainHop::Up, l);
        noteQueueFull(up);
        up.waitHop = d.hop;
        return false;
    }
    commit(d, pkt);
    return true;
}

void
ChainSwitch::onDeviceRxBlocked(LinkId l)
{
    if (policy_.readsLoads()) {
        dev_.armLinkInjects();
        return;
    }
    Port &up = port(ChainHop::Up, l);
    const LinkDir in_dir = inDir(up);
    if (isLocal(*up.link->rxPeek(in_dir)))
        up.waitHop = ChainHop::Local;
    // The device's drain does not evaluate this RX's HOL memo; the
    // switch does, at its wakes.  A packet that joined behind the
    // blocked head and could move right now is evaluated at the next
    // wake on any lane -- where retrying every drain used to evaluate
    // it -- so every lane's pool stays armed until then.  One that
    // cannot move yet can start to only through a pop or a return on
    // this lane, which wake it anyway.
    if (!up.holPending && up.holCountedAt != up.link->rxPopped(in_dir) &&
        scanBehind(up, in_dir, l, true)) {
        up.holPending = true;
        dev_.armLinkInjects();
    }
}

void
ChainSwitch::noteQueueFull(Port &p)
{
    const std::uint64_t pops = p.link->rxPopped(inDir(p));
    if (p.fullCountedAt != pops) {
        p.fullCountedAt = pops;
        queueFullStalls_.inc();
    }
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
    if (!popped)
        return;
    // Forward-queue space freed: the drains waiting on it may move.
    if (policy_.readsLoads()) {
        for (LinkId l = 0; l < dev_.numLinks(); ++l)
            dev_.kickLinkRx(l);
        drainAllInRx();
        return;
    }
    Port &up = ports_[kindIndex(ChainHop::Up)][p.lane];
    if (up.waitHop == p.kind && up.link->rxAvailable(inDir(up)))
        dev_.kickLinkRx(p.lane);
    wakeLane(p.lane, p.kind);
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
ChainSwitch::couldProgress(const ChainRouteDecision &d, LinkId l) const
{
    if (d.hop == ChainHop::Local)
        return true;  // checked against NoC credits by the caller
    const ChainPortLoad load = portLoad(d.hop, l);
    return load.wired && load.queueFreePackets > 0;
}

bool
ChainSwitch::scanBehind(Port &p, LinkDir in_dir, LinkId l, bool probe)
{
    const std::uint64_t pops = p.link->rxPopped(in_dir);
    if (p.behindPops != pops) {
        p.behindPops = pops;
        p.behindScanned = 1;
        p.behindMinLocal = kNoLocal;
        p.behindViews.clear();
    }
    // Fold in the packets that arrived since the last look.
    bool movable = false;
    const std::size_t waiting = p.link->rxQueued(in_dir);
    for (; p.behindScanned < waiting; ++p.behindScanned) {
        const HmcPacket &behind = *p.link->rxPeekAt(in_dir, p.behindScanned);
        if (isLocal(behind)) {
            if (behind.flits() < p.behindMinLocal) {
                p.behindMinLocal = behind.flits();
                movable = movable ||
                    (probe && dev_.canInjectLocal(l, p.behindMinLocal));
            }
            continue;
        }
        const ChainPacketView v = view(behind);
        const auto same = [&v](const ChainPacketView &w) {
            return w.dest == v.dest && w.toHost == v.toHost &&
                w.misroutes == v.misroutes && w.dirLock == v.dirLock;
        };
        if (std::none_of(p.behindViews.begin(), p.behindViews.end(), same)) {
            p.behindViews.push_back(v);
            movable = movable ||
                (probe &&
                 couldProgress(policy_.route(cubeId(), v, l, *this), l));
        }
    }
    return movable;
}

void
ChainSwitch::noteRxHolStall(Port &p, LinkDir in_dir, LinkId l)
{
    // The head could not move.  If anything queued behind it routes to
    // a *different* output that has space, this stall is head-of-line
    // blocking, not plain backpressure -- account it so saturation
    // studies can tell the two apart.  One count per blocked-head
    // episode: retry kicks on the same stuck head do not inflate it
    // (a pop -- by this drain or the device's -- starts a new one).
    p.holPending = false;
    const std::uint64_t pops = p.link->rxPopped(in_dir);
    if (p.holCountedAt == pops)
        return;
    scanBehind(p, in_dir, l, false);
    // Re-route each distinct view against the live loads.
    bool movable = p.behindMinLocal != kNoLocal &&
        dev_.canInjectLocal(l, p.behindMinLocal);
    for (std::size_t i = 0; !movable && i < p.behindViews.size(); ++i)
        movable = couldProgress(
            policy_.route(cubeId(), p.behindViews[i], l, *this), l);
    if (movable) {
        rxHolStalls_.inc();
        p.holCountedAt = pops;
    }
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
                blocked(p, l, ChainHop::Local);
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
            noteQueueFull(p);
            blocked(p, l, d.hop);
            return;  // pump() retries when the queue drains
        }
        commit(d, head);
        p.link->rxPop(in_dir);
    }
}

void
ChainSwitch::blocked(Port &p, LinkId l, ChainHop wait)
{
    noteRxHolStall(p, inDir(p), l);
    p.waitHop = wait;
    // A load-reading route may change at any wake: every drain is
    // retried on every lane's inject-space callback, so arm them all.
    if (policy_.readsLoads())
        dev_.armLinkInjects();
}

void
ChainSwitch::wakeLane(LinkId l, ChainHop freed)
{
    // Under load-blind routes a head waits on its own lane's resources
    // only: retry, in drain order, the lane-l drains whose head waits
    // on the freed one (a forward queue of kind `freed`, or the inject
    // pool when it is Local), and evaluate the HOL memo of every other
    // blocked drain whose "movable" this can turn true.  That is every
    // blocked lane-l drain plus the device-drained RX queues that got
    // an arrival behind their head since the last wake (see
    // onDeviceRxBlocked); a switch-drained RX evaluates its own
    // arrivals.  The Up ports come first, as the device's drains did.
    for (std::size_t k = 0; k < kPortKinds; ++k) {
        for (LinkId lane = 0; lane < dev_.numLinks(); ++lane) {
            Port &p = ports_[k][lane];
            if (!p.link || (lane != l && !p.holPending))
                continue;
            const LinkDir in_dir = inDir(p);
            if (!p.link->rxAvailable(in_dir)) {
                p.holPending = false;
                continue;
            }
            if (lane == l && p.kind != ChainHop::Up && p.waitHop == freed)
                drainInRx(p.kind, l);
            else
                noteRxHolStall(p, in_dir, lane);
        }
    }
}

void
ChainSwitch::drainAllInRx()
{
    static constexpr ChainHop kKinds[] = {ChainHop::Up, ChainHop::Down,
                                          ChainHop::Wrap, ChainHop::Host};
    for (const ChainHop kind : kKinds) {
        for (LinkId l = 0; l < dev_.numLinks(); ++l) {
            if (ports_[kindIndex(kind)][l].link)
                drainInRx(kind, l);
        }
    }
}

void
ChainSwitch::onLocalInjectSpace(LinkId l)
{
    if (policy_.readsLoads())
        drainAllInRx();
    else
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
