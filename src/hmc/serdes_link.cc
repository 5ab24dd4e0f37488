#include "hmc/serdes_link.h"

#include "common/log.h"
#include "common/units.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

SerdesLink::Direction::Direction(Kernel &kernel, const std::string &name,
                                 Tick flit_period, Tick wire_latency,
                                 std::uint32_t token_count)
    : chan(kernel, name, flit_period, wire_latency), tokens(token_count)
{
}

SerdesLink::SerdesLink(Kernel &kernel, Component *parent, std::string name,
                       LinkId id, const Params &params)
    : Component(kernel, parent, std::move(name)), id_(id), params_(params),
      flitPeriod_(serializationTicks(kFlitBytes, params.gbps, params.lanes)),
      dirs_{Direction(kernel, path() + ".down", flitPeriod_,
                      params.wireLatency, params.tokens),
            Direction(kernel, path() + ".up", flitPeriod_,
                      params.wireLatency, params.tokens)},
      rng_(params.seed + id)
{
    if (flitPeriod_ == 0)
        fatal("SerdesLink: link too fast for tick resolution");
    if (Observability *o = kernel.obs()) {
        tracer_ = o->fullTracer();
        obsMetrics_.bind(o->metricsRegistry(), path());
        obsMetrics_.counter("down_packets", &dirs_[0].packets);
        obsMetrics_.counter("up_packets", &dirs_[1].packets);
        obsMetrics_.counter("down_flits", &dirs_[0].flits);
        obsMetrics_.counter("up_flits", &dirs_[1].flits);
        obsMetrics_.counter("crc_retries", &retries_);
        obsMetrics_.gauge("down_tokens_in_use", [this] {
            return static_cast<double>(dirs_[0].tokens.inFlight());
        });
        obsMetrics_.gauge("up_tokens_in_use", [this] {
            return static_cast<double>(dirs_[1].tokens.inFlight());
        });
    }
}

double
SerdesLink::bandwidthGBs() const
{
    return params_.lanes * params_.gbps / 8.0;
}

bool
SerdesLink::canSend(LinkDir d, std::uint32_t flits) const
{
    return dir(d).tokens.canConsume(flits);
}

void
SerdesLink::reserveTokens(LinkDir d, std::uint32_t flits)
{
    Direction &dd = dir(d);
    dd.tokens.consume(flits);
    dd.reserved += flits;
}

void
SerdesLink::send(LinkDir d, const HmcPacketPtr &pkt)
{
    if (!pkt)
        panic("SerdesLink::send: null packet");
    Direction &dd = dir(d);
    const std::uint32_t flits = pkt->flits();
    if (dd.reserved < flits)
        panic("SerdesLink::send without a token reservation");
    dd.reserved -= flits;
    // First transmission only: chained hops re-send the same packet.
    if (d == LinkDir::HostToCube && pkt->linkTxAt == 0)
        pkt->linkTxAt = now();
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::LinkTx, kTraceNoWhere,
                        id_);
    transmit(d, pkt, now());
}

void
SerdesLink::setThrottle(double slowdown)
{
    if (slowdown < 1.0)
        panic("SerdesLink::setThrottle: slowdown below 1.0");
    slowdown_ = slowdown;
}

void
SerdesLink::transmit(LinkDir d, const HmcPacketPtr &pkt, Tick earliest)
{
    Direction &dd = dir(d);
    // Thermal duty-cycling: respect the idle gap the previous packet
    // imposed.  Unthrottled operation never touches throttleFreeAt, so
    // default timing is bit-identical to a probe-free build.
    if (slowdown_ > 1.0)
        earliest = std::max(earliest, dd.throttleFreeAt);
    const Channel::Times t = dd.chan.reserve(pkt->flits(), earliest);
    if (slowdown_ > 1.0)
        dd.throttleFreeAt = t.serDone +
            static_cast<Tick>((slowdown_ - 1.0) *
                              static_cast<double>(t.serDone - t.start));
    dd.packets.inc();
    dd.flits.inc(pkt->flits());
    if (probe_)
        probe_->record(PowerEvent::SerdesFlit, pkt->flits());
    const Tick deliverAt = t.arrival + params_.serdesLatency;

    // CRC failure: the packet is re-transmitted after the retry delay,
    // consuming link bandwidth again; tokens remain held throughout.
    if (params_.crcErrorProb > 0.0 &&
        rng_.nextBool(params_.crcErrorProb)) {
        retries_.inc();
        const Tick retryAt = t.serDone + params_.retryDelay;
        kernel().scheduleAt(retryAt, [this, d, pkt, retryAt] {
            transmit(d, pkt, retryAt);
        });
        return;
    }

    kernel().scheduleAt(deliverAt, [this, d, pkt] { arrive(d, pkt); });
}

void
SerdesLink::arrive(LinkDir d, const HmcPacketPtr &pkt)
{
    Direction &dd = dir(d);
    // Requests stamp the cube-arrival decomposition timestamps in
    // whichever direction the hop runs (ring counter-clockwise legs
    // use CubeToHost): every hop overwrites cubeArriveAt, so the last
    // write is the destination cube, while chainIngressAt keeps the
    // first.  Responses' timestamps were fixed at their origin cube.
    if (pkt->isRequest()) {
        pkt->cubeArriveAt = now();
        if (pkt->chainIngressAt == 0)
            pkt->chainIngressAt = now();
    } else if (pkt->isResponse()) {
        // Every return hop overwrites, so the last write is the issuing
        // host's link RX -- the end of the fabric's share of the
        // response path (what remains is host-side deserialize/drain).
        pkt->respHostLinkAt = now();
    }
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::LinkRx, kTraceNoWhere,
                        id_);
    dd.rxQ.push_back(pkt);
    if (dd.onRxAvailable)
        dd.onRxAvailable();
}

void
SerdesLink::setOnTokensFree(LinkDir d, InlineFunction<void()> fn)
{
    Direction &dd = dir(d);
    dd.onTokensFree = std::move(fn);
    dd.tokens.setOnAvailable([this, &dd] {
        if (dd.onTokensFree)
            dd.onTokensFree();
    });
}

void
SerdesLink::setOnRxAvailable(LinkDir d, InlineFunction<void()> fn)
{
    dir(d).onRxAvailable = std::move(fn);
}

bool
SerdesLink::rxAvailable(LinkDir d) const
{
    return !dir(d).rxQ.empty();
}

const HmcPacketPtr &
SerdesLink::rxPeek(LinkDir d) const
{
    if (dir(d).rxQ.empty())
        panic("SerdesLink::rxPeek: RX buffer empty");
    return dir(d).rxQ.front();
}

std::size_t
SerdesLink::rxQueued(LinkDir d) const
{
    return dir(d).rxQ.size();
}

const HmcPacketPtr &
SerdesLink::rxPeekAt(LinkDir d, std::size_t i) const
{
    const Direction &dd = dir(d);
    if (i >= dd.rxQ.size())
        panic("SerdesLink::rxPeekAt: index out of range");
    return dd.rxQ[i];
}

std::uint32_t
SerdesLink::tokensFree(LinkDir d) const
{
    return dir(d).tokens.available();
}

std::uint32_t
SerdesLink::tokensInUse(LinkDir d) const
{
    return dir(d).tokens.inFlight();
}

std::uint32_t
SerdesLink::tokenCapacity(LinkDir d) const
{
    return dir(d).tokens.capacity();
}

HmcPacketPtr
SerdesLink::rxPop(LinkDir d)
{
    Direction &dd = dir(d);
    if (dd.rxQ.empty())
        panic("SerdesLink::rxPop: RX buffer empty");
    HmcPacketPtr pkt = dd.rxQ.front();
    dd.rxQ.pop_front();
    ++dd.rxPops;
    const std::uint32_t flits = pkt->flits();
    kernel().scheduleIn(params_.tokenReturnLatency,
                        [&dd, flits] { dd.tokens.refund(flits); });
    return pkt;
}

std::uint64_t
SerdesLink::packetsSent(LinkDir d) const
{
    return dir(d).packets.value();
}

std::uint64_t
SerdesLink::flitsSent(LinkDir d) const
{
    return dir(d).flits.value();
}

std::uint64_t
SerdesLink::bytesSent(LinkDir d) const
{
    return dir(d).flits.value() * kFlitBytes;
}

double
SerdesLink::utilization(LinkDir d, Tick window) const
{
    if (window == 0)
        return 0.0;
    const Tick busy = dir(d).chan.busyTime() - dir(d).busyBase;
    return static_cast<double>(busy) / static_cast<double>(window);
}

void
SerdesLink::reportOwnStats(std::map<std::string, double> &out) const
{
    out[statName("down_packets")] =
        static_cast<double>(dirs_[0].packets.value());
    out[statName("up_packets")] =
        static_cast<double>(dirs_[1].packets.value());
    out[statName("down_flits")] =
        static_cast<double>(dirs_[0].flits.value());
    out[statName("up_flits")] = static_cast<double>(dirs_[1].flits.value());
    out[statName("crc_retries")] = static_cast<double>(retries_.value());
}

void
SerdesLink::resetOwnStats()
{
    for (Direction &d : dirs_) {
        d.packets.reset();
        d.flits.reset();
        d.busyBase = d.chan.busyTime();
    }
    retries_.reset();
}

}  // namespace hmcsim
