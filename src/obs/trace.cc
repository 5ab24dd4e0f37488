#include "obs/trace.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace hmcsim {

const char *
toString(TraceStage s)
{
    switch (s) {
      case TraceStage::Inject:
        return "inject";
      case TraceStage::LinkTx:
        return "link_tx";
      case TraceStage::LinkRx:
        return "link_rx";
      case TraceStage::ChainIngress:
        return "chain_ingress";
      case TraceStage::ChainForward:
        return "chain_forward";
      case TraceStage::VaultEnqueue:
        return "vault_enqueue";
      case TraceStage::DramDone:
        return "dram_done";
      case TraceStage::RespInject:
        return "resp_inject";
      case TraceStage::Eject:
        return "eject";
    }
    return "?";
}

PacketTracer::PacketTracer(TraceMode mode, std::uint64_t sample_every,
                           std::size_t capacity)
    : mode_(mode), sampleEvery_(sample_every == 0 ? 1 : sample_every),
      cap_(capacity == 0 ? 1 : capacity)
{
    ring_.reserve(std::min<std::size_t>(cap_, 4096));
}

void
PacketTracer::push(const TraceEvent &ev)
{
    ++total_;
    if (ring_.size() < cap_) {
        ring_.push_back(ev);
        return;
    }
    ring_[next_] = ev;
    next_ = (next_ + 1) % cap_;
    wrapped_ = true;
}

void
PacketTracer::record(Tick tick, const HmcPacket &pkt, TraceStage stage,
                     std::uint32_t cube, std::uint32_t where)
{
    if (!wants(pkt))
        return;
    TraceEvent ev;
    ev.tick = tick;
    ev.packet = lifeId(pkt);
    ev.stage = stage;
    ev.cmd = pkt.cmd;
    ev.cube = cube;
    ev.where = where;
    push(ev);
}

void
PacketTracer::recordLifecycle(const HmcPacket &pkt, std::uint32_t port)
{
    if (!wants(pkt))
        return;
    const auto at = [&](Tick t, TraceStage stage, std::uint32_t cube,
                        std::uint32_t where) {
        if (t == 0)
            return;  // stage never reached / not stamped
        TraceEvent ev;
        ev.tick = t;
        ev.packet = lifeId(pkt);
        ev.stage = stage;
        ev.cmd = pkt.cmd;
        ev.cube = cube;
        ev.where = where;
        push(ev);
    };
    at(pkt.createdAt, TraceStage::Inject, kTraceNoWhere, port);
    at(pkt.linkTxAt, TraceStage::LinkTx, kTraceNoWhere, pkt.link);
    at(pkt.chainIngressAt, TraceStage::ChainIngress, kTraceNoWhere,
       pkt.link);
    at(pkt.vaultArriveAt, TraceStage::VaultEnqueue, pkt.cube, pkt.vault);
    at(pkt.dataReadyAt, TraceStage::DramDone, pkt.cube, pkt.vault);
    at(pkt.respInjectAt, TraceStage::RespInject, pkt.cube, pkt.vault);
    at(pkt.hostArriveAt, TraceStage::Eject, kTraceNoWhere, port);
}

std::vector<TraceEvent>
PacketTracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (wrapped_ && ring_.size() == cap_) {
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(ring_[(next_ + i) % cap_]);
    } else {
        out = ring_;
    }
    return out;
}

void
PacketTracer::clear()
{
    ring_.clear();
    next_ = 0;
    wrapped_ = false;
}

void
PacketTracer::dumpChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    emitChromeEvents(os, first);
    os << "\n]}\n";
}

void
PacketTracer::emitChromeEvents(std::ostream &os, bool &first) const
{
    // Group the buffer per packet; within a packet events are already
    // chronological because each packet records its stages in order.
    std::map<PacketId, std::vector<TraceEvent>> perPacket;
    for (const TraceEvent &ev : events())
        perPacket[ev.packet].push_back(ev);

    const auto ts = [](Tick t) {
        return static_cast<double>(t) / 1e6;  // ps -> us
    };
    const auto comma = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    comma();
    os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":\"hmcsim packets\"}}";
    for (const auto &[id, evs] : perPacket) {
        // Consecutive stages become complete slices: the packet is "in"
        // stage i from its timestamp until the next event.
        for (std::size_t i = 0; i + 1 < evs.size(); ++i) {
            const TraceEvent &a = evs[i];
            const TraceEvent &b = evs[i + 1];
            comma();
            os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << id
               << ",\"name\":\"" << toString(a.stage) << "\",\"cat\":\""
               << toString(a.cmd) << "\",\"ts\":" << ts(a.tick)
               << ",\"dur\":" << ts(b.tick - a.tick) << ",\"args\":{";
            if (a.cube != kTraceNoWhere)
                os << "\"cube\":" << a.cube << ",";
            if (a.where != kTraceNoWhere)
                os << "\"where\":" << a.where << ",";
            os << "\"packet\":" << id << "}}";
        }
        if (!evs.empty()) {
            const TraceEvent &last = evs.back();
            comma();
            os << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << id
               << ",\"name\":\"" << toString(last.stage)
               << "\",\"s\":\"t\",\"ts\":" << ts(last.tick)
               << ",\"args\":{\"packet\":" << id << "}}";
        }
    }
}

void
PacketTracer::dumpLastEvents(std::ostream &os, std::size_t n) const
{
    const std::vector<TraceEvent> evs = events();
    const std::size_t start = evs.size() > n ? evs.size() - n : 0;
    os << "packet trace: last " << (evs.size() - start) << " of "
       << total_ << " recorded events\n";
    for (std::size_t i = start; i < evs.size(); ++i) {
        const TraceEvent &ev = evs[i];
        os << "  t=" << ev.tick << "ps pkt=" << ev.packet << " "
           << toString(ev.cmd) << " " << toString(ev.stage);
        if (ev.cube != kTraceNoWhere)
            os << " cube=" << ev.cube;
        if (ev.where != kTraceNoWhere)
            os << " at=" << ev.where;
        os << "\n";
    }
}

}  // namespace hmcsim
