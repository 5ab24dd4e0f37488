#include "host/port.h"

#include "common/log.h"
#include "common/units.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

Port::Port(Kernel &kernel, Component *parent, std::string name, PortId id,
           const HostConfig &cfg)
    : Component(kernel, parent, std::move(name)), id_(id),
      fifoDepth_(cfg.portFifoDepth), monitor_(cfg.fixedLatencyNs)
{
    if (Observability *o = kernel.obs()) {
        tracer_ = o->fullTracer();
        lifeTracer_ = o->tracer();
        anatomy_ = o->anatomy();
    }
}

std::uint32_t
Port::headFlits() const
{
    if (fifo_.empty())
        panic("Port::headFlits on empty FIFO");
    return fifo_.front()->flits();
}

Addr
Port::headAddr() const
{
    if (fifo_.empty())
        panic("Port::headAddr on empty FIFO");
    return fifo_.front()->addr;
}

HmcPacketPtr
Port::popRequest()
{
    if (fifo_.empty())
        panic("Port::popRequest on empty FIFO");
    HmcPacketPtr pkt = fifo_.front();
    fifo_.pop_front();
    return pkt;
}

void
Port::pushRequest(const HmcPacketPtr &pkt)
{
    if (fifoFull())
        panic("Port::pushRequest: FIFO overflow");
    pkt->createdAt = now();
    pkt->port = id_;
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::Inject, kTraceNoWhere,
                        id_);
    fifo_.push_back(pkt);
    issued_.inc();
}

void
Port::traceComplete(const HmcPacket &pkt) const
{
    if (anatomy_)
        anatomy_->onComplete(pkt);
    if (!lifeTracer_ || !lifeTracer_->wants(pkt))
        return;
    if (lifeTracer_->mode() == TraceMode::Summary)
        lifeTracer_->recordLifecycle(pkt, id_);
    else
        lifeTracer_->record(now(), pkt, TraceStage::Eject, kTraceNoWhere,
                            id_);
}

std::uint64_t
Port::transactionBytes(const HmcPacket &resp)
{
    // Request + response wire bytes, reconstructed from the response:
    // the pair (cmd, dataBytes) determines both packet sizes.
    const HmcCmd req_cmd = resp.cmd == HmcCmd::ReadResponse
        ? HmcCmd::Read
        : HmcCmd::Write;
    const std::uint32_t req_flits =
        HmcPacket::flitsFor(req_cmd, resp.dataBytes);
    return static_cast<std::uint64_t>(req_flits + resp.flits()) *
        kFlitBytes;
}

void
Port::setActive(bool active)
{
    if (active == active_)
        return;
    if (onActivityChange_)
        onActivityChange_(active);
    active_ = active;
}

bool
Port::idle() const
{
    return fifo_.empty();
}

void
Port::listStats(StatList &s) const
{
    s.counter("issued", issued_);
    monitor_.listStats(s);
}

void
Port::resetOwnStats()
{
    monitor_.resetUnlisted();
}

}  // namespace hmcsim
