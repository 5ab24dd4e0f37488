#include "host/workload/workload_port.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"
#include "host/workload/sources.h"

namespace hmcsim {

WorkloadPort::WorkloadPort(Kernel &kernel, Component *parent,
                           std::string name, PortId id,
                           const HostConfig &cfg, Params params)
    : Port(kernel, parent, std::move(name), id, cfg),
      source_(std::move(params.source)), kind_(params.kind),
      inject_(params.inject), drainRate_(params.drainFlitsPerCycle),
      window_(inject_.window != 0 ? inject_.window : cfg.tagsPerPort),
      tags_(closedLoop() ? window_ : 1),
      nsPerCycle_(1000.0 / cfg.fpgaMhz),
      bucketCap_(inject_.bucketCap > 0.0
                     ? inject_.bucketCap
                     : std::max(2.0 * inject_.burstiness, 16.0))
{
    if (!source_)
        fatal("WorkloadPort: no traffic source");
    inject_.validate();
    batchRemaining_ = inject_.batchSize;
    if (obsMetrics_.bound()) {
        obsMetrics_.gauge("outstanding_now", [this] {
            return static_cast<double>(outstanding_);
        });
    }
}

bool
WorkloadPort::ensureStaged()
{
    if (stagedValid_)
        return true;
    if (exhausted_)
        return false;
    WorkloadRequest req;
    if (!source_->next(now(), req)) {
        exhausted_ = true;
        return false;
    }
    staged_ = req;
    stagedValid_ = true;
    return true;
}

bool
WorkloadPort::tryIssueOne()
{
    // Gate order mirrors the seed ports exactly so the default specs
    // stay bit-identical: FIFO space, outstanding window, source
    // exhaustion, batch quantization, then RMW write halves ahead of
    // fresh requests.
    if (fifoFull())
        return false;
    if (closedLoop() && outstanding_ >= window_)
        return false;
    if (sourceDone() && pendingWrites_.empty())
        return false;
    if (closedLoop() && inject_.batchSize != 0 && batchRemaining_ == 0) {
        // Wait for the batch to fully complete before restarting.
        if (outstanding_ != 0)
            return false;
        batchRemaining_ = inject_.batchSize;
        batches_.inc();
    }

    if (!pendingWrites_.empty()) {
        const PendingWrite w = pendingWrites_.front();
        pendingWrites_.pop_front();
        HmcPacketPtr pkt = makeWriteRequest(w.addr, w.bytes, id_);
        if (closedLoop())
            pkt->tag = tags_.acquire();
        pushRequest(pkt);
        ++outstanding_;
        hasIssued_ = true;
        lastIssueAt_ = now();
        if (closedLoop() && inject_.batchSize != 0)
            --batchRemaining_;
        return true;
    }

    if (!ensureStaged())
        return false;
    // A request carrying a delay waits that long after the previous
    // issue (trace inter-arrival gaps, on/off burst boundaries).
    if (staged_.delayNs != 0 && hasIssued_ &&
        now() < lastIssueAt_ + staged_.delayNs * kNanosecond)
        return false;

    const bool is_write = kind_ == ReqKind::WriteOnly || staged_.isWrite;
    HmcPacketPtr pkt = is_write
        ? makeWriteRequest(staged_.addr, staged_.bytes, id_)
        : makeReadRequest(staged_.addr, staged_.bytes, id_);
    if (closedLoop())
        pkt->tag = tags_.acquire();
    pushRequest(pkt);
    ++outstanding_;
    hasIssued_ = true;
    lastIssueAt_ = now();
    if (closedLoop() && inject_.batchSize != 0)
        --batchRemaining_;
    stagedValid_ = false;
    return true;
}

void
WorkloadPort::tick()
{
    if (!active_)
        return;

    if (drainRate_ > 0) {
        // Drain responses through the port's AXI-Stream channel: the
        // budget accumulates drainRate_ flits per cycle so multi-flit
        // responses take multiple cycles, which is what throttles
        // large request sizes on the stream path (Fig. 7/8 slopes).
        drainBudget_ = std::min(drainBudget_ + drainRate_, drainCap());
        while (!drainQ_.empty() &&
               drainQ_.front()->flits() <= drainBudget_) {
            const HmcPacketPtr pkt = drainQ_.front();
            drainQ_.pop_front();
            drainBudget_ -= pkt->flits();
            complete(pkt);
        }
    }

    if (openLoop()) {
        const double credit = inject_.ratePerNs * nsPerCycle_;
        // A finished finite source stops offering (otherwise the
        // offered-vs-accepted gap reads as saturation when it is just
        // end-of-trace).
        if (!sourceDone())
            offered_ += credit;
        tokens_ = std::min(tokens_ + credit, bucketCap_);
        if (!releasing_ && tokens_ >= inject_.burstiness)
            releasing_ = true;
        while (releasing_ && tokens_ >= 1.0 && tryIssueOne())
            tokens_ -= 1.0;
        if (tokens_ < 1.0)
            releasing_ = false;
    } else {
        // One new request per cycle at most (firmware behaviour).
        tryIssueOne();
    }
}

bool
WorkloadPort::issueAwaitsResponse() const
{
    // tryIssueOne's closed-loop gates that only a completion opens;
    // while one holds, an issue attempt changes nothing.
    if (fifoFull())
        return false;
    if (outstanding_ >= window_)
        return true;
    if (sourceDone() && pendingWrites_.empty())
        return true;
    return inject_.batchSize != 0 && batchRemaining_ == 0 &&
        outstanding_ != 0;
}

std::uint64_t
WorkloadPort::cyclesToWork() const
{
    if (!active_)
        return kNoSelfWake;
    // Open loop accrues floating-point credit every cycle, which no
    // closed form replays bit-identically; a port that can issue (or
    // waits out a request's delayNs) acts on every edge too.
    if (openLoop() || !issueAwaitsResponse())
        return 1;
    if (drainRate_ == 0 || drainQ_.empty())
        return kNoSelfWake;
    const std::uint32_t need = drainQ_.front()->flits();
    if (need > drainCap())
        return kNoSelfWake;
    if (need <= drainBudget_ + drainRate_)
        return 1;
    return (need - drainBudget_ + drainRate_ - 1) / drainRate_;
}

void
WorkloadPort::skipCycles(std::uint64_t n)
{
    // A no-op tick only refills the drain budget.
    if (active_ && drainRate_ > 0)
        drainBudget_ = replayBudget(drainBudget_, n, drainRate_, drainCap());
}

void
WorkloadPort::onResponse(const HmcPacketPtr &pkt)
{
    if (drainRate_ > 0)
        drainQ_.push_back(pkt);
    else
        complete(pkt);
}

void
WorkloadPort::complete(const HmcPacketPtr &pkt)
{
    pkt->hostArriveAt = now();
    traceComplete(*pkt);
    if (outstanding_ == 0)
        panic("WorkloadPort: response with nothing in flight");
    --outstanding_;
    if (closedLoop())
        tags_.release(pkt->tag);
    if (pkt->cmd == HmcCmd::ReadResponse) {
        monitor_.recordRead(pkt->createdAt, now(), transactionBytes(*pkt),
                            pkt.get());
        // Read-modify-write: queue the write half; it has priority
        // over new reads at the next issue opportunity.
        if (kind_ == ReqKind::ReadModifyWrite)
            pendingWrites_.push_back({pkt->addr, pkt->dataBytes});
    } else {
        monitor_.recordWrite(pkt->createdAt, now(),
                             transactionBytes(*pkt));
    }
}

bool
WorkloadPort::idle() const
{
    const bool done = sourceDone() && pendingWrites_.empty();
    return (done || !active_) && fifo_.empty() && outstanding_ == 0 &&
        drainQ_.empty() && pendingWrites_.empty();
}

void
WorkloadPort::reportOwnStats(std::map<std::string, double> &out) const
{
    Port::reportOwnStats(out);
    if (openLoop()) {
        out[statName("offered_requests")] = offered_;
        out[statName("accepted_requests")] =
            static_cast<double>(issuedRequests());
    }
}

void
WorkloadPort::resetOwnStats()
{
    Port::resetOwnStats();
    offered_ = 0.0;
}

// ----- legacy firmware spec mappings -----

WorkloadPort::Params
workloadFromGupsSpec(const GupsPortSpec &spec, const HostConfig &cfg)
{
    GupsSource::Params sp;
    sp.gen = spec.gen;
    WorkloadPort::Params p;
    p.source = std::make_unique<GupsSource>(sp);
    p.kind = spec.kind;
    p.inject.mode = InjectMode::ClosedLoop;
    p.inject.window = cfg.tagsPerPort;
    p.drainFlitsPerCycle = 0;
    return p;
}

WorkloadPort::Params
workloadFromStreamSpec(StreamPortSpec spec, const HostConfig &cfg)
{
    if (spec.trace.empty())
        fatal("StreamPort: empty trace");
    TraceSource::Params tp;
    tp.trace = std::move(spec.trace);
    tp.loop = spec.loop;
    WorkloadPort::Params p;
    p.source = std::make_unique<TraceSource>(std::move(tp));
    p.kind = ReqKind::ReadOnly;
    p.inject.mode = InjectMode::ClosedLoop;
    p.inject.window = spec.window != 0 ? spec.window : cfg.streamWindow;
    p.inject.batchSize = spec.batchSize;
    p.drainFlitsPerCycle = cfg.streamDrainFlitsPerCycle;
    return p;
}

}  // namespace hmcsim
