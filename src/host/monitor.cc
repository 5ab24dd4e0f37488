#include "host/monitor.h"

#include "common/log.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace hmcsim {

Monitor::Monitor(double base_latency_ns)
    : baseNs_(base_latency_ns), hopHist_(0.0, 16.0, 16)
{
}

double
Monitor::latencyNs(Tick created, Tick completed) const
{
    if (completed < created)
        panic("Monitor: completion before creation");
    return ticksToNs(completed - created) + baseNs_;
}

void
Monitor::recordRead(Tick created, Tick completed, std::uint64_t wire_bytes,
                    const HmcPacket *pkt)
{
    const double ns = latencyNs(created, completed);
    reads_.inc();
    wireBytes_.inc(wire_bytes);
    readNs_.add(ns);
    if (hist_)
        hist_->add(ns);
    if (pkt) {
        hops_.add(static_cast<double>(pkt->reqHops + pkt->respHops));
        hopHist_.add(static_cast<double>(pkt->reqHops + pkt->respHops));
        if (ns > worstNs_) {
            worstNs_ = ns;
            worst_ = *pkt;
        }
    }
}

void
Monitor::recordWrite(Tick created, Tick completed, std::uint64_t wire_bytes)
{
    writes_.inc();
    wireBytes_.inc(wire_bytes);
    writeNs_.add(latencyNs(created, completed));
}

void
Monitor::enableHistogram(double lo_ns, double hi_ns, std::size_t bins)
{
    hist_ = std::make_unique<Histogram>(lo_ns, hi_ns, bins);
}

void
Monitor::listStats(StatList &s) const
{
    s.counter("reads", reads_);
    s.counter("writes", writes_);
    s.counter("wire_bytes", wireBytes_);
    s.sampler("avg_read_latency_ns", readNs_);
    s.sampler("write_latency_ns", writeNs_);
    s.sampler("chain_hops", hops_);
    s.histogram("chain_hop_hist", hopHist_);
}

void
Monitor::resetUnlisted()
{
    worst_ = HmcPacket{};
    worstNs_ = -1.0;
    if (hist_)
        hist_->reset();
}

}  // namespace hmcsim
