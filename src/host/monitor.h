/**
 * @file
 * Per-port monitoring logic, mirroring the AC-510 firmware's monitors:
 * totals of read/write requests, aggregate/min/max read latency, and
 * the cumulative request+response byte count the paper's bandwidth
 * formula uses (Section III-B).
 *
 * A fixed base latency (default ~520 ns) is added to every sample to
 * stand in for the FPGA pipeline and PCIe/driver stages the paper
 * measured at ~547 ns but which are outside the cube model.
 */

#ifndef HMCSIM_HOST_MONITOR_H_
#define HMCSIM_HOST_MONITOR_H_

#include <memory>
#include <optional>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/types.h"
#include "hmc/packet.h"

namespace hmcsim {

class StatList;

class Monitor
{
  public:
    explicit Monitor(double base_latency_ns = 0.0);

    /**
     * Record a completed read (created/completed in ticks).  When the
     * response packet is supplied, the timestamps of the worst-latency
     * read are retained for diagnosis.
     */
    void recordRead(Tick created, Tick completed,
                    std::uint64_t wire_bytes,
                    const HmcPacket *pkt = nullptr);

    /** Record a completed write. */
    void recordWrite(Tick created, Tick completed,
                     std::uint64_t wire_bytes);

    /** Attach a latency histogram (ns axis) to read samples. */
    void enableHistogram(double lo_ns, double hi_ns, std::size_t bins);

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t accesses() const { return reads() + writes(); }

    /** Cumulative request+response bytes, including flit overhead. */
    std::uint64_t wireBytes() const { return wireBytes_.value(); }

    /** Read latency statistics in nanoseconds (base latency included). */
    const SampleStats &readLatencyNs() const { return readNs_; }
    const SampleStats &writeLatencyNs() const { return writeNs_; }

    /** Inter-cube pass-through hops per read (request + response
     *  direction); all-zero without chaining. */
    const SampleStats &chainHops() const { return hops_; }

    /** Distribution of per-read chain hop counts (always on; bin i =
     *  i hops, saturating at 15+).  Adaptive routing widens it when
     *  misroutes take the long way around a ring. */
    const Histogram &chainHopHistogram() const { return hopHist_; }

    const Histogram *histogram() const { return hist_.get(); }

    double baseLatencyNs() const { return baseNs_; }

    /** Timestamp snapshot of the slowest read seen (if packets were
     *  supplied); all-zero when none recorded. */
    const HmcPacket &worstRead() const { return worst_; }

    /** List this monitor's counters, samplers and hop histogram (the
     *  owning port's Component::listStats calls this). */
    void listStats(StatList &s) const;

    /** Clear the state listStats() leaves out: the worst read and the
     *  optional latency histogram. */
    void resetUnlisted();

  private:
    double baseNs_;
    HmcPacket worst_;
    double worstNs_ = -1.0;
    Counter reads_;
    Counter writes_;
    Counter wireBytes_;
    SampleStats readNs_;
    SampleStats writeNs_;
    SampleStats hops_;
    Histogram hopHist_;
    std::unique_ptr<Histogram> hist_;

    double latencyNs(Tick created, Tick completed) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_MONITOR_H_
