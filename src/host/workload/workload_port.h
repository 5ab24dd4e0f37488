/**
 * @file
 * WorkloadPort: the single FPGA request port, parameterized by a
 * TrafficSource (what to access) and an InjectionConfig (when to
 * inject).  It subsumes the seed's GupsPort (tag-limited generated
 * traffic, immediate response completion) and StreamPort (windowed
 * trace replay with a rate-limited response drain); the legacy
 * GupsPortSpec / StreamPortSpec mappings reproduce both firmware
 * behaviours bit-identically.
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_

#include "host/addr_gen.h"
#include "host/port.h"
#include "host/tag_pool.h"
#include "host/trace.h"
#include "host/workload/injection.h"
#include "host/workload/traffic_source.h"

namespace hmcsim {

class WorkloadPort : public Port
{
  public:
    /** Move-only (owns the traffic source). */
    struct Params {
        TrafficSourcePtr source;
        ReqKind kind = ReqKind::ReadOnly;
        InjectionConfig inject;
        /**
         * Response drain rate in flits per FPGA cycle through the
         * port's AXI-Stream channel; 0 = responses complete the cycle
         * they arrive (the GUPS firmware path).
         */
        std::uint32_t drainFlitsPerCycle = 0;
    };

    WorkloadPort(Kernel &kernel, Component *parent, std::string name,
                 PortId id, const HostConfig &cfg, Params params);

    void tick() override;
    std::uint64_t cyclesToWork() const override;
    void skipCycles(std::uint64_t n) override;
    void onResponse(const HmcPacketPtr &pkt) override;
    bool idle() const override;

    const TrafficSource &source() const { return *source_; }
    const InjectionConfig &injection() const { return inject_; }
    bool openLoop() const { return inject_.mode == InjectMode::OpenLoop; }

    /** Outstanding-request bookkeeping (closed loop uses real tags). */
    const TagPool &tags() const { return tags_; }
    std::uint32_t inFlight() const { return outstanding_; }

    std::uint64_t batchesCompleted() const { return batches_.value(); }

    /** Open loop: requests offered by the rate controller over the
     *  stats window (accepted = issuedRequests()). */
    double offeredRequests() const { return offered_; }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

  private:
    struct PendingWrite {
        Addr addr;
        std::uint32_t bytes;
    };

    TrafficSourcePtr source_;
    ReqKind kind_;
    InjectionConfig inject_;
    std::uint32_t drainRate_;
    std::uint32_t window_;
    TagPool tags_;
    double nsPerCycle_;
    double bucketCap_;

    std::uint32_t outstanding_ = 0;
    std::uint32_t batchRemaining_ = 0;
    bool exhausted_ = false;
    bool stagedValid_ = false;
    WorkloadRequest staged_;
    bool hasIssued_ = false;
    Tick lastIssueAt_ = 0;
    std::deque<PendingWrite> pendingWrites_;
    std::deque<HmcPacketPtr> drainQ_;
    std::uint32_t drainBudget_ = 0;
    double tokens_ = 0.0;
    bool releasing_ = false;
    double offered_ = 0.0;
    Counter batches_;

    bool closedLoop() const
    {
        return inject_.mode == InjectMode::ClosedLoop;
    }
    bool sourceDone() const { return exhausted_ && !stagedValid_; }
    std::uint32_t drainCap() const { return std::max(2 * drainRate_, 12u); }
    bool issueAwaitsResponse() const;
    bool ensureStaged();
    bool tryIssueOne();
    void complete(const HmcPacketPtr &pkt);
};

// ----- legacy firmware specs (the seed's port parameterizations) -----

/** The vendor GUPS firmware: tag-limited generated traffic. */
struct GupsPortSpec {
    ReqKind kind = ReqKind::ReadOnly;
    GupsAddrGen::Params gen;
};

/** The multi-port stream firmware: windowed trace replay. */
struct StreamPortSpec {
    Trace trace;
    /** Loop the trace forever (continuous load). */
    bool loop = true;
    /** Max requests in flight; 0 uses the host config default. */
    std::uint32_t window = 0;
    /**
     * Batch mode: issue @p batchSize requests, wait for all
     * responses, repeat.  0 = continuous windowed issue.
     * This is the paper's "number of requests in a stream".
     */
    std::uint32_t batchSize = 0;
};

/** Map a legacy GUPS spec onto WorkloadPort parameters. */
WorkloadPort::Params workloadFromGupsSpec(const GupsPortSpec &spec,
                                          const HostConfig &cfg);

/** Map a legacy stream spec onto WorkloadPort parameters. */
WorkloadPort::Params workloadFromStreamSpec(StreamPortSpec spec,
                                            const HostConfig &cfg);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
