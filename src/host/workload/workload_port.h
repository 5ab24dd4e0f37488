/**
 * @file
 * WorkloadPort: the FPGA request port.  Every one of the host's ports
 * is one, parameterized by a TrafficSource (what to access) and an
 * InjectionConfig (when to inject); a WorkloadSpec describes both (see
 * workload_build.h).  The port owns the request FIFO toward the
 * controller, the monitoring logic and the activity control; a
 * response either completes the cycle it arrives (the GUPS firmware
 * path) or drains through a rate-limited AXI-Stream channel (windowed
 * stream replay).
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_

#include <algorithm>
#include <deque>
#include <limits>

#include "common/inline_function.h"
#include "host/addr_gen.h"
#include "host/host_config.h"
#include "host/monitor.h"
#include "host/tag_pool.h"
#include "host/workload/injection.h"
#include "host/workload/traffic_source.h"
#include "hmc/packet.h"
#include "sim/component.h"

namespace hmcsim {

class AnatomyCollector;
class PacketTracer;

class WorkloadPort : public Component
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

    PortId portId() const { return id_; }

    bool active() const { return active_; }

    /**
     * Start or stop issuing.  The activity-change hook runs first, so
     * the owning fabric can settle its clock and, on activation, wake
     * it at its next edge.
     */
    void setActive(bool active);

    /** Hook run before every activity change (the owning Fpga's). */
    void
    setOnActivityChange(InlineFunction<void(bool)> fn)
    {
        onActivityChange_ = std::move(fn);
    }

    // ----- controller-facing request path -----
    bool hasRequest() const { return !fifo_.empty(); }
    std::uint32_t headFlits() const;
    /** Target address of the head request (cube routing). */
    Addr headAddr() const;
    HmcPacketPtr popRequest();

    /** A matched response arrives from the controller's deserializer. */
    void onResponse(const HmcPacketPtr &pkt);

    /** Called on each FPGA edge the fabric ticks; it skips only edges
     *  cyclesToWork() reports as no-ops. */
    void tick();

    /** cyclesToWork() when only a response or (re)activation can give
     *  the port work. */
    static constexpr std::uint64_t kNoSelfWake =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * Cycles from the last tick until tick() next changes state: 1 for
     * the next edge, k when the k - 1 edges before it are no-ops, or
     * kNoSelfWake.  Ticks on the edges in between may be skipped.
     */
    std::uint64_t cyclesToWork() const;

    /** Apply @p n skipped no-op ticks in closed form. */
    void skipCycles(std::uint64_t n);

    /** True once the port has no further work (trace completion). */
    bool idle() const;

    Monitor &monitor() { return monitor_; }
    const Monitor &monitor() const { return monitor_; }

    std::uint64_t issuedRequests() const { return issued_.value(); }

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
    void listStats(StatList &s) const override;
    void resetOwnStats() override;

  private:
    struct PendingWrite {
        Addr addr;
        std::uint32_t bytes;
    };

    PortId id_;
    std::uint32_t fifoDepth_;
    bool active_ = false;
    std::deque<HmcPacketPtr> fifo_;
    Monitor monitor_;
    Counter issued_;
    /** Full-mode tracer (per-event hooks); null otherwise. */
    PacketTracer *tracer_ = nullptr;
    /** Any-mode tracer (completion-path lifecycle); null when off. */
    PacketTracer *lifeTracer_ = nullptr;
    /** Latency-anatomy collector; null when obs.anatomy is off. */
    AnatomyCollector *anatomy_ = nullptr;
    InlineFunction<void(bool)> onActivityChange_;

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

    bool fifoFull() const { return fifo_.size() >= fifoDepth_; }
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

    /** Stamp creation time and enqueue toward the controller. */
    void pushRequest(const HmcPacketPtr &pkt);

    /**
     * Observability hook for the response completion path: feeds the
     * latency-anatomy collector, then in summary trace mode
     * reconstructs the whole lifecycle from the packet's timestamps,
     * in full mode records the final Eject event.  A no-op (null
     * checks only) when everything is off.
     */
    void traceComplete(const HmcPacket &pkt) const;

    /** Wire bytes of a full transaction (request + response). */
    static std::uint64_t transactionBytes(const HmcPacket &resp);
};

/**
 * A budget refilled once per cycle as min(budget + rate, cap), after
 * @p n cycles: min(budget + n * rate, cap) when n > 0, without
 * overflow.
 */
inline std::uint32_t
replayBudget(std::uint32_t budget, std::uint64_t n, std::uint32_t rate,
             std::uint32_t cap)
{
    if (n == 0)
        return budget;
    const std::uint64_t grown =
        budget + std::min<std::uint64_t>(n, cap) * rate;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(grown, cap));
}

// ----- GUPS firmware spec -----

/** The vendor GUPS firmware: tag-limited generated traffic. */
struct GupsPortSpec {
    ReqKind kind = ReqKind::ReadOnly;
    GupsAddrGen::Params gen;
};

/** Map a GUPS firmware spec onto WorkloadPort parameters. */
WorkloadPort::Params workloadFromGupsPortSpec(const GupsPortSpec &spec,
                                              const HostConfig &cfg);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_PORT_H_
