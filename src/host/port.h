/**
 * @file
 * FPGA request port base class: the machinery every port shares (the
 * request FIFO toward the controller, monitoring logic, activity
 * control).  The concrete port is WorkloadPort
 * (host/workload/workload_port.h), parameterized by a TrafficSource
 * and an injection policy; the seed's GupsPort/StreamPort behaviours
 * live on as legacy spec mappings there.
 */

#ifndef HMCSIM_HOST_PORT_H_
#define HMCSIM_HOST_PORT_H_

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>

#include "common/inline_function.h"
#include "host/host_config.h"
#include "host/monitor.h"
#include "hmc/packet.h"
#include "obs/metrics.h"
#include "sim/component.h"

namespace hmcsim {

class AnatomyCollector;
class PacketTracer;

class Port : public Component
{
  public:
    Port(Kernel &kernel, Component *parent, std::string name, PortId id,
         const HostConfig &cfg);

    ~Port() override = default;

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
    virtual void onResponse(const HmcPacketPtr &pkt) = 0;

    /** Called on each FPGA edge the fabric ticks; it skips only edges
     *  cyclesToWork() reports as no-ops. */
    virtual void tick() = 0;

    /** cyclesToWork() when only a response or (re)activation can give
     *  the port work. */
    static constexpr std::uint64_t kNoSelfWake =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * Cycles from the last tick until tick() next changes state: 1 for
     * the next edge, k when the k - 1 edges before it are no-ops, or
     * kNoSelfWake.  Ticks on the edges in between may be skipped.
     */
    virtual std::uint64_t cyclesToWork() const = 0;

    /** Apply @p n skipped no-op ticks in closed form. */
    virtual void skipCycles(std::uint64_t n) = 0;

    /** True once the port has no further work (trace completion). */
    virtual bool idle() const;

    Monitor &monitor() { return monitor_; }
    const Monitor &monitor() const { return monitor_; }

    std::uint64_t issuedRequests() const { return issued_.value(); }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

    bool fifoFull() const { return fifo_.size() >= fifoDepth_; }

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

    PortId id_;
    std::uint32_t fifoDepth_;
    bool active_ = false;
    std::deque<HmcPacketPtr> fifo_;
    Monitor monitor_;
    Counter issued_;
    MetricSet obsMetrics_;
    /** Full-mode tracer (per-event hooks); null otherwise. */
    PacketTracer *tracer_ = nullptr;
    /** Any-mode tracer (completion-path lifecycle); null when off. */
    PacketTracer *lifeTracer_ = nullptr;
    /** Latency-anatomy collector; null when obs.anatomy is off. */
    AnatomyCollector *anatomy_ = nullptr;
    InlineFunction<void(bool)> onActivityChange_;
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

}  // namespace hmcsim

#endif  // HMCSIM_HOST_PORT_H_
