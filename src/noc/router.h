/**
 * @file
 * Input-queued virtual cut-through router with credit-based flow
 * control.
 *
 * Pipeline per message: arrival -> (router latency) -> route lookup and
 * move to the target output queue (stalls on output-queue space: this is
 * the head-of-line blocking point) -> switch/channel traversal gated by
 * downstream credits (router hop) or an endpoint reservation (eject).
 * Credits return to the upstream sender's CreditPool, creditLatency
 * after a message leaves the input queue.
 */

#ifndef HMCSIM_NOC_ROUTER_H_
#define HMCSIM_NOC_ROUTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "noc/buffer.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "power/power_probe.h"
#include "sim/component.h"
#include "sim/credit_pool.h"

namespace hmcsim {

/** Shared timing/sizing parameters for routers and their channels. */
struct RouterParams {
    /** Ticks to move one flit across a channel (800 ps = 20 GB/s). */
    Tick flitPeriod = 800;

    /** Channel propagation delay after the last flit. */
    Tick wireLatency = 800;

    /** Per-message pipeline latency (route compute, switch alloc). */
    Tick routerLatency = 1600;

    /** Credit return propagation delay. */
    Tick creditLatency = 800;

    /** Per-input buffer (upstream credit pool), in flits. */
    std::uint32_t inputBufferFlits = 64;

    /** Per-output staging queue, in flits. */
    std::uint32_t outputQueueFlits = 64;

    /**
     * Ejection-port staging queue, in flits.  Link masters carry the
     * whole closed-loop response backlog when the host response path
     * is the bottleneck; a deep FIFO here keeps that backlog
     * arrival-ordered (fair across vaults) instead of backpressuring
     * into the routers, where per-input arbitration would starve the
     * quadrants farthest from the link.
     */
    std::uint32_t ejectQueueFlits = 4096;
};

class Router : public Component
{
  public:
    /** Endpoint-side ejection contract. */
    struct Eject {
        /**
         * Reserve space for a message of given flits; returning false
         * blocks the output until kickEject().
         */
        std::function<bool(std::uint32_t)> tryReserve;

        /** Final delivery (reservation already made). */
        std::function<void(const NocMessage &)> deliver;
    };

    Router(Kernel &kernel, Component *parent, std::string name,
           std::uint32_t id, const RouterParams &params);

    std::uint32_t id() const { return id_; }

    // ----- construction-time wiring -----

    /**
     * Add an input port.
     * @param upstream the sender's credit pool, refunded creditLatency
     *        after each message leaves this input; null for an input
     *        nobody credits (test harnesses).
     * @return input port index
     */
    int addInput(CreditPool *upstream);

    /**
     * Add an output port feeding a new input of @p dst, credited from
     * an output pool sized to dst's input buffer.  The channel is
     * created internally from the router params.
     * @return output port index
     */
    int connectTo(Router *dst);

    /** Add an output port that ejects to endpoint @p ep. */
    int addOutputToEndpoint(NodeId ep, Eject eject);

    /** Set the output port used for each destination endpoint. */
    void setRoutes(std::vector<int> output_for_endpoint);

    // ----- runtime -----

    /** Message fully arrived on input port @p input. */
    void acceptMessage(int input, const NocMessage &msg);

    /** Endpoint @p ep freed space; retry its blocked output if any. */
    void kickEject(NodeId ep);

    /** Free flits in input port @p input (initial upstream credit). */
    std::uint32_t inputBufferFlits() const
    {
        return params_.inputBufferFlits;
    }

    std::size_t numOutputs() const { return outputs_.size(); }

    /** Credit pool of output @p o; null for an ejection output. */
    const CreditPool *
    outputCredits(std::size_t o) const
    {
        const auto &c = outputs_.at(o)->credits;
        return c ? &*c : nullptr;
    }

    std::uint64_t messagesRouted() const { return messages_.value(); }
    std::uint64_t flitsRouted() const { return flits_.value(); }

    /** Attach the power subsystem's probe (null = no accounting). */
    void setPowerProbe(PowerProbe *probe) { probe_ = probe; }

  protected:
    void listStats(StatList &s) const override;

  private:
    struct Input {
        /** (ready time, message) in arrival order. */
        std::deque<std::pair<Tick, NocMessage>> q;
        CreditPool *upstream;
    };

    struct Output {
        explicit Output(std::uint32_t queue_flits) : q(queue_flits) {}

        FlitBuffer q;
        std::unique_ptr<Channel> chan;
        Router *dstRouter = nullptr;
        int dstInput = -1;
        /** Downstream input-buffer credits (router outputs only). */
        std::optional<CreditPool> credits;
        NodeId ejectEp = kNodeInvalid;
        Eject eject;
        bool sending = false;
        bool blockedOnEject = false;
    };

    std::uint32_t id_;
    RouterParams params_;
    std::vector<Input> inputs_;
    std::vector<std::unique_ptr<Output>> outputs_;
    std::vector<int> routeOut_;
    std::size_t inputRR_ = 0;
    Counter messages_;
    Counter flits_;
    PowerProbe *probe_ = nullptr;

    void processInput(std::size_t i);
    void tryDrain(std::size_t o);
    void outputSerDone(std::size_t o);
    int routeFor(NodeId dst) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_NOC_ROUTER_H_
