/**
 * @file
 * Input-queued virtual cut-through router with credit-based flow
 * control.
 *
 * Pipeline per message: the sender reserves a channel and queues the
 * message at this router's input with ready time = arrival +
 * routerLatency (acceptMessage) -> one event at the ready time: route
 * lookup and move to the target output queue (stalls on output-queue
 * space: this is the head-of-line blocking point) -> switch/channel
 * traversal gated by downstream credits (router hop) or an endpoint
 * reservation (eject).  Credits return to the upstream sender's
 * CreditPool, creditLatency after a message leaves the input queue.
 * Each input is fed by one FIFO channel, so its ready times never
 * decrease.
 *
 * The route-ready event is scheduled through a relay at the arrival
 * time (Kernel::scheduleRelay): it takes the place among same-tick
 * events that an arrival event scheduling it would have given it.  A
 * sequence number drawn at send time instead would run it ahead of
 * events that other routers and endpoints schedule while the message
 * is in flight; tests/noc/test_noc_differential.cc catches that as
 * changed delivery times.
 *
 * An output's serializer is a busy-until slot, folded lazily the way
 * CreditPool folds returns.  When the message sent was the output's
 * only one, the serializer-done slot is reserved, not posted: once it
 * passes, the first reader pops the head, clears the output and
 * advances the input round-robin, exactly what the event would have
 * done.  An event goes into the slot only when it would do more than
 * that -- when, before the slot passes, another message is queued on
 * the output, any input of the router is head-of-line blocked (the
 * event's input scan retries it), or a message becomes ready at
 * exactly the slot's time ahead of its own event (the scan would have
 * taken it).
 */

#ifndef HMCSIM_NOC_ROUTER_H_
#define HMCSIM_NOC_ROUTER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/stats.h"
#include "noc/buffer.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "power/power_probe.h"
#include "sim/component.h"
#include "sim/credit_pool.h"
#include "sim/lazy_slot.h"

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
        InlineFunction<bool(std::uint32_t)> tryReserve;

        /** Final delivery (reservation already made). */
        InlineFunction<void(const NocMessage &)> deliver;
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

    /**
     * Queue @p msg at input port @p input, fully arrived at
     * @p arrival (>= now, and not before the input's previous
     * arrival): it is routed routerLatency later.
     */
    void acceptMessage(int input, const NocMessage &msg, Tick arrival);

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
    struct Entry {
        Tick ready;
        /** Sequence number of the arrival relay (slot {ready -
         *  routerLatency, 0, seq}). */
        std::uint64_t seq;
        NocMessage msg;
    };

    struct Input {
        /** Queued messages in arrival order. */
        std::deque<Entry> q;
        CreditPool *upstream;
        /** The ready head does not fit its output queue. */
        bool blocked = false;
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
        bool blockedOnEject = false;
        /** Held while sending: when the channel frees (see the file
         *  comment). */
        LazySlot serDone;
    };

    std::uint32_t id_;
    RouterParams params_;
    std::vector<Input> inputs_;
    std::vector<std::unique_ptr<Output>> outputs_;
    std::vector<int> routeOut_;
    std::size_t inputRR_ = 0;
    /** Inputs with blocked set. */
    std::uint32_t blockedInputs_ = 0;
    /** Outputs sending with their serializer-done slot unposted. */
    std::uint32_t lazySlots_ = 0;
    Counter messages_;
    Counter flits_;
    PowerProbe *probe_ = nullptr;

    void processInput(std::size_t i);
    void setBlocked(Input &in, bool blocked);
    void tryDrain(std::size_t o);
    void outputSerDone(std::size_t o);
    /** Apply @p out's serializer-done slot if it passed unposted. */
    void fold(Output &out);
    /** Post output @p o's pending slot unless it has passed. */
    void postSerDone(std::size_t o);
    int routeFor(NodeId dst) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_NOC_ROUTER_H_
