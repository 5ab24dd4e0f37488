/**
 * @file
 * Per-cube pass-through switch for multi-cube chaining.
 *
 * Packets whose CUB field does not match the local cube (and responses
 * transiting toward the host) are handed here by the cube's link layer.
 * The switch stores the fully received packet, waits the configured
 * pass-through latency, and re-transmits it on the policy-selected
 * output link under that link's token flow control.  A full forward
 * queue refuses the hand-off, which leaves the packet in the upstream
 * RX buffer holding its link tokens -- chaining the per-hop credits
 * into end-to-end backpressure.
 *
 * Output-port selection goes through a ChainRoutingPolicy: the static
 * policy replays the route table verbatim; the adaptive policy reads
 * this switch's live per-port telemetry (ChainLoadProvider) to pick
 * among minimal next-hops and, under severe congestion, to misroute a
 * bounded number of times per packet.  Decisions commit -- counters,
 * per-packet misroute budget, direction lock -- only when the chosen
 * output queue accepts the packet.
 *
 * Port classes (see ChainRouteTable): Up = this cube's own links toward
 * the host, Down = the next cube's links, Wrap = the ring-closing
 * links, Host = dedicated host-attachment links at a multi-host entry
 * cube.  On single-host ring cubes whose response route is not Up, the
 * cube's NoC link-ejection endpoints are rewired through ejectFromNoc()
 * so locally generated responses leave on the routed port directly; in
 * a multi-host fabric every cube's ejection goes through
 * ejectRoutedFromNoc() instead, which routes each response toward its
 * issuing host's entry cube per packet.
 */

#ifndef HMCSIM_CHAIN_CHAIN_SWITCH_H_
#define HMCSIM_CHAIN_CHAIN_SWITCH_H_

#include <array>
#include <deque>
#include <vector>

#include "chain/route_table.h"
#include "chain/routing_policy.h"
#include "hmc/hmc_device.h"
#include "hmc/serdes_link.h"
#include "obs/metrics.h"

namespace hmcsim {

class PacketTracer;

class ChainSwitch : public Component, public ChainLoadProvider
{
  public:
    ChainSwitch(Kernel &kernel, HmcDevice &dev, std::string name,
                const ChainRouteTable &routes,
                const ChainRoutingPolicy &policy,
                const ChainParams &params);

    CubeId cubeId() const { return dev_.cubeId(); }

    // ----- wiring (called by CubeNetwork before traffic flows) -----

    /**
     * Attach the output/input link for one port class and link lane.
     * @param out_dir direction this switch transmits on
     * @param consume_rx register this switch as the drainer of the
     *        reverse direction's RX buffer
     */
    void setPort(ChainHop kind, LinkId l, SerdesLink *link,
                 LinkDir out_dir, bool consume_rx);

    // ----- data path -----

    /**
     * Take a packet the cube's link layer cannot deliver locally.
     * @return false when the forward queue is full (retry on pump)
     */
    bool tryForward(LinkId l, const HmcPacketPtr &pkt);

    /** Retry pending transmissions on every output port. */
    void pumpAll();

    /** NoC injection credits freed: retry Local deliveries. */
    void onLocalInjectSpace(LinkId l);

    /** Reserve tokens for a locally ejected response (rewired NoC). */
    bool tryReserveEject(LinkId l, std::uint32_t flits);

    /** Transmit a locally ejected response (tokens already reserved). */
    void ejectFromNoc(LinkId l, const HmcPacketPtr &pkt);

    /**
     * Multi-host ejection: accept a locally generated response from
     * the NoC and queue it on the per-packet routed output port (its
     * issuing host's return direction).  Unlike ejectFromNoc the
     * output port is not known at switch-allocation time, so admission
     * is unconditional and the output queue is allowed to exceed the
     * pass-through depth; the overhang is bounded end-to-end by the
     * hosts' tag pools.  Origin ejections pay no pass-through latency
     * and count no chain hop, mirroring the single-host eject path.
     */
    void ejectRoutedFromNoc(LinkId l, const HmcPacketPtr &pkt);

    /** Hook the transit-energy probe (ChainForwardFlit events). */
    void setPowerProbe(PowerProbe *probe) { probe_ = probe; }

    // ----- telemetry (ChainLoadProvider) -----

    /** Live congestion snapshot of output port (kind, l). */
    ChainPortLoad portLoad(ChainHop kind, LinkId l) const override;

    // ----- statistics -----
    std::uint64_t forwardedRequests() const { return fwdRequests_.value(); }
    std::uint64_t forwardedResponses() const
    {
        return fwdResponses_.value();
    }
    std::uint64_t forwardedFlits() const { return fwdFlits_.value(); }
    std::uint64_t localInjects() const { return localInjects_.value(); }

    /** Adaptive choices of the non-preferred minimal direction. */
    std::uint64_t adaptiveDeviations() const
    {
        return adaptiveDeviations_.value();
    }

    /** Non-minimal (long-way-around) forwards committed here. */
    std::uint64_t misroutes() const { return misroutes_.value(); }

    /** Head-of-line blocking episodes: a stalled RX head wedging
     *  traffic behind it that could progress on a different output.
     *  Counted once per episode (re-drains of the same stuck head do
     *  not inflate the count). */
    std::uint64_t rxHolStalls() const { return rxHolStalls_.value(); }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

  private:
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};
    static constexpr std::uint32_t kNoLocal = ~std::uint32_t{0};

    struct Pending {
        Tick readyAt = 0;
        HmcPacketPtr pkt;
        /** False for origin ejections (multi-host routed eject):
         *  transmitting them is not a pass-through forward, so no hop
         *  count, forward counters or transit energy. */
        bool countHop = true;
    };

    struct Port {
        SerdesLink *link = nullptr;
        LinkDir outDir = LinkDir::HostToCube;
        std::deque<Pending> q;
        /** Flits across q (the policy's occupancy signal). */
        std::uint32_t qFlits = 0;
        bool kickScheduled = false;

        // ----- head-of-line accounting of this port's RX queue -----
        // All keyed on the link's RX pop count: the queue is a FIFO,
        // so while nothing pops, the head and every packet already
        // scanned behind it stay put and only new arrivals join.

        /** RX pop count at which the current blocked head's episode
         *  was counted; any pop starts a new episode. */
        std::uint64_t holCountedAt = kNever;
        /** RX pop count the memo below describes. */
        std::uint64_t behindPops = kNever;
        /** Queue index the behind-head scan resumes from. */
        std::size_t behindScanned = 1;
        /** Smallest local request behind the head (kNoLocal: none);
         *  NoC injection admits by credits >= flits, so it decides
         *  whether any local request could move. */
        std::uint32_t behindMinLocal = kNoLocal;
        /** Distinct routing views of the transiting packets behind the
         *  head; a route is a function of the view and live loads. */
        std::vector<ChainPacketView> behindViews;
    };

    static constexpr std::size_t kPortKinds = 4;  // Up, Down, Wrap, Host

    HmcDevice &dev_;
    const ChainRouteTable &routes_;
    const ChainRoutingPolicy &policy_;
    ChainParams params_;
    /** ports_[kind - 1][link]; kind Local has no port. */
    std::array<std::vector<Port>, kPortKinds> ports_;
    PowerProbe *probe_ = nullptr;

    Counter fwdRequests_;
    Counter fwdResponses_;
    Counter fwdFlits_;
    Counter localInjects_;
    Counter queueFullStalls_;
    Counter rxHolStalls_;
    Counter adaptiveDeviations_;
    Counter misroutes_;
    /** Committed route choices per output port class. */
    Counter routeUp_;
    Counter routeDown_;
    Counter routeWrap_;
    Counter routeHost_;
    /** Locally generated responses ejected through the routed
     *  multi-host path. */
    Counter routedEjects_;

    MetricSet obsMetrics_;
    PacketTracer *tracer_ = nullptr;

    Port &port(ChainHop kind, LinkId l);
    ChainPacketView view(const HmcPacket &pkt) const;
    ChainRouteDecision decide(LinkId l, const HmcPacket &pkt) const;
    void commit(const ChainRouteDecision &d, const HmcPacketPtr &pkt);
    bool enqueue(ChainHop kind, LinkId l, const HmcPacketPtr &pkt);
    void scheduleKick(Port &p, Tick at);
    void pump(Port &p);
    void drainInRx(ChainHop kind, LinkId l);
    void drainAllInRx();
    void kickSources();
    /**
     * Count a drain stopped by HOL blocking if any packet waiting
     * behind the head could progress on a different output; at most
     * once per blocked-head episode.  Costs O(arrivals since the last
     * call + distinct views behind the head): the Port memo carries
     * the scan over until the RX queue next pops.
     */
    void noteRxHolStall(Port &p, LinkDir in_dir, LinkId l);
    bool couldProgress(const ChainRouteDecision &d, LinkId l) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_CHAIN_CHAIN_SWITCH_H_
