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
 * Retries go only to what waits, under either policy.  A drain
 * stopped by its RX head records what the head waits on: the same-lane
 * output queues its route compared (the refusing one, plus the
 * alternative an adaptive route weighed it against), or its own lane's
 * NoC inject pool for a local request.  A pop from a forward queue or
 * a return to a lane's inject pool retries only the same-lane drains
 * waiting on it, in the order the device's and the switch's drains
 * always ran.  A head is accounted once, at its first refusal: a full
 * queue counts a queue_full_stall, and a packet already landed behind
 * it that could move right then counts an rx_hol_stall.  Retries count
 * nothing, so no wake can change either statistic.  A tokens-free
 * callback pumps only ports whose head is ready.
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

    /** Link tokens freed: retry the output ports with a ready head. */
    void pumpReady();

    /** Lane @p l's NoC injection credits freed: retry the drains
     *  waiting on them. */
    void onLocalInjectSpace(LinkId l);

    /** The device's drain of lane @p l's link RX stopped at a blocked
     *  head (after a refused tryForward or a NoC-credit failure). */
    void onDeviceRxBlocked(LinkId l);

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
    std::uint64_t forwardedFlits() const { return fwdFlits_.value(); }

    /** Adaptive choices of the non-preferred minimal direction. */
    std::uint64_t adaptiveDeviations() const
    {
        return adaptiveDeviations_.value();
    }

    /** Non-minimal (long-way-around) forwards committed here. */
    std::uint64_t misroutes() const { return misroutes_.value(); }

    /** Head-of-line blocking: RX heads that, when first refused, had
     *  a packet landed behind them that could move right then (a local
     *  request the lane's inject pool admits, or a transit packet whose
     *  route has a free queue slot).  Retries of the same head and
     *  later arrivals behind it count nothing. */
    std::uint64_t rxHolStalls() const { return rxHolStalls_.value(); }

  protected:
    void listStats(StatList &s) const override;

  private:
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    /** Bit of @p hop in Port::waitMask. */
    static constexpr std::uint8_t
    bit(ChainHop hop)
    {
        return static_cast<std::uint8_t>(1u << static_cast<unsigned>(hop));
    }

    /** What a transit head refused under @p d waits on: every output
     *  its route compared. */
    static std::uint8_t
    waitsOn(const ChainRouteDecision &d)
    {
        return bit(d.hop) | (d.alt == ChainHop::Local ? 0 : bit(d.alt));
    }

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
        ChainHop kind = ChainHop::Local;
        LinkId lane = 0;
        std::deque<Pending> q;
        /** Flits across q (the policy's occupancy signal). */
        std::uint32_t qFlits = 0;
        bool kickScheduled = false;

        // ----- the blocked head of this port's RX queue -----
        // (Up ports: the device-drained link RX.)

        /** What the head waits on: bit 1 << ChainHop of each same-lane
         *  output queue its route compared, or of Local for the lane's
         *  NoC inject pool. */
        std::uint8_t waitMask = bit(ChainHop::Local);
        /** RX pop count at which the head was first refused.  The
         *  queue is a FIFO, so while nothing pops the head stays put. */
        std::uint64_t refusedAt = kNever;
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

    PacketTracer *tracer_ = nullptr;

    Port &port(ChainHop kind, LinkId l);
    /** The direction whose RX the port's link delivers to us. */
    static LinkDir inDir(const Port &p);
    bool isLocal(const HmcPacket &pkt) const;
    ChainPacketView view(const HmcPacket &pkt) const;
    ChainRouteDecision decide(LinkId l, const HmcPacket &pkt) const;
    void commit(const ChainRouteDecision &d, const HmcPacketPtr &pkt);
    bool enqueue(ChainHop kind, LinkId l, const HmcPacketPtr &pkt);
    void scheduleKick(Port &p, Tick at);
    void pump(Port &p);
    void drainInRx(ChainHop kind, LinkId l);
    /** The drain of @p p stopped at a head waiting on @p wait (a
     *  waitMask); account the head if this is its first refusal. */
    void blocked(Port &p, LinkId l, std::uint8_t wait);
    /** True if a packet landed behind @p p's RX head could move now. */
    bool behindCanMove(const Port &p, LinkId l) const;
    /** Lane @p l's queue of kind @p freed popped, or (Local) its inject
     *  pool got credits back: retry the drains waiting on it. */
    void wakeLane(LinkId l, ChainHop freed);
};

}  // namespace hmcsim

#endif  // HMCSIM_CHAIN_CHAIN_SWITCH_H_
