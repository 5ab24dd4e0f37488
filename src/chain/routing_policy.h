/**
 * @file
 * Pluggable chain routing: the policy layer between the static
 * ChainRouteTable and the per-cube ChainSwitch.
 *
 * Two policies exist:
 *
 *   static    (default) the packet follows the route table verbatim --
 *             bit-identical to the pre-policy behaviour.
 *   adaptive  minimal adaptive routing in the Dally credit/occupancy
 *             style: when a destination has more than one minimal
 *             next-hop (ring ties), the switch picks the output port
 *             with the lower live congestion score (forward-queue
 *             occupancy plus consumed link tokens, both in flits) --
 *             with a hysteresis threshold so a zero-load network takes
 *             exactly the static paths.  Under severe congestion the
 *             policy may additionally *misroute* a bounded number of
 *             times per packet: send it the long way around the ring,
 *             direction-locked so downstream cubes do not bounce it
 *             back into the hotspot.
 *
 * The policy is consulted per packet at enqueue time and sees live
 * telemetry through ChainLoadProvider (implemented by ChainSwitch).
 * Decisions are pure; the switch commits the side effects (route-choice
 * counters, per-packet misroute budget, direction lock) only once the
 * chosen output queue accepts the packet, so a refused hand-off can be
 * re-decided later under fresher telemetry.
 */

#ifndef HMCSIM_CHAIN_ROUTING_POLICY_H_
#define HMCSIM_CHAIN_ROUTING_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "chain/route_table.h"

namespace hmcsim {

/** Which ChainRoutingPolicy implementation a chain runs. */
enum class ChainRoutingMode : unsigned {
    Static = 0,
    Adaptive,
};

ChainRoutingMode chainRoutingFromString(const std::string &s);
std::string toString(ChainRoutingMode m);

/** Packet direction-lock values (HmcPacket::chainDirLock). */
constexpr std::uint8_t kChainDirNone = 0;
/** Committed clockwise (increasing cube ids / Down / Wrap at N-1). */
constexpr std::uint8_t kChainDirCw = 1;
/** Committed counter-clockwise (decreasing ids / Up / Wrap at 0). */
constexpr std::uint8_t kChainDirCcw = 2;

/** Live congestion snapshot of one switch output port. */
struct ChainPortLoad {
    /** False when no link is wired on this (kind, lane). */
    bool wired = false;
    /** Flits sitting in the forward queue. */
    std::uint32_t queuedFlits = 0;
    /** Free packet slots left in the forward queue. */
    std::uint32_t queueFreePackets = 0;
    /** Output-direction link tokens currently consumed (backpressure). */
    std::uint32_t tokensInUse = 0;

    /** Scalar congestion score in flits (queue + in-flight tokens). */
    std::uint32_t score() const { return queuedFlits + tokensInUse; }
};

/** Telemetry source the policy reads; implemented by ChainSwitch. */
class ChainLoadProvider
{
  public:
    virtual ~ChainLoadProvider() = default;

    virtual ChainPortLoad portLoad(ChainHop kind, LinkId l) const = 0;
};

/** The routing-relevant slice of a packet's state. */
struct ChainPacketView {
    /** Destination cube: the CUB field of a request, or the issuing
     *  host's entry cube for a response (toHost). */
    CubeId dest = 0;
    /** True for responses transiting toward their issuing host. */
    bool toHost = false;
    /** Non-minimal deviations this packet already took. */
    std::uint8_t misroutes = 0;
    /** Direction lock from an earlier misroute (kChainDir*). */
    std::uint8_t dirLock = kChainDirNone;
};

/** One routing decision plus the packet state it implies. */
struct ChainRouteDecision {
    ChainHop hop = ChainHop::Local;
    /** Took the non-preferred minimal direction (ring tie). */
    bool deviated = false;
    /** Took a non-minimal direction (long way around the ring). */
    bool misrouted = false;
    /** Direction lock to stamp on the packet when committed. */
    std::uint8_t dirLock = kChainDirNone;
    /** The other output whose load the decision compared against hop
     *  (Local: none).  A refused packet waits on both. */
    ChainHop alt = ChainHop::Local;
};

class ChainRoutingPolicy
{
  public:
    explicit ChainRoutingPolicy(const ChainRouteTable &routes)
        : routes_(routes)
    {
    }

    virtual ~ChainRoutingPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Pick the output port for a packet at cube @p at, lane @p lane.
     * Pure: commits nothing; the caller applies the decision's side
     * effects once the chosen queue accepts the packet.
     */
    virtual ChainRouteDecision route(CubeId at, const ChainPacketView &pkt,
                                     LinkId lane,
                                     const ChainLoadProvider &loads)
        const = 0;

    const ChainRouteTable &routes() const { return routes_; }

  protected:
    const ChainRouteTable &routes_;
};

/** Route-table lookup; bit-identical to the pre-policy switch. */
class StaticChainRouting : public ChainRoutingPolicy
{
  public:
    using ChainRoutingPolicy::ChainRoutingPolicy;

    const char *name() const override { return "static"; }

    ChainRouteDecision route(CubeId at, const ChainPacketView &pkt,
                             LinkId lane, const ChainLoadProvider &loads)
        const override;
};

/** Tunables of the adaptive policy (hmc.chain_adaptive_* knobs). */
struct AdaptiveRoutingParams {
    /**
     * Congestion advantage (in flits) the alternate direction must
     * have before the policy deviates from the static choice.  The
     * hysteresis that keeps a zero-load adaptive chain on exactly the
     * static paths.
     */
    std::uint32_t thresholdFlits = 8;

    /**
     * Absolute congestion score (flits) of the preferred minimal port
     * before a non-minimal misroute is even considered.
     */
    std::uint32_t misrouteThresholdFlits = 48;

    /** Non-minimal deviations allowed per packet; 0 disables. */
    std::uint32_t maxMisroutes = 1;
};

/**
 * Occupancy/backpressure-driven minimal adaptive routing with bounded,
 * direction-locked misroutes.  Only rings offer path diversity; on
 * daisy chains and stars the policy degenerates to the static table.
 */
class AdaptiveChainRouting : public ChainRoutingPolicy
{
  public:
    AdaptiveChainRouting(const ChainRouteTable &routes,
                         const AdaptiveRoutingParams &params);

    const char *name() const override { return "adaptive"; }

    const AdaptiveRoutingParams &params() const { return params_; }

    ChainRouteDecision route(CubeId at, const ChainPacketView &pkt,
                             LinkId lane, const ChainLoadProvider &loads)
        const override;

  private:
    AdaptiveRoutingParams params_;

    ChainRouteDecision followLock(CubeId at,
                                  const ChainPacketView &pkt) const;
};

/** Build the policy a ChainParams-configured network asked for. */
std::unique_ptr<ChainRoutingPolicy>
makeChainRoutingPolicy(ChainRoutingMode mode, const ChainRouteTable &routes,
                       const AdaptiveRoutingParams &params);

}  // namespace hmcsim

#endif  // HMCSIM_CHAIN_ROUTING_POLICY_H_
