#include "chain/routing_policy.h"

#include "common/log.h"

namespace hmcsim {

ChainRoutingMode
chainRoutingFromString(const std::string &s)
{
    if (s == "static")
        return ChainRoutingMode::Static;
    if (s == "adaptive")
        return ChainRoutingMode::Adaptive;
    fatal("unknown chain routing '" + s + "' (expected static|adaptive)");
}

std::string
toString(ChainRoutingMode m)
{
    switch (m) {
      case ChainRoutingMode::Static: return "static";
      case ChainRoutingMode::Adaptive: return "adaptive";
    }
    return "?";
}

ChainRouteDecision
StaticChainRouting::route(CubeId at, const ChainPacketView &pkt, LinkId,
                          const ChainLoadProvider &) const
{
    ChainRouteDecision d;
    d.hop = pkt.toHost ? routes_.towardEntry(at, pkt.dest)
                       : routes_.next(at, pkt.dest);
    return d;
}

AdaptiveChainRouting::AdaptiveChainRouting(
    const ChainRouteTable &routes, const AdaptiveRoutingParams &params)
    : ChainRoutingPolicy(routes), params_(params)
{
}

ChainRouteDecision
AdaptiveChainRouting::followLock(CubeId at, const ChainPacketView &pkt) const
{
    // A misrouted packet holds its rotational direction so downstream
    // minimal routing does not bounce it straight back into the
    // congested port it was steered around.
    ChainRouteDecision d;
    d.dirLock = pkt.dirLock;
    if (pkt.toHost && at == pkt.dest) {
        // Arrived at the issuing host's entry cube: eject there.
        d.hop = routes_.attachHop(pkt.dest);
        return d;
    }
    d.hop = pkt.dirLock == kChainDirCw ? routes_.cwHop(at)
                                       : routes_.ccwHop(at);
    return d;
}

ChainRouteDecision
AdaptiveChainRouting::route(CubeId at, const ChainPacketView &pkt,
                            LinkId lane,
                            const ChainLoadProvider &loads) const
{
    const CubeId dest = pkt.dest;
    ChainRouteDecision d;
    if (!pkt.toHost && at == dest) {
        d.hop = ChainHop::Local;
        return d;
    }
    if (pkt.toHost && at == dest) {
        // Already at the issuing host's entry cube: the only way out
        // is its attachment port, whatever direction the response
        // arrived from.
        d.hop = routes_.attachHop(dest);
        return d;
    }
    const ChainHop preferred = pkt.toHost
        ? routes_.towardEntry(at, dest)
        : routes_.next(at, pkt.dest);
    // Only rings have more than one path between two cubes; daisy
    // chains and stars fall through to the static table.
    if (routes_.topology() != ChainTopology::Ring) {
        d.hop = preferred;
        return d;
    }
    if (pkt.dirLock != kChainDirNone)
        return followLock(at, pkt);

    const std::uint32_t cw = routes_.cwDistance(at, dest);
    const std::uint32_t ccw = routes_.ccwDistance(at, dest);
    const bool preferred_is_cw = preferred == routes_.cwHop(at);
    const ChainHop other =
        preferred_is_cw ? routes_.ccwHop(at) : routes_.cwHop(at);

    const ChainPortLoad pref_load =
        loads.portLoad(preferred, lane);
    const ChainPortLoad other_load = loads.portLoad(other, lane);
    d.hop = preferred;
    if (!pref_load.wired || !other_load.wired)
        return d;

    const std::uint32_t pref_score = pref_load.score();
    const std::uint32_t other_score = other_load.score();
    const bool other_wins =
        other_score + params_.thresholdFlits < pref_score;

    if (cw == ccw) {
        // Genuine minimal tie: either direction is shortest, so
        // switching needs no direction lock -- one step shortens the
        // taken side and downstream minimal routing keeps going.
        d.alt = other;
        if (other_wins) {
            d.hop = other;
            d.alt = preferred;
            d.deviated = true;
        }
        return d;
    }

    // Single minimal direction.  Consider the long way only under
    // severe congestion, within the per-packet misroute budget.
    if (params_.maxMisroutes == 0 || pkt.misroutes >= params_.maxMisroutes)
        return d;
    d.alt = other;
    if (pref_score < params_.misrouteThresholdFlits || !other_wins)
        return d;
    d.hop = other;
    d.alt = preferred;
    d.misrouted = true;
    d.dirLock = preferred_is_cw ? kChainDirCcw : kChainDirCw;
    return d;
}

std::unique_ptr<ChainRoutingPolicy>
makeChainRoutingPolicy(ChainRoutingMode mode, const ChainRouteTable &routes,
                       const AdaptiveRoutingParams &params)
{
    switch (mode) {
      case ChainRoutingMode::Static:
        return std::make_unique<StaticChainRouting>(routes);
      case ChainRoutingMode::Adaptive:
        return std::make_unique<AdaptiveChainRouting>(routes, params);
    }
    panic("makeChainRoutingPolicy: invalid mode");
}

}  // namespace hmcsim
