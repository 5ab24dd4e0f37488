/**
 * @file
 * CubeNetwork: assembles N HmcDevices into a chained network.
 *
 * Link ownership: each cube's own SerDes links connect it to the host
 * (cube 0) or to the previous cube in the chain -- the cable's
 * HostToCube RX sits at the owning cube, its CubeToHost RX at the
 * upstream party.  Ring topologies add dedicated wrap links between
 * cube N-1 and cube 0.  Star topologies attach every cube's links
 * directly to the host (link l serves cube l % N) and need no
 * pass-through at all.
 *
 * Multi-host fabrics (host.num_hosts > 1) attach additional host
 * controllers at configurable entry cubes.  The host entering at cube
 * 0 keeps driving cube 0's own links; every other host gets dedicated
 * host links owned by the network and wired into its entry cube's
 * ChainSwitch as the Host port class.  Locally generated responses
 * are then routed per packet toward the issuing host's entry cube
 * (ChainSwitch::ejectRoutedFromNoc) instead of the single static
 * toward-host port.
 *
 * The network wires each cube's ChainSwitch to the route table,
 * combines token-free callbacks across the producers sharing a link
 * direction (NoC ejection + pass-through pump), and rewires ring
 * cubes whose response route is not Up.
 */

#ifndef HMCSIM_CHAIN_CUBE_NETWORK_H_
#define HMCSIM_CHAIN_CUBE_NETWORK_H_

#include <memory>
#include <vector>

#include "chain/chain_switch.h"
#include "chain/route_table.h"
#include "chain/routing_policy.h"
#include "hmc/hmc_device.h"

namespace hmcsim {

class CubeNetwork : public Component
{
  public:
    /**
     * @param host_entries entry cube per host controller; empty means
     *        the classic single host at cube 0
     */
    CubeNetwork(Kernel &kernel, Component *parent, std::string name,
                const HmcConfig &cfg,
                std::vector<CubeId> host_entries = {});

    std::uint32_t numCubes() const { return cfg_.chain.numCubes; }
    HmcDevice &cube(CubeId c);
    const ChainRouteTable &routes() const { return routes_; }
    const ChainRoutingPolicy &routingPolicy() const { return *policy_; }
    ChainRoutingMode routingMode() const { return mode_; }
    const HmcConfig &config() const { return cfg_; }

    /** Pass-through switch of cube @p c; null for star topologies. */
    ChainSwitch *switchAt(CubeId c);

    // ----- host attachment -----

    std::uint32_t numHosts() const { return routes_.numHosts(); }

    /** Per-host link fan-out (every host drives hmc.num_links). */
    std::uint32_t numHostLinks() const { return cfg_.numLinks; }

    /** Link host @p h's controller drives for lane @p l. */
    SerdesLink &hostLink(LinkId l, HostId h = 0);

    /** Cube reachable through host @p h's link @p l; kCubeAll when
     *  the link leads into a chain that reaches every cube. */
    CubeId hostLinkCube(LinkId l, HostId h = 0) const;

    /**
     * Static bisection bandwidth of the cube-to-cube fabric (one
     * direction), GB/s.
     */
    double bisectionBandwidthGBs() const;

    /** Sum of requests served across all cubes. */
    std::uint64_t totalRequestsServed() const;

    /** Pass-through forwarded flits summed over every switch (total
     *  fabric transit volume; multi-hop packets count once per hop). */
    std::uint64_t totalForwardedFlits() const;

    /**
     * Flits that crossed the canonical bisection cut in @p dir over
     * the stats window.  The cut splits the chain between cubes
     * N/2-1 and N/2: cube N/2's own cables for daisy chains, plus the
     * wrap links for rings.  0 for star/single-cube networks (no
     * cube-to-cube cut).
     */
    std::uint64_t bisectionFlitsSent(LinkDir dir) const;

  private:
    HmcConfig cfg_;
    ChainRouteTable routes_;
    ChainRoutingMode mode_;
    std::unique_ptr<ChainRoutingPolicy> policy_;
    std::vector<std::unique_ptr<HmcDevice>> cubes_;
    std::vector<std::unique_ptr<SerdesLink>> wrapLinks_;
    /** hostLinks_[h] is empty for the cube-0 host (it drives cube 0's
     *  own links); dedicated links otherwise. */
    std::vector<std::vector<std::unique_ptr<SerdesLink>>> hostLinks_;
    std::vector<std::unique_ptr<ChainSwitch>> switches_;

    void wireChain();
    void wireHostLinks();
    void combineTokenCallbacks();
    void installThrottleAppliers();
    void applyAuxLinkThrottle();
};

}  // namespace hmcsim

#endif  // HMCSIM_CHAIN_CUBE_NETWORK_H_
