/**
 * @file
 * The assembled HMC device: external SerDes links, the logic-layer NoC,
 * and one vault controller (with its DRAM) per vault.
 *
 * Endpoint numbering on the internal NoC: link masters occupy ids
 * [0, numLinks); vault controllers occupy [numLinks, numLinks+numVaults).
 */

#ifndef HMCSIM_HMC_HMC_DEVICE_H_
#define HMCSIM_HMC_HMC_DEVICE_H_

#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "hmc/address_map.h"
#include "hmc/hmc_config.h"
#include "hmc/serdes_link.h"
#include "hmc/vault_controller.h"
#include "noc/network.h"
#include "power/power_model.h"

namespace hmcsim {

/**
 * SerDes link parameters derived from the device config.  Shared by
 * the device's own links and the chain's ring wrap links so a new
 * link knob cannot silently apply to one but not the other.
 * @param seed_offset decorrelates the CRC error stream per user
 */
SerdesLink::Params linkParamsFrom(const HmcConfig &cfg,
                                  std::uint64_t seed_offset = 0);

class HmcDevice : public Component
{
  public:
    /**
     * @param cube_id this cube's position in a multi-cube chain; 0 for
     *        the classic single-cube system
     */
    HmcDevice(Kernel &kernel, Component *parent, std::string name,
              const HmcConfig &cfg, CubeId cube_id = 0);

    const HmcConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return map_; }
    CubeId cubeId() const { return cubeId_; }

    SerdesLink &link(LinkId l);
    VaultController &vaultController(VaultId v);
    Network &network() { return *net_; }

    /** The power/thermal model; null when hmc.power_enabled is off. */
    PowerModel *powerModel() { return power_.get(); }
    const PowerModel *powerModel() const { return power_.get(); }

    /** Apply @p slowdown to every vault scheduler and link. */
    void applyThrottle(double slowdown);

    NodeId linkEndpoint(LinkId l) const { return l; }

    NodeId
    vaultEndpoint(VaultId v) const
    {
        return cfg_.numLinks + v;
    }

    std::uint32_t numLinks() const { return cfg_.numLinks; }
    std::uint32_t numVaults() const { return cfg_.numVaults; }

    /** Sum of requests served by all vault controllers. */
    std::uint64_t totalRequestsServed() const;

    // ----- multi-cube chaining hooks (wired by chain::CubeNetwork) -----

    /**
     * Handler for packets this cube must pass through (requests for
     * another cube, or responses transiting toward the host).  Returns
     * false when the switch cannot take the packet right now; the
     * caller leaves it in the RX buffer and the switch retries it with
     * kickLinkRx() once a queue the packet waits on pops.
     */
    using ForwardFn = InlineFunction<bool(LinkId, const HmcPacketPtr &)>;

    void setForwarder(ForwardFn fn) { forwarder_ = std::move(fn); }

    /** True when the local NoC can accept @p flits at @p arrival_link's
     *  endpoint right now (a false answer arms its inject-space
     *  callback). */
    bool canInjectLocal(LinkId arrival_link, std::uint32_t flits);

    /**
     * Inject a request addressed to this cube into the local NoC as if
     * it had arrived on link @p arrival_link (ring wrap/up arrivals
     * enter through the pass-through switch, not the link RX).
     * @return false when the NoC cannot accept it yet
     */
    bool tryInjectLocal(LinkId arrival_link, const HmcPacketPtr &pkt);

    /** Retry draining a link's RX buffer (what its head waits on
     *  freed). */
    void kickLinkRx(LinkId l) { drainLinkRx(l); }

    /** Retry a blocked NoC ejection at a link endpoint. */
    void kickEject(LinkId l) { net_->kickEject(linkEndpoint(l)); }

    /** Called instead of the link RX drain whenever a link endpoint's
     *  inject-space callback runs: a chain switch retries what waits on
     *  the credits, this RX's drain included. */
    void setInjectSpaceHook(InlineFunction<void(LinkId)> fn);

    /** Called when the drain of a link's RX stops at a head that can
     *  neither be forwarded nor injected yet. */
    void setRxBlockedHook(InlineFunction<void(LinkId)> fn)
    {
        rxBlockedHook_ = std::move(fn);
    }

  private:
    HmcConfig cfg_;
    CubeId cubeId_;
    AddressMap map_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<SerdesLink>> links_;
    std::vector<std::unique_ptr<VaultController>> vaults_;
    std::unique_ptr<PowerModel> power_;
    ForwardFn forwarder_;
    InlineFunction<void(LinkId)> injectSpaceHook_;
    InlineFunction<void(LinkId)> rxBlockedHook_;

    /** Move request packets from a link's RX buffer into the NoC. */
    void drainLinkRx(LinkId l);

    /** Decode and inject one local request (credits already checked). */
    void injectLocal(LinkId arrival_link, const HmcPacketPtr &pkt);
};

}  // namespace hmcsim

#endif  // HMCSIM_HMC_HMC_DEVICE_H_
