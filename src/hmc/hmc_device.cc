#include "hmc/hmc_device.h"

#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"
#include "noc/topology.h"

namespace hmcsim {

SerdesLink::Params
linkParamsFrom(const HmcConfig &cfg, std::uint64_t seed_offset)
{
    SerdesLink::Params lp;
    lp.lanes = cfg.lanesPerLink;
    lp.gbps = cfg.linkGbps;
    lp.wireLatency = cfg.linkWireLatency;
    lp.serdesLatency = cfg.serdesLatency;
    lp.tokens = cfg.linkTokens;
    lp.tokenReturnLatency = cfg.tokenReturnLatency;
    lp.crcErrorProb = cfg.crcErrorProb;
    lp.retryDelay = cfg.retryDelay;
    lp.seed = cfg.linkSeed + seed_offset;
    return lp;
}

HmcDevice::HmcDevice(Kernel &kernel, Component *parent, std::string name,
                     const HmcConfig &cfg, CubeId cube_id)
    : Component(kernel, parent, std::move(name)), cfg_(cfg),
      cubeId_(cube_id), map_(cfg_)
{
    cfg_.validate();
    if (cubeId_ >= cfg_.chain.numCubes)
        panic("HmcDevice: cube id beyond hmc.num_cubes");

    const TopologySpec topo = makeTopology(
        cfg_.topology, cfg_.numVaults, cfg_.numQuadrants, cfg_.numLinks);
    net_ = std::make_unique<Network>(kernel, this, "noc", topo, cfg_.noc);

    // Decorrelate CRC error streams across chained cubes (cube 0 keeps
    // the single-cube seed).
    const SerdesLink::Params lp = linkParamsFrom(
        cfg_, static_cast<std::uint64_t>(cubeId_) * 7919);

    for (LinkId l = 0; l < cfg_.numLinks; ++l) {
        links_.push_back(std::make_unique<SerdesLink>(
            kernel, this, "link" + std::to_string(l), l, lp));
    }

    VaultController::Params vp;
    vp.inputQueueFlits = cfg_.vcInputQueueFlits;
    vp.bankQueueDepth = cfg_.vcBankQueueDepth;
    vp.responseQueueFlits = cfg_.vcResponseQueueFlits;
    vp.frontendLatency = cfg_.vcFrontendLatency;
    vp.backendLatency = cfg_.vcBackendLatency;
    vp.requestCycle = cfg_.vcRequestCycle;
    vp.scheduler = schedulerFromString(cfg_.scheduler);
    vp.pagePolicy = pagePolicyFromString(cfg_.pagePolicy);
    vp.trefi = cfg_.trefi;

    const DramTimingParams timing = cfg_.dramTiming();

    for (VaultId v = 0; v < cfg_.numVaults; ++v) {
        // Per-vault systematic variation factor f_v in [0, 1); chained
        // cubes draw from disjoint seed ranges (cube 0 unchanged).
        std::uint64_t s = cfg_.vaultJitterSeed + v +
            static_cast<std::uint64_t>(cubeId_) * 1000003;
        const double f = static_cast<double>(splitmix64(s) >> 11) *
            0x1.0p-53;
        VaultController::Params vpv = vp;
        vpv.jitterPerFlit =
            nsToTicks(f * cfg_.vaultJitterNsPerFlit);
        vaults_.push_back(std::make_unique<VaultController>(
            kernel, this, "vault" + std::to_string(v), v,
            vaultEndpoint(v), *net_, map_, timing, cfg_.numBanksPerVault,
            vpv));
    }

    // Wire vault controllers as NoC endpoints.
    for (VaultId v = 0; v < cfg_.numVaults; ++v) {
        VaultController *vc = vaults_[v].get();
        Network::EndpointOps ops;
        ops.tryReserve = [vc](std::uint32_t flits) {
            return vc->tryReserveInput(flits);
        };
        ops.deliver = [vc](const NocMessage &msg) {
            vc->deliverRequest(msg);
        };
        ops.onInjectSpace = [vc] { vc->onInjectSpace(); };
        net_->setEndpoint(vaultEndpoint(v), std::move(ops));
    }

    // Wire link masters: requests drain from the link RX buffer into
    // the NoC; responses eject from the NoC into the link's upstream
    // transmitter (token-reserved at switch allocation).
    for (LinkId l = 0; l < cfg_.numLinks; ++l) {
        SerdesLink *lk = links_[l].get();
        const NodeId ep = linkEndpoint(l);

        Network::EndpointOps ops;
        ops.tryReserve = [lk](std::uint32_t flits) {
            if (!lk->canSend(LinkDir::CubeToHost, flits))
                return false;
            lk->reserveTokens(LinkDir::CubeToHost, flits);
            return true;
        };
        ops.deliver = [lk](const NocMessage &msg) {
            auto pkt = std::static_pointer_cast<HmcPacket>(msg.payload);
            lk->send(LinkDir::CubeToHost, pkt);
        };
        ops.onInjectSpace = [this, l] {
            if (injectSpaceHook_)
                injectSpaceHook_(l);
            else
                drainLinkRx(l);
        };
        net_->setEndpoint(ep, std::move(ops));

        lk->setOnRxAvailable(LinkDir::HostToCube,
                             [this, l] { drainLinkRx(l); });
        lk->setOnTokensFree(LinkDir::CubeToHost, [this, ep] {
            net_->kickEject(ep);
        });
    }

    // Power/thermal model: every instrumented component reports into
    // it, and its governor feeds timing stretch back into the vaults
    // and links.  Periodic stepping is started by System so that
    // device-only tests keep a drainable event queue.
    if (cfg_.power.enabled) {
        power_ = std::make_unique<PowerModel>(kernel, this, "power",
                                              cfg_.power);
        net_->setPowerProbe(power_.get());
        for (auto &lk : links_)
            lk->setPowerProbe(power_.get());
        for (auto &vc : vaults_)
            vc->setPowerProbe(power_.get(),
                              cfg_.power.thermal.numDramLayers);
        power_->setThrottleApplier(
            [this](double s) { applyThrottle(s); });
    }
}

void
HmcDevice::setInjectSpaceHook(InlineFunction<void(LinkId)> fn)
{
    injectSpaceHook_ = std::move(fn);
}

void
HmcDevice::applyThrottle(double slowdown)
{
    for (auto &vc : vaults_)
        vc->setThrottle(slowdown);
    for (auto &lk : links_)
        lk->setThrottle(slowdown);
}

SerdesLink &
HmcDevice::link(LinkId l)
{
    if (l >= links_.size())
        panic("HmcDevice::link: link out of range");
    return *links_[l];
}

VaultController &
HmcDevice::vaultController(VaultId v)
{
    if (v >= vaults_.size())
        panic("HmcDevice::vaultController: vault out of range");
    return *vaults_[v];
}

void
HmcDevice::injectLocal(LinkId arrival_link, const HmcPacketPtr &pkt)
{
    const NodeId ep = linkEndpoint(arrival_link);
    pkt->vault = map_.decode(pkt->addr).vault;
    pkt->link = arrival_link;
    NocMessage msg;
    msg.id = pkt->id;
    msg.src = ep;
    msg.dst = vaultEndpoint(pkt->vault);
    msg.flits = pkt->flits();
    msg.payload = pkt;
    net_->inject(ep, std::move(msg));
}

bool
HmcDevice::canInjectLocal(LinkId arrival_link, std::uint32_t flits)
{
    return net_->canInject(linkEndpoint(arrival_link), flits);
}

bool
HmcDevice::tryInjectLocal(LinkId arrival_link, const HmcPacketPtr &pkt)
{
    if (!canInjectLocal(arrival_link, pkt->flits()))
        return false;  // onInjectSpace re-enters
    injectLocal(arrival_link, pkt);
    return true;
}

void
HmcDevice::drainLinkRx(LinkId l)
{
    // Chained, a blocked drain tells the switch, which accounts the
    // refused head (its Up port) and retries the drain when a queue the
    // head waits on pops; the lane's inject-space callback retries a
    // NoC-credit stall.
    SerdesLink &lk = *links_[l];
    while (lk.rxAvailable(LinkDir::HostToCube)) {
        const HmcPacketPtr &head = lk.rxPeek(LinkDir::HostToCube);
        // Pass-through: anything not addressed to this cube (another
        // cube's request, or a response transiting a ring) goes to the
        // chain switch.  A full switch leaves the packet in the RX
        // buffer -- head-of-line backpressure holds the link tokens,
        // which is what makes the hop-by-hop credits end-to-end.
        if (head->isResponse() || head->cube != cubeId_) {
            if (!forwarder_)
                panic("HmcDevice: packet for cube " +
                      std::to_string(head->cube) +
                      " arrived at cube " + std::to_string(cubeId_) +
                      " with no chain forwarder wired");
            if (!forwarder_(l, head)) {
                if (rxBlockedHook_)
                    rxBlockedHook_(l);
                return;  // switch kicks us when space frees
            }
            lk.rxPop(LinkDir::HostToCube);
            continue;
        }
        // Pop before injecting: the RX token return must take its slot
        // ahead of the injection's events.
        if (!net_->canInject(linkEndpoint(l), head->flits())) {
            if (rxBlockedHook_)
                rxBlockedHook_(l);
            return;  // onInjectSpace re-enters
        }
        HmcPacketPtr pkt = lk.rxPop(LinkDir::HostToCube);
        injectLocal(l, pkt);
    }
}

std::uint64_t
HmcDevice::totalRequestsServed() const
{
    std::uint64_t total = 0;
    for (const auto &v : vaults_)
        total += v->requestsServed();
    return total;
}

}  // namespace hmcsim
