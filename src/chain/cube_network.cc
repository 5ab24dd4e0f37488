#include "chain/cube_network.h"

#include <algorithm>

#include "common/log.h"

namespace hmcsim {

CubeNetwork::CubeNetwork(Kernel &kernel, Component *parent, std::string name,
                         const HmcConfig &cfg,
                         std::vector<CubeId> host_entries)
    : Component(kernel, parent, std::move(name)), cfg_(cfg),
      routes_(chainTopologyFromString(cfg_.chain.topology),
              cfg_.chain.numCubes, std::move(host_entries)),
      mode_(chainRoutingFromString(cfg_.chain.routing))
{
    cfg_.validate();
    AdaptiveRoutingParams ap;
    ap.thresholdFlits = cfg_.chain.adaptiveThresholdFlits;
    ap.misrouteThresholdFlits = cfg_.chain.adaptiveMisrouteThresholdFlits;
    ap.maxMisroutes = cfg_.chain.adaptiveMaxMisroutes;
    policy_ = makeChainRoutingPolicy(mode_, routes_, ap);
    const std::uint32_t n = cfg_.chain.numCubes;

    for (CubeId c = 0; c < n; ++c) {
        cubes_.push_back(std::make_unique<HmcDevice>(
            kernel, this, "hmc" + std::to_string(c), cfg_, c));
    }
    hostLinks_.resize(routes_.numHosts());

    if (n > 1 && routes_.topology() != ChainTopology::Star)
        wireChain();
}

void
CubeNetwork::wireChain()
{
    const std::uint32_t n = numCubes();
    const bool ring = routes_.topology() == ChainTopology::Ring;
    const bool multi_host = routes_.numHosts() > 1;

    if (ring) {
        const SerdesLink::Params lp = linkParamsFrom(cfg_, 0xABCDEFull);
        for (LinkId l = 0; l < cfg_.numLinks; ++l) {
            // Orientation: HostToCube runs cube 0 -> cube N-1.
            wrapLinks_.push_back(std::make_unique<SerdesLink>(
                kernel(), this, "wrap" + std::to_string(l), l, lp));
            wrapLinks_.back()->setEndpointMode(LinkEndpointMode::PassThrough);
            // Attribute wrap SerDes energy like cube-owned cables: to
            // the cube on the downstream side of the hop (cube N-1).
            if (PowerModel *pm = cubes_[n - 1]->powerModel())
                wrapLinks_.back()->setPowerProbe(pm);
        }
    }

    for (CubeId c = 0; c < n; ++c) {
        switches_.push_back(std::make_unique<ChainSwitch>(
            kernel(), *cubes_[c], "fwd", routes_, *policy_, cfg_.chain));
        ChainSwitch *sw = switches_.back().get();
        if (PowerModel *pm = cubes_[c]->powerModel())
            sw->setPowerProbe(pm);
        HmcDevice *dev = cubes_[c].get();
        dev->setForwarder([sw](LinkId l, const HmcPacketPtr &pkt) {
            return sw->tryForward(l, pkt);
        });
        dev->setInjectSpaceHook(
            [sw](LinkId l) { sw->onLocalInjectSpace(l); });
        dev->setRxBlockedHook(
            [sw](LinkId l) { sw->onDeviceRxBlocked(l); });
    }

    for (CubeId c = 0; c < n; ++c) {
        ChainSwitch *sw = switches_[c].get();
        for (LinkId l = 0; l < cfg_.numLinks; ++l) {
            // Up: this cube's own links.  The switch transmits
            // transiting responses on them; their reverse-direction RX
            // is drained by the device (cube 0) or the upstream
            // switch, never by this one.
            sw->setPort(ChainHop::Up, l, &cubes_[c]->link(l),
                        LinkDir::CubeToHost, /*consume_rx=*/false);
            if (c > 0)
                cubes_[c]->link(l).setEndpointMode(
                    LinkEndpointMode::PassThrough);

            // Down: the next cube's links; this switch drains their
            // CubeToHost RX (responses and counter-clockwise requests
            // coming back up).
            if (c + 1 < n)
                sw->setPort(ChainHop::Down, l, &cubes_[c + 1]->link(l),
                            LinkDir::HostToCube, /*consume_rx=*/true);

            // Wrap: the ring-closing links.
            if (ring && c == 0)
                sw->setPort(ChainHop::Wrap, l, wrapLinks_[l].get(),
                            LinkDir::HostToCube, /*consume_rx=*/true);
            if (ring && c == n - 1)
                sw->setPort(ChainHop::Wrap, l, wrapLinks_[l].get(),
                            LinkDir::CubeToHost, /*consume_rx=*/true);
        }

        // Multi-host, every cube's local ejection becomes a per-packet
        // route through the switch: responses can head for any host's
        // entry cube.  The NoC's switch allocation cannot see the
        // packet, so admission is unconditional; boundedness comes from
        // the hosts' tag pools (see ejectRoutedFromNoc).  Single-host
        // ring cubes on the far side eject local responses down/around
        // instead of retracing the request path.
        if (!multi_host && routes_.towardHost(c) == ChainHop::Up)
            continue;
        HmcDevice *dev = cubes_[c].get();
        for (LinkId l = 0; l < cfg_.numLinks; ++l) {
            Network::EndpointOps ops;
            if (multi_host) {
                ops.tryReserve = [](std::uint32_t) { return true; };
                ops.deliver = [sw, l](const NocMessage &msg) {
                    sw->ejectRoutedFromNoc(
                        l, std::static_pointer_cast<HmcPacket>(msg.payload));
                };
            } else {
                ops.tryReserve = [sw, l](std::uint32_t flits) {
                    return sw->tryReserveEject(l, flits);
                };
                ops.deliver = [sw, l](const NocMessage &msg) {
                    sw->ejectFromNoc(
                        l, std::static_pointer_cast<HmcPacket>(msg.payload));
                };
            }
            ops.onInjectSpace = [sw, l] { sw->onLocalInjectSpace(l); };
            dev->network().rewireEndpoint(dev->linkEndpoint(l),
                                          std::move(ops));
        }
    }

    wireHostLinks();
    combineTokenCallbacks();
    installThrottleAppliers();
}

void
CubeNetwork::wireHostLinks()
{
    for (HostId h = 0; h < routes_.numHosts(); ++h) {
        const CubeId entry = routes_.hostEntry(h);
        if (routes_.attachHop(entry) != ChainHop::Host)
            continue;  // the cube-0 host drives cube 0's own links
        // Decorrelate the CRC error stream per host like chained
        // cubes decorrelate theirs.
        const SerdesLink::Params lp =
            linkParamsFrom(cfg_, 0xB05Cull + h * 104729ull);
        ChainSwitch *sw = switches_[entry].get();
        for (LinkId l = 0; l < cfg_.numLinks; ++l) {
            hostLinks_[h].push_back(std::make_unique<SerdesLink>(
                kernel(), this,
                "host" + std::to_string(h) + "_link" + std::to_string(l),
                l, lp));
            SerdesLink *lk = hostLinks_[h].back().get();
            // Host-link SerDes energy lands on the entry cube, which
            // physically hosts the attachment PHY.
            if (PowerModel *pm = cubes_[entry]->powerModel())
                lk->setPowerProbe(pm);
            // The switch transmits responses to the host and drains
            // the request-direction RX (local injects + forwards).
            sw->setPort(ChainHop::Host, l, lk, LinkDir::CubeToHost,
                        /*consume_rx=*/true);
        }
    }
}

void
CubeNetwork::combineTokenCallbacks()
{
    // Several producers can share one link direction (NoC ejection +
    // pass-through pump); freed tokens must wake all of them.  The
    // switch pumps only ports with a ready head (see pumpReady).
    const auto ejectThenPump = [this](CubeId c, LinkId l) {
        HmcDevice *dev = cubes_[c].get();
        ChainSwitch *sw = switches_[c].get();
        return [dev, sw, l] {
            dev->kickEject(l);
            sw->pumpReady();
        };
    };
    const std::uint32_t n = numCubes();
    for (CubeId c = 0; c < n; ++c) {
        for (LinkId l = 0; l < cfg_.numLinks; ++l) {
            SerdesLink &lk = cubes_[c]->link(l);
            // CubeToHost: this cube's ejection and Up-forwarding.
            lk.setOnTokensFree(LinkDir::CubeToHost, ejectThenPump(c, l));
            // HostToCube: the upstream switch's Down-forwarding and,
            // on rings, the upstream cube's rewired ejection.  Cube
            // 0's upstream is the polling host controller.
            if (c > 0)
                lk.setOnTokensFree(LinkDir::HostToCube,
                                   ejectThenPump(c - 1, l));
        }
    }
    for (LinkId l = 0; l < static_cast<LinkId>(wrapLinks_.size()); ++l) {
        wrapLinks_[l]->setOnTokensFree(LinkDir::HostToCube,
                                       ejectThenPump(0, l));
        wrapLinks_[l]->setOnTokensFree(LinkDir::CubeToHost,
                                       ejectThenPump(n - 1, l));
    }
    for (HostId h = 0; h < hostLinks_.size(); ++h) {
        if (hostLinks_[h].empty())
            continue;
        ChainSwitch *sw = switches_[routes_.hostEntry(h)].get();
        for (auto &lk : hostLinks_[h]) {
            // CubeToHost: the entry switch's Host-port transmit.  The
            // HostToCube sender is the polling host controller, which
            // needs no callback.
            lk->setOnTokensFree(LinkDir::CubeToHost,
                                [sw] { sw->pumpReady(); });
        }
    }
}

void
CubeNetwork::installThrottleAppliers()
{
    // Thermal throttling must not leave network-owned links (ring wrap
    // hops, dedicated host attachments) at full speed while every
    // cube-owned hop is stretched.  Any cube whose throttle level
    // feeds such a link re-applies the aux-link throttles whenever its
    // own level changes.
    std::vector<CubeId> aux_cubes;
    if (!wrapLinks_.empty()) {
        aux_cubes.push_back(0);
        aux_cubes.push_back(numCubes() - 1);
    }
    for (HostId h = 0; h < hostLinks_.size(); ++h) {
        if (!hostLinks_[h].empty())
            aux_cubes.push_back(routes_.hostEntry(h));
    }
    std::sort(aux_cubes.begin(), aux_cubes.end());
    aux_cubes.erase(std::unique(aux_cubes.begin(), aux_cubes.end()),
                    aux_cubes.end());
    for (CubeId c : aux_cubes) {
        if (PowerModel *pm = cubes_[c]->powerModel()) {
            HmcDevice *dev = cubes_[c].get();
            pm->setThrottleApplier([this, dev](double s) {
                dev->applyThrottle(s);
                applyAuxLinkThrottle();
            });
        }
    }
}

void
CubeNetwork::applyAuxLinkThrottle()
{
    if (!wrapLinks_.empty()) {
        // The wrap hop follows the deeper of its two endpoint cubes.
        double slowdown = 1.0;
        for (const HmcDevice *dev :
             {cubes_.front().get(), cubes_.back().get()}) {
            if (const PowerModel *pm = dev->powerModel())
                slowdown = std::max(slowdown, pm->slowdown());
        }
        for (auto &lk : wrapLinks_)
            lk->setThrottle(slowdown);
    }
    for (HostId h = 0; h < hostLinks_.size(); ++h) {
        if (hostLinks_[h].empty())
            continue;
        const PowerModel *pm =
            cubes_[routes_.hostEntry(h)]->powerModel();
        const double slowdown = pm ? std::max(1.0, pm->slowdown()) : 1.0;
        for (auto &lk : hostLinks_[h])
            lk->setThrottle(slowdown);
    }
}

HmcDevice &
CubeNetwork::cube(CubeId c)
{
    if (c >= cubes_.size())
        panic("CubeNetwork::cube: cube out of range");
    return *cubes_[c];
}

ChainSwitch *
CubeNetwork::switchAt(CubeId c)
{
    if (c >= cubes_.size())
        panic("CubeNetwork::switchAt: cube out of range");
    return c < switches_.size() ? switches_[c].get() : nullptr;
}

SerdesLink &
CubeNetwork::hostLink(LinkId l, HostId h)
{
    if (l >= cfg_.numLinks)
        panic("CubeNetwork::hostLink: link out of range");
    if (h >= routes_.numHosts())
        panic("CubeNetwork::hostLink: host out of range");
    if (routes_.topology() == ChainTopology::Star)
        return cube(l % numCubes()).link(l);
    const CubeId entry = routes_.hostEntry(h);
    if (routes_.attachHop(entry) == ChainHop::Host)
        return *hostLinks_[h][l];
    return cube(entry).link(l);
}

CubeId
CubeNetwork::hostLinkCube(LinkId l, HostId h) const
{
    if (l >= cfg_.numLinks)
        panic("CubeNetwork::hostLinkCube: link out of range");
    if (h >= routes_.numHosts())
        panic("CubeNetwork::hostLinkCube: host out of range");
    if (routes_.topology() == ChainTopology::Star)
        return l % numCubes();
    return kCubeAll;
}

double
CubeNetwork::bisectionBandwidthGBs() const
{
    return routes_.bisectionLinkCount() *
        cfg_.linkBandwidthGBsPerDirection();
}

std::uint64_t
CubeNetwork::totalRequestsServed() const
{
    std::uint64_t total = 0;
    for (const auto &c : cubes_)
        total += c->totalRequestsServed();
    return total;
}

std::uint64_t
CubeNetwork::totalForwardedFlits() const
{
    std::uint64_t total = 0;
    for (const auto &sw : switches_)
        total += sw->forwardedFlits();
    return total;
}

std::uint64_t
CubeNetwork::bisectionFlitsSent(LinkDir dir) const
{
    const std::uint32_t n = numCubes();
    if (n < 2 || routes_.topology() == ChainTopology::Star)
        return 0;
    std::uint64_t flits = 0;
    for (LinkId l = 0; l < cfg_.numLinks; ++l)
        flits += cubes_[n / 2]->link(l).flitsSent(dir);
    for (const auto &lk : wrapLinks_)
        flits += lk->flitsSent(dir);
    return flits;
}

}  // namespace hmcsim
