#include "noc/network.h"

#include "common/log.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace hmcsim {

Network::Network(Kernel &kernel, Component *parent, std::string name,
                 const TopologySpec &spec, const RouterParams &params)
    : Component(kernel, parent, std::move(name)), spec_(spec),
      routes_(computeRoutes(spec))
{
    const std::uint32_t nr = spec_.numRouters;
    const std::uint32_t ne = spec_.numEndpoints();

    ops_.resize(ne);
    opsSet_.assign(ne, false);

    for (std::uint32_t r = 0; r < nr; ++r) {
        routers_.push_back(std::make_unique<Router>(
            kernel, this, "router" + std::to_string(r), r, params));
    }

    // Router-to-router wiring: each undirected link becomes two
    // channels, each credited by its output's pool.
    //
    // outputToNeighbor[r][n] remembers which output of router r reaches
    // neighbour n so route tables can be filled afterwards.
    std::vector<std::vector<int>> outputToNeighbor(
        nr, std::vector<int>(nr, -1));
    for (const auto &[a, b] : spec_.routerLinks) {
        outputToNeighbor[a][b] = routers_[a]->connectTo(routers_[b].get());
        outputToNeighbor[b][a] = routers_[b]->connectTo(routers_[a].get());
    }

    // Endpoint attachment: injection channel + credited router input,
    // and an ejection output with reservation callbacks.
    ejectLocs_.resize(ne);
    std::vector<std::vector<int>> ejectOutput(nr, std::vector<int>(ne, -1));
    for (std::uint32_t e = 0; e < ne; ++e) {
        const std::uint32_t home = spec_.endpointRouter[e];
        Router *router = routers_[home].get();

        InjectPort &ip =
            injectPorts_.emplace_back(kernel, params.inputBufferFlits);
        ip.router = router;
        ip.chan = std::make_unique<Channel>(
            kernel, path() + ".inject" + std::to_string(e),
            params.flitPeriod, params.wireLatency);
        const NodeId ep = e;
        ip.input = router->addInput(&ip.credits);

        ejectLocs_[e].router = router;
        Router::Eject ej;
        ej.tryReserve = [this, ep](std::uint32_t flits) {
            return opsFor(ep).tryReserve(flits);
        };
        ej.deliver = [this, ep](const NocMessage &msg) {
            onDelivered(ep, msg);
        };
        ejectOutput[home][e] = router->addOutputToEndpoint(e, std::move(ej));
    }

    // Routing tables: per router, output port for each destination.
    for (std::uint32_t r = 0; r < nr; ++r) {
        std::vector<int> table(ne, -1);
        for (std::uint32_t e = 0; e < ne; ++e) {
            const std::uint32_t next = routes_.nextRouter[r][e];
            if (next == r) {
                table[e] = ejectOutput[r][e];
                if (table[e] < 0)
                    panic("Network: missing eject output");
            } else {
                table[e] = outputToNeighbor[r][next];
                if (table[e] < 0)
                    panic("Network: missing neighbour output");
            }
        }
        routers_[r]->setRoutes(std::move(table));
    }
}

void
Network::setEndpoint(NodeId ep, EndpointOps ops)
{
    if (ep >= ops_.size())
        panic("Network::setEndpoint: endpoint out of range");
    if (opsSet_[ep])
        panic("Network::setEndpoint: endpoint " + std::to_string(ep) +
              " registered twice");
    if (!ops.tryReserve || !ops.deliver)
        panic("Network::setEndpoint: incomplete callbacks");
    injectPorts_[ep].credits.setOnAvailable(std::move(ops.onInjectSpace));
    ops_[ep] = std::move(ops);
    opsSet_[ep] = true;
}

void
Network::rewireEndpoint(NodeId ep, EndpointOps ops)
{
    if (ep >= ops_.size() || !opsSet_[ep])
        panic("Network::rewireEndpoint: endpoint not registered");
    if (!ops.tryReserve || !ops.deliver)
        panic("Network::rewireEndpoint: incomplete callbacks");
    injectPorts_[ep].credits.setOnAvailable(std::move(ops.onInjectSpace));
    ops_[ep] = std::move(ops);
}

Network::EndpointOps &
Network::opsFor(NodeId ep)
{
    if (ep >= ops_.size() || !opsSet_[ep])
        panic("Network: endpoint " + std::to_string(ep) +
              " has no registered ops");
    return ops_[ep];
}

bool
Network::canInject(NodeId ep, std::uint32_t flits)
{
    if (ep >= injectPorts_.size())
        panic("Network::canInject: endpoint out of range");
    return injectPorts_[ep].credits.canConsume(flits);
}

const CreditPool &
Network::injectCredits(NodeId ep) const
{
    if (ep >= injectPorts_.size())
        panic("Network::injectCredits: endpoint out of range");
    return injectPorts_[ep].credits;
}

void
Network::inject(NodeId ep, NocMessage msg)
{
    if (!canInject(ep, msg.flits))
        panic("Network::inject without credits (endpoint " +
              std::to_string(ep) + ")");
    InjectPort &ip = injectPorts_[ep];
    ip.credits.consume(msg.flits);
    msg.injectedAt = now();
    const Channel::Times t = ip.chan->reserve(msg.flits, now());
    ip.router->acceptMessage(ip.input, msg, t.arrival);
}

void
Network::kickEject(NodeId ep)
{
    if (ep >= ejectLocs_.size())
        panic("Network::kickEject: endpoint out of range");
    ejectLocs_[ep].router->kickEject(ep);
}

std::uint32_t
Network::hopCount(NodeId from, NodeId to) const
{
    if (from >= spec_.numEndpoints() || to >= spec_.numEndpoints())
        panic("Network::hopCount: endpoint out of range");
    return routes_.hops[spec_.endpointRouter[from]][to];
}

void
Network::setPowerProbe(PowerProbe *probe)
{
    for (auto &r : routers_)
        r->setPowerProbe(probe);
}

void
Network::onDelivered(NodeId ep, const NocMessage &msg)
{
    delivered_.inc();
    flitsDelivered_.inc(msg.flits);
    latencyNs_.add(ticksToNs(now() - msg.injectedAt));
    opsFor(ep).deliver(msg);
}

void
Network::listStats(StatList &s) const
{
    s.counter("messages_delivered", delivered_);
    s.counter("flits_delivered", flitsDelivered_);
    s.sampler("avg_latency_ns", latencyNs_);
    s.gauge("max_latency_ns", [this] { return latencyNs_.max(); });
}

}  // namespace hmcsim
