/**
 * @file
 * Differential test of the NoC router.  noc/router.h posts one event
 * per hop: the sender queues each message at the downstream input with
 * its ready time, and an output's serializer-done slot is folded
 * unless something waits on it.  The reference below is the per-hop
 * router that model replaced -- an arrival event, a route-ready event
 * and a serializer-done event per message per hop -- kept here as an
 * oracle, not an engine.  Both carry the same random traffic through
 * the HMC quadrant topologies with buffers barely larger than one
 * packet, so head-of-line blocks, credit stalls, ejection refusals and
 * same-tick ready ties all occur; every message must be delivered at
 * the same time, in the same order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/topology.h"
#include "sim/component.h"

namespace hmcsim {
namespace {

/** How often the reference met the cases the fold must get right. */
struct Coverage {
    /** A ready input head that did not fit its output queue. */
    std::uint64_t holBlocks = 0;
    /** A router output waiting for downstream credits. */
    std::uint64_t creditStalls = 0;
    /** An endpoint refusing a reservation. */
    std::uint64_t ejectRefusals = 0;
    /** A serializer-done scan at the tick an input head becomes ready. */
    std::uint64_t readyTies = 0;
};

/** The per-hop reference router (no statistics, no power probe). */
class RefRouter
{
  public:
    RefRouter(Kernel &kernel, const RouterParams &params, Coverage &cov)
        : kernel_(kernel), params_(params), cov_(cov)
    {
    }

    int
    addInput(CreditPool *upstream)
    {
        inputs_.push_back(Input{{}, upstream});
        return static_cast<int>(inputs_.size() - 1);
    }

    int
    connectTo(RefRouter *dst)
    {
        const std::size_t o = outputs_.size();
        auto out = std::make_unique<Output>(params_.outputQueueFlits);
        out->dstRouter = dst;
        out->credits.emplace(kernel_, dst->params_.inputBufferFlits);
        out->credits->setOnAvailable([this, o] { tryDrain(o); });
        out->dstInput = dst->addInput(&*out->credits);
        out->chan = std::make_unique<Channel>(kernel_, "out",
                                              params_.flitPeriod,
                                              params_.wireLatency);
        outputs_.push_back(std::move(out));
        return static_cast<int>(o);
    }

    int
    addOutputToEndpoint(NodeId ep, std::function<bool(std::uint32_t)> reserve,
                        std::function<void(const NocMessage &)> deliver)
    {
        auto out = std::make_unique<Output>(params_.ejectQueueFlits);
        out->ejectEp = ep;
        out->tryReserve = std::move(reserve);
        out->deliver = std::move(deliver);
        out->chan = std::make_unique<Channel>(kernel_, "eject",
                                              params_.flitPeriod,
                                              params_.wireLatency);
        outputs_.push_back(std::move(out));
        return static_cast<int>(outputs_.size() - 1);
    }

    void setRoutes(std::vector<int> routes) { routeOut_ = std::move(routes); }

    /** Arrival event: route routerLatency from now. */
    void
    acceptMessage(int input, const NocMessage &msg)
    {
        const std::size_t i = static_cast<std::size_t>(input);
        const Tick ready = kernel_.now() + params_.routerLatency;
        inputs_[i].q.emplace_back(ready, msg);
        kernel_.scheduleAt(ready, [this, i] { processInput(i); });
    }

    void
    kickEject(NodeId ep)
    {
        for (std::size_t o = 0; o < outputs_.size(); ++o) {
            Output &out = *outputs_[o];
            if (out.ejectEp == ep && out.blockedOnEject) {
                out.blockedOnEject = false;
                tryDrain(o);
            }
        }
    }

  private:
    struct Input {
        std::deque<std::pair<Tick, NocMessage>> q;
        CreditPool *upstream;
    };

    struct Output {
        explicit Output(std::uint32_t flits) : q(flits) {}

        FlitBuffer q;
        std::unique_ptr<Channel> chan;
        RefRouter *dstRouter = nullptr;
        int dstInput = -1;
        std::optional<CreditPool> credits;
        NodeId ejectEp = kNodeInvalid;
        std::function<bool(std::uint32_t)> tryReserve;
        std::function<void(const NocMessage &)> deliver;
        bool sending = false;
        bool blockedOnEject = false;
    };

    void
    processInput(std::size_t i)
    {
        Input &in = inputs_[i];
        while (!in.q.empty()) {
            const auto &[ready, msg] = in.q.front();
            if (ready > kernel_.now())
                return;
            const std::size_t o = static_cast<std::size_t>(routeOut_[msg.dst]);
            Output &out = *outputs_[o];
            if (!out.q.canAccept(msg.flits)) {
                ++cov_.holBlocks;
                return;
            }
            out.q.push(msg);
            if (in.upstream)
                in.upstream->refundIn(params_.creditLatency, msg.flits);
            in.q.pop_front();
            tryDrain(o);
        }
    }

    void
    tryDrain(std::size_t o)
    {
        Output &out = *outputs_[o];
        if (out.sending || out.q.empty())
            return;
        const NocMessage &head = out.q.front();
        if (out.dstRouter) {
            if (!out.credits->canConsume(head.flits)) {
                ++cov_.creditStalls;
                return;
            }
            out.credits->consume(head.flits);
        } else {
            if (!out.tryReserve(head.flits)) {
                ++cov_.ejectRefusals;
                out.blockedOnEject = true;
                return;
            }
            out.blockedOnEject = false;
        }
        out.sending = true;
        const Channel::Times t = out.chan->reserve(head.flits,
                                                   kernel_.now());
        NocMessage msg = head;
        kernel_.scheduleAt(t.serDone, [this, o] { outputSerDone(o); });
        if (out.dstRouter) {
            RefRouter *dst = out.dstRouter;
            const int di = out.dstInput;
            kernel_.scheduleAt(t.arrival, [dst, di, msg] {
                dst->acceptMessage(di, msg);
            });
        } else {
            Output *op = &out;
            kernel_.scheduleAt(t.arrival, [op, msg] { op->deliver(msg); });
        }
    }

    void
    outputSerDone(std::size_t o)
    {
        Output &out = *outputs_[o];
        out.q.pop();
        out.sending = false;
        tryDrain(o);
        for (const Input &in : inputs_) {
            if (!in.q.empty() && in.q.front().first == kernel_.now())
                ++cov_.readyTies;
        }
        const std::size_t n = inputs_.size();
        const std::size_t base = inputRR_++;
        for (std::size_t k = 0; k < n; ++k)
            processInput((base + k) % n);
    }

    Kernel &kernel_;
    RouterParams params_;
    Coverage &cov_;
    std::vector<Input> inputs_;
    std::vector<std::unique_ptr<Output>> outputs_;
    std::vector<int> routeOut_;
    std::size_t inputRR_ = 0;
};

/** Network::inject / kickEject over RefRouters, wired in Network's
 *  order so every router sees the same input and output indices. */
class RefNetwork
{
  public:
    RefNetwork(Kernel &kernel, const TopologySpec &spec,
               const RouterParams &params)
        : kernel_(kernel)
    {
        const RoutingTables routes = computeRoutes(spec);
        const std::uint32_t nr = spec.numRouters;
        const std::uint32_t ne = spec.numEndpoints();
        ops_.resize(ne);
        for (std::uint32_t r = 0; r < nr; ++r)
            routers_.push_back(
                std::make_unique<RefRouter>(kernel, params, coverage));
        std::vector<std::vector<int>> toNeighbor(nr, std::vector<int>(nr, -1));
        for (const auto &[a, b] : spec.routerLinks) {
            toNeighbor[a][b] = routers_[a]->connectTo(routers_[b].get());
            toNeighbor[b][a] = routers_[b]->connectTo(routers_[a].get());
        }
        std::vector<std::vector<int>> ejectOut(nr, std::vector<int>(ne, -1));
        for (std::uint32_t e = 0; e < ne; ++e) {
            const std::uint32_t home = spec.endpointRouter[e];
            Inject &ip = inject_.emplace_back(kernel, params);
            ip.router = routers_[home].get();
            ip.input = ip.router->addInput(&ip.credits);
            ejectOut[home][e] = ip.router->addOutputToEndpoint(
                e,
                [this, e](std::uint32_t f) { return ops_[e].tryReserve(f); },
                [this, e](const NocMessage &m) { ops_[e].deliver(m); });
            ejectHome_.push_back(ip.router);
        }
        for (std::uint32_t r = 0; r < nr; ++r) {
            std::vector<int> table(ne);
            for (std::uint32_t e = 0; e < ne; ++e) {
                const std::uint32_t next = routes.nextRouter[r][e];
                table[e] = next == r ? ejectOut[r][e] : toNeighbor[r][next];
            }
            routers_[r]->setRoutes(std::move(table));
        }
    }

    void
    setEndpoint(NodeId ep, Network::EndpointOps ops)
    {
        inject_[ep].credits.setOnAvailable(std::move(ops.onInjectSpace));
        ops_[ep] = std::move(ops);
    }

    bool
    canInject(NodeId ep, std::uint32_t flits)
    {
        return inject_[ep].credits.canConsume(flits);
    }

    void
    inject(NodeId ep, NocMessage msg)
    {
        Inject &ip = inject_[ep];
        ip.credits.consume(msg.flits);
        const Channel::Times t = ip.chan.reserve(msg.flits, kernel_.now());
        RefRouter *router = ip.router;
        const int input = ip.input;
        kernel_.scheduleAt(t.arrival, [router, input, msg] {
            router->acceptMessage(input, msg);
        });
    }

    void kickEject(NodeId ep) { ejectHome_[ep]->kickEject(ep); }

    Coverage coverage;

  private:
    struct Inject {
        Inject(Kernel &kernel, const RouterParams &params)
            : credits(kernel, params.inputBufferFlits),
              chan(kernel, "inject", params.flitPeriod, params.wireLatency)
        {
        }

        CreditPool credits;
        Channel chan;
        RefRouter *router = nullptr;
        int input = -1;
    };

    Kernel &kernel_;
    std::vector<std::unique_ptr<RefRouter>> routers_;
    std::deque<Inject> inject_;
    std::vector<RefRouter *> ejectHome_;
    std::vector<Network::EndpointOps> ops_;
};

class RootComponent : public Component
{
  public:
    explicit RootComponent(Kernel &k) : Component(k, nullptr, "root") {}
};

/** The router under test behind the same four calls. */
class FoldedNetwork
{
  public:
    FoldedNetwork(Kernel &kernel, const TopologySpec &spec,
                  const RouterParams &params)
        : root_(kernel), net_(kernel, &root_, "noc", spec, params)
    {
    }

    void
    setEndpoint(NodeId ep, Network::EndpointOps ops)
    {
        net_.setEndpoint(ep, std::move(ops));
    }
    bool canInject(NodeId ep, std::uint32_t f) { return net_.canInject(ep, f); }
    void inject(NodeId ep, NocMessage msg) { net_.inject(ep, std::move(msg)); }
    void kickEject(NodeId ep) { net_.kickEject(ep); }

  private:
    RootComponent root_;
    Network net_;
};

/** Deterministic xorshift64 PRNG. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed ? seed : 1) {}

    std::uint64_t
    next(std::uint64_t n)
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_ % n;
    }

  private:
    std::uint64_t s_;
};

/** One message of the offered traffic. */
struct Offer {
    PacketId id;
    NodeId src;
    NodeId dst;
    std::uint32_t flits;
    /** Earliest injection time. */
    Tick at;
    /** How long the destination holds the message's space. */
    Tick hold;
};

struct Delivery {
    NodeId ep;
    PacketId id;
    Tick at;

    bool
    operator==(const Delivery &o) const
    {
        return ep == o.ep && id == o.id && at == o.at;
    }
};

struct Scenario {
    std::string topology;
    RouterParams params;
    /** Receive space of each endpoint, in flits. */
    std::uint32_t endpointFlits;
    /** Mean gap between one endpoint's offers. */
    Tick meanGap;
    Tick maxHold;
    std::uint64_t seed;
    int messages;
};

std::vector<Offer>
makeTraffic(const Scenario &sc, std::uint32_t endpoints)
{
    static const std::uint32_t kSizes[] = {1, 2, 3, 5, 9, 17};
    Rng rng(sc.seed);
    std::vector<Tick> next(endpoints, 0);
    std::vector<Offer> offers;
    for (int k = 0; k < sc.messages; ++k) {
        Offer o;
        o.id = static_cast<PacketId>(k + 1);
        o.src = static_cast<NodeId>(rng.next(endpoints));
        o.dst = static_cast<NodeId>(rng.next(endpoints - 1));
        if (o.dst >= o.src)
            ++o.dst;
        o.flits = kSizes[rng.next(6)];
        // Gaps on a 400 ps grid: arrivals, serializer slots and ready
        // times keep landing on the same ticks.
        next[o.src] += 400 * rng.next(2 * sc.meanGap / 400 + 1);
        o.at = next[o.src];
        o.hold = 400 * rng.next(sc.maxHold / 400 + 1);
        offers.push_back(o);
    }
    return offers;
}

/** Network of type Net (with its kernel) carrying one scenario. */
template <typename Net>
struct Fabric {
    Fabric(const TopologySpec &spec, const RouterParams &params)
        : net(kernel, spec, params)
    {
    }

    Kernel kernel;
    Net net;
};

/**
 * Offer @p traffic to @p fab and return every delivery in the order it
 * happened.
 */
template <typename Net>
std::vector<Delivery>
run(const Scenario &sc, const TopologySpec &spec,
    const std::vector<Offer> &traffic, Fabric<Net> &fab)
{
    Kernel &kernel = fab.kernel;
    Net &net = fab.net;
    const std::uint32_t ne = spec.numEndpoints();

    struct Endpoint {
        std::deque<const Offer *> pending;
        std::uint32_t used = 0;
    };
    std::vector<Endpoint> eps(ne);
    std::vector<const Offer *> byId(traffic.size() + 1);
    std::vector<Delivery> got;

    std::function<void(NodeId)> pump = [&](NodeId e) {
        auto &q = eps[e].pending;
        while (!q.empty() && q.front()->at <= kernel.now() &&
               net.canInject(e, q.front()->flits)) {
            NocMessage m;
            m.id = q.front()->id;
            m.src = e;
            m.dst = q.front()->dst;
            m.flits = q.front()->flits;
            q.pop_front();
            net.inject(e, std::move(m));
        }
    };
    for (NodeId e = 0; e < ne; ++e) {
        Network::EndpointOps ops;
        ops.tryReserve = [&, e](std::uint32_t f) {
            if (eps[e].used + f > sc.endpointFlits)
                return false;
            eps[e].used += f;
            return true;
        };
        ops.deliver = [&, e](const NocMessage &m) {
            got.push_back(Delivery{e, m.id, kernel.now()});
            const std::uint32_t f = m.flits;
            kernel.scheduleIn(byId[m.id]->hold, [&, e, f] {
                eps[e].used -= f;
                net.kickEject(e);
            });
        };
        ops.onInjectSpace = [&pump, e] { pump(e); };
        net.setEndpoint(e, std::move(ops));
    }
    for (const Offer &o : traffic) {
        byId[o.id] = &o;
        eps[o.src].pending.push_back(&o);
        const NodeId src = o.src;
        kernel.scheduleAt(o.at, [&pump, src] { pump(src); });
    }
    kernel.run();
    return got;
}

/** Tiny buffers: one max-size (17-flit) packet and a bit more. */
RouterParams
tinyBuffers()
{
    RouterParams p;
    p.inputBufferFlits = 20;
    p.outputQueueFlits = 18;
    p.ejectQueueFlits = 19;
    return p;
}

/** Run @p sc through both routers; return what the reference met. */
Coverage
expectSameDeliveries(const Scenario &sc)
{
    const TopologySpec spec = makeTopology(sc.topology, 16, 4, 2);
    const auto traffic = makeTraffic(sc, spec.numEndpoints());
    Fabric<RefNetwork> ref(spec, sc.params);
    Fabric<FoldedNetwork> folded(spec, sc.params);
    const auto want = run(sc, spec, traffic, ref);
    const auto have = run(sc, spec, traffic, folded);
    EXPECT_LT(folded.kernel.eventsExecuted(), ref.kernel.eventsExecuted());
    EXPECT_EQ(want.size(), traffic.size()) << "reference wedged";
    EXPECT_EQ(have.size(), want.size());
    for (std::size_t k = 0; k < std::min(want.size(), have.size()); ++k) {
        if (!(have[k] == want[k])) {
            ADD_FAILURE() << "delivery " << k << ": message " << have[k].id
                          << " at " << have[k].at << " on endpoint "
                          << have[k].ep << ", reference message "
                          << want[k].id << " at " << want[k].at
                          << " on endpoint " << want[k].ep;
            break;
        }
    }
    EXPECT_GT(ref.net.coverage.readyTies, 0u);
    return ref.net.coverage;
}

/** The tiny-buffer scenarios must reach every blocking case. */
void
expectEveryStall(const Coverage &cov)
{
    EXPECT_GT(cov.holBlocks, 0u);
    EXPECT_GT(cov.creditStalls, 0u);
    EXPECT_GT(cov.ejectRefusals, 0u);
}

class NocDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NocDifferential, SaturatedXbarTinyBuffers)
{
    expectEveryStall(expectSameDeliveries(
        {"quadrant_xbar", tinyBuffers(), 20, 2000, 12000, GetParam(), 3000}));
}

TEST_P(NocDifferential, SaturatedRingTinyBuffers)
{
    expectEveryStall(expectSameDeliveries(
        {"quadrant_ring", tinyBuffers(), 24, 2000, 8000, GetParam(), 3000}));
}

TEST_P(NocDifferential, ModerateLoadDefaultBuffers)
{
    expectSameDeliveries({"quadrant_xbar", RouterParams{}, 64, 6000, 4000,
                          GetParam(), 3000});
}

TEST_P(NocDifferential, OffGridTimingTinyBuffers)
{
    RouterParams p = tinyBuffers();
    p.flitPeriod = 400;
    p.wireLatency = 1200;
    p.routerLatency = 800;
    p.creditLatency = 2000;
    expectEveryStall(expectSameDeliveries(
        {"quadrant_xbar", p, 20, 1600, 16000, GetParam(), 3000}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NocDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hmcsim
