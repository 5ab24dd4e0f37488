#include <gtest/gtest.h>

#include <vector>

#include "common/log.h"
#include "noc/network.h"
#include "sim/component.h"

namespace hmcsim {
namespace {

class RootComponent : public Component
{
  public:
    explicit RootComponent(Kernel &k) : Component(k, nullptr, "root") {}
};

/** Endpoint harness: records deliveries, optionally refuses space. */
struct TestEndpoint {
    std::vector<NocMessage> received;
    std::uint32_t freeFlits = 1000000;
    std::uint32_t reservedFlits = 0;
    int injectSpaceEvents = 0;
    Tick lastInjectSpaceAt = 0;
    Kernel *kernel = nullptr;

    Network::EndpointOps
    ops()
    {
        Network::EndpointOps o;
        o.tryReserve = [this](std::uint32_t flits) {
            if (reservedFlits + flits > freeFlits)
                return false;
            reservedFlits += flits;
            return true;
        };
        o.deliver = [this](const NocMessage &m) {
            reservedFlits -= m.flits;
            received.push_back(m);
        };
        o.onInjectSpace = [this] {
            ++injectSpaceEvents;
            lastInjectSpaceAt = kernel->now();
        };
        return o;
    }
};

class NetworkTest : public ::testing::Test
{
  protected:
    void
    build(const std::string &topo = "quadrant_xbar")
    {
        root_ = std::make_unique<RootComponent>(kernel_);
        RouterParams params;  // defaults, but with small ejection
        // queues so the backpressure tests see finite buffering.
        params.ejectQueueFlits = 64;
        net_ = std::make_unique<Network>(
            kernel_, root_.get(), "noc",
            makeTopology(topo, 16, 4, 2), params);
        eps_.resize(net_->numEndpoints());
        for (NodeId e = 0; e < net_->numEndpoints(); ++e) {
            eps_[e].kernel = &kernel_;
            net_->setEndpoint(e, eps_[e].ops());
        }
    }

    NocMessage
    msg(NodeId src, NodeId dst, std::uint32_t flits, PacketId id = 1)
    {
        NocMessage m;
        m.id = id;
        m.src = src;
        m.dst = dst;
        m.flits = flits;
        return m;
    }

    Kernel kernel_;
    std::unique_ptr<RootComponent> root_;
    std::unique_ptr<Network> net_;
    std::vector<TestEndpoint> eps_;
};

TEST_F(NetworkTest, DeliversAcrossQuadrants)
{
    build();
    // Link 0 (endpoint 0, router 0) to vault 15 (endpoint 17, router 3).
    ASSERT_TRUE(net_->canInject(0, 5));
    net_->inject(0, msg(0, 17, 5));
    kernel_.run();
    ASSERT_EQ(eps_[17].received.size(), 1u);
    EXPECT_EQ(eps_[17].received[0].flits, 5u);
    EXPECT_EQ(net_->messagesDelivered(), 1u);
    EXPECT_EQ(net_->flitsDelivered(), 5u);
}

TEST_F(NetworkTest, DeliversLocally)
{
    build();
    // Link 0 and vault 0 (endpoint 2) share router 0.
    net_->inject(0, msg(0, 2, 1));
    kernel_.run();
    ASSERT_EQ(eps_[2].received.size(), 1u);
}

TEST_F(NetworkTest, LatencyGrowsWithHops)
{
    build("quadrant_ring");
    net_->inject(0, msg(0, 2, 1, 1));  // local vault (0 router hops)
    kernel_.run();
    const double local = net_->latencyNs().max();
    net_->inject(0, msg(0, 2 + 8, 1, 2));  // vault 8, 2 ring hops
    kernel_.run();
    EXPECT_GT(net_->latencyNs().max(), local);
}

TEST_F(NetworkTest, HopCount)
{
    build("quadrant_ring");
    EXPECT_EQ(net_->hopCount(0, 2), 0u);       // same router
    EXPECT_EQ(net_->hopCount(0, 2 + 8), 2u);   // opposite quadrant
}

TEST_F(NetworkTest, ManyMessagesAllDelivered)
{
    build();
    int injected = 0;
    // Pump 200 messages from both link endpoints to all vaults,
    // respecting injection credits.
    std::function<void()> pump = [&] {
        while (injected < 200) {
            const NodeId src = injected % 2;
            const NodeId dst = 2 + (injected % 16);
            if (!net_->canInject(src, 2))
                return;  // onInjectSpace resumes
            net_->inject(src, msg(src, dst, 2, injected));
            ++injected;
        }
    };
    pump();
    // Drive to completion: keep pumping as credits free.
    while (injected < 200) {
        const std::uint64_t executed = kernel_.run();
        pump();
        if (executed == 0 && !net_->canInject(injected % 2, 2))
            FAIL() << "deadlock while injecting";
    }
    kernel_.run();
    std::size_t total = 0;
    for (NodeId v = 2; v < 18; ++v)
        total += eps_[v].received.size();
    EXPECT_EQ(total, 200u);
}

TEST_F(NetworkTest, BlockedEndpointHoldsDelivery)
{
    build();
    eps_[2].freeFlits = 0;  // vault 0 refuses everything
    net_->inject(0, msg(0, 2, 2));
    kernel_.run();
    EXPECT_TRUE(eps_[2].received.empty());
    // Free space and kick: delivery completes.
    eps_[2].freeFlits = 100;
    net_->kickEject(2);
    kernel_.run();
    EXPECT_EQ(eps_[2].received.size(), 1u);
}

TEST_F(NetworkTest, BackpressurePropagatesToInjection)
{
    build();
    eps_[2].freeFlits = 0;
    // Saturate the path to vault 0 with max-size messages until
    // injection credits dry up.
    int injected = 0;
    for (int i = 0; i < 100; ++i) {
        if (!net_->canInject(0, 16))
            break;
        net_->inject(0, msg(0, 2, 16, i));
        ++injected;
        kernel_.run();
    }
    EXPECT_LT(injected, 100);  // finite buffering
    EXPECT_TRUE(eps_[2].received.empty());
    // Releasing the endpoint drains everything.
    eps_[2].freeFlits = 1u << 30;
    net_->kickEject(2);
    kernel_.run();
    EXPECT_EQ(eps_[2].received.size(),
              static_cast<std::size_t>(injected));
}

TEST_F(NetworkTest, InjectSpaceCallbackFires)
{
    build();
    // Fill the 64-flit inject buffer, then block on it.
    for (int i = 0; i < 4; ++i)
        net_->inject(0, msg(0, 17, 16, i));
    ASSERT_FALSE(net_->canInject(0, 16));
    kernel_.run();
    // The first message's credits return creditLatency after it leaves
    // the router's input; the callback runs there, with them folded in.
    const RouterParams p;
    ASSERT_EQ(eps_[0].injectSpaceEvents, 1);
    EXPECT_EQ(eps_[0].lastInjectSpaceAt,
              16 * p.flitPeriod + p.wireLatency + p.routerLatency +
                  p.creditLatency);
    EXPECT_EQ(eps_[17].received.size(), 4u);
}

TEST_F(NetworkTest, InjectWithoutCreditsPanics)
{
    build();
    eps_[2].freeFlits = 0;
    // Exhaust credits.
    while (net_->canInject(0, 16)) {
        net_->inject(0, msg(0, 2, 16));
        kernel_.run();
    }
    EXPECT_THROW(net_->inject(0, msg(0, 2, 16)), PanicError);
}

TEST_F(NetworkTest, UnregisteredEndpointPanics)
{
    root_ = std::make_unique<RootComponent>(kernel_);
    RouterParams params;
    net_ = std::make_unique<Network>(kernel_, root_.get(), "noc",
                                     makeTopology("single_switch", 4, 1, 1),
                                     params);
    net_->inject(0, msg(0, 1, 1));
    EXPECT_THROW(kernel_.run(), PanicError);
}

TEST_F(NetworkTest, DoubleRegistrationPanics)
{
    build();
    TestEndpoint extra;
    EXPECT_THROW(net_->setEndpoint(0, extra.ops()), PanicError);
}

TEST_F(NetworkTest, SingleSwitchDelivers)
{
    root_ = std::make_unique<RootComponent>(kernel_);
    RouterParams params;
    net_ = std::make_unique<Network>(kernel_, root_.get(), "noc",
                                     makeTopology("single_switch", 16, 1, 2),
                                     params);
    eps_.assign(net_->numEndpoints(), {});
    for (NodeId e = 0; e < net_->numEndpoints(); ++e)
        net_->setEndpoint(e, eps_[e].ops());
    net_->inject(0, msg(0, 9, 3));
    kernel_.run();
    EXPECT_EQ(eps_[9].received.size(), 1u);
}

}  // namespace
}  // namespace hmcsim
