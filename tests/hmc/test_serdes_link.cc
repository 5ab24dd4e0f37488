#include <gtest/gtest.h>

#include "common/log.h"
#include "common/units.h"
#include "hmc/serdes_link.h"

namespace hmcsim {
namespace {

class SerdesLinkTest : public ::testing::Test
{
  protected:
    SerdesLinkTest()
    {
        params_.lanes = 8;
        params_.gbps = 15.0;
        params_.wireLatency = 1600;
        params_.serdesLatency = 16000;
        params_.tokens = 64;
        params_.tokenReturnLatency = 3200;
    }

    void
    build()
    {
        link_ = std::make_unique<SerdesLink>(kernel_, nullptr, "link0", 0,
                                             params_);
    }

    HmcPacketPtr
    read128()
    {
        return makeReadRequest(0, 128, 0);
    }

    Kernel kernel_;
    SerdesLink::Params params_;
    std::unique_ptr<SerdesLink> link_;
};

TEST_F(SerdesLinkTest, FlitPeriodMatchesLaneMath)
{
    build();
    // 128 bits / (8 lanes x 15 Gbps) = 1066.7 ps.
    EXPECT_NEAR(link_->flitPeriod(), 1067, 1);
    EXPECT_NEAR(link_->bandwidthGBs(), 15.0, 0.01);
}

TEST_F(SerdesLinkTest, DeliversPacketWithLatency)
{
    build();
    int arrivals = 0;
    link_->setOnRxAvailable(LinkDir::HostToCube, [&] { ++arrivals; });
    HmcPacketPtr pkt = read128();
    link_->reserveTokens(LinkDir::HostToCube, pkt->flits());
    link_->send(LinkDir::HostToCube, pkt);
    kernel_.run();
    EXPECT_EQ(arrivals, 1);
    ASSERT_TRUE(link_->rxAvailable(LinkDir::HostToCube));
    // 1 flit + wire + serdes.
    EXPECT_EQ(kernel_.now(),
              link_->flitPeriod() + params_.wireLatency +
                  params_.serdesLatency);
    EXPECT_EQ(pkt->cubeArriveAt, kernel_.now());
}

TEST_F(SerdesLinkTest, TokensConsumedAndReturned)
{
    build();
    HmcPacketPtr pkt = makeWriteRequest(0, 128, 0);  // 9 flits
    ASSERT_TRUE(link_->canSend(LinkDir::HostToCube, 9));
    link_->reserveTokens(LinkDir::HostToCube, 9);
    EXPECT_FALSE(link_->canSend(LinkDir::HostToCube, 56));
    link_->send(LinkDir::HostToCube, pkt);
    kernel_.run();
    // Tokens still held while the packet sits in the RX buffer.
    EXPECT_FALSE(link_->canSend(LinkDir::HostToCube, 64));
    link_->rxPop(LinkDir::HostToCube);
    // They return exactly tokenReturnLatency after the pop.
    const Tick returned = kernel_.now() + params_.tokenReturnLatency;
    kernel_.run(returned - 1);
    EXPECT_FALSE(link_->canSend(LinkDir::HostToCube, 64));
    kernel_.run(returned);
    EXPECT_TRUE(link_->canSend(LinkDir::HostToCube, 64));
}

TEST_F(SerdesLinkTest, TokensFreeCallback)
{
    build();
    int frees = 0;
    link_->setOnTokensFree(LinkDir::HostToCube, [&] { ++frees; });
    HmcPacketPtr pkt = read128();
    link_->reserveTokens(LinkDir::HostToCube, 1);
    link_->send(LinkDir::HostToCube, pkt);
    kernel_.run();
    // Block the sender: the callback fires at the return.
    ASSERT_FALSE(link_->canSend(LinkDir::HostToCube, params_.tokens));
    link_->rxPop(LinkDir::HostToCube);
    const Tick returned = kernel_.now() + params_.tokenReturnLatency;
    kernel_.run();
    EXPECT_EQ(frees, 1);
    EXPECT_EQ(kernel_.now(), returned);
    EXPECT_TRUE(link_->canSend(LinkDir::HostToCube, params_.tokens));
}

TEST_F(SerdesLinkTest, DirectionsAreIndependent)
{
    build();
    HmcPacketPtr down = read128();
    HmcPacketPtr up = std::make_shared<HmcPacket>(down->makeResponse());
    link_->reserveTokens(LinkDir::HostToCube, down->flits());
    link_->send(LinkDir::HostToCube, down);
    link_->reserveTokens(LinkDir::CubeToHost, up->flits());
    link_->send(LinkDir::CubeToHost, up);
    kernel_.run();
    EXPECT_TRUE(link_->rxAvailable(LinkDir::HostToCube));
    EXPECT_TRUE(link_->rxAvailable(LinkDir::CubeToHost));
    EXPECT_EQ(link_->packetsSent(LinkDir::HostToCube), 1u);
    EXPECT_EQ(link_->packetsSent(LinkDir::CubeToHost), 1u);
}

TEST_F(SerdesLinkTest, SerializationOccupiesLink)
{
    build();
    // Two 9-flit packets: the second's arrival is one serialization
    // window after the first.
    HmcPacketPtr a = makeWriteRequest(0, 128, 0);
    HmcPacketPtr b = makeWriteRequest(128, 128, 0);
    link_->reserveTokens(LinkDir::HostToCube, 18);
    link_->send(LinkDir::HostToCube, a);
    link_->send(LinkDir::HostToCube, b);
    kernel_.run();
    EXPECT_EQ(b->cubeArriveAt - a->cubeArriveAt,
              9 * link_->flitPeriod());
}

TEST_F(SerdesLinkTest, FifoOrderPreserved)
{
    build();
    HmcPacketPtr a = read128();
    HmcPacketPtr b = read128();
    link_->reserveTokens(LinkDir::HostToCube, 2);
    link_->send(LinkDir::HostToCube, a);
    link_->send(LinkDir::HostToCube, b);
    kernel_.run();
    EXPECT_EQ(link_->rxPop(LinkDir::HostToCube)->id, a->id);
    EXPECT_EQ(link_->rxPop(LinkDir::HostToCube)->id, b->id);
}

TEST_F(SerdesLinkTest, RxPoppedCountsPopsPerDirection)
{
    build();
    const auto send = [this](LinkDir d, const HmcPacketPtr &pkt) {
        link_->reserveTokens(d, pkt->flits());
        link_->send(d, pkt);
    };
    send(LinkDir::HostToCube, read128());
    send(LinkDir::HostToCube, read128());
    send(LinkDir::CubeToHost,
         std::make_shared<HmcPacket>(read128()->makeResponse()));
    kernel_.run();
    // Arrivals do not move it.
    EXPECT_EQ(link_->rxPopped(LinkDir::HostToCube), 0u);
    EXPECT_EQ(link_->rxPopped(LinkDir::CubeToHost), 0u);

    link_->rxPop(LinkDir::HostToCube);
    EXPECT_EQ(link_->rxPopped(LinkDir::HostToCube), 1u);
    EXPECT_EQ(link_->rxPopped(LinkDir::CubeToHost), 0u);

    // Structural, not a statistic: a stats reset must not rewind it
    // onto a count a consumer may have keyed a memo on.
    link_->resetStats();
    EXPECT_EQ(link_->rxPopped(LinkDir::HostToCube), 1u);

    link_->rxPop(LinkDir::HostToCube);
    link_->rxPop(LinkDir::CubeToHost);
    EXPECT_EQ(link_->rxPopped(LinkDir::HostToCube), 2u);
    EXPECT_EQ(link_->rxPopped(LinkDir::CubeToHost), 1u);
}

TEST_F(SerdesLinkTest, CrcRetryHealsButCosts)
{
    params_.crcErrorProb = 0.3;
    params_.retryDelay = 50000;
    build();
    int arrivals = 0;
    link_->setOnRxAvailable(LinkDir::HostToCube, [&] { ++arrivals; });
    for (int i = 0; i < 50; ++i) {
        HmcPacketPtr pkt = read128();
        link_->reserveTokens(LinkDir::HostToCube, 1);
        link_->send(LinkDir::HostToCube, pkt);
        kernel_.run();
        link_->rxPop(LinkDir::HostToCube);
        kernel_.run();
    }
    EXPECT_EQ(arrivals, 50);            // every packet delivered
    EXPECT_GT(link_->crcRetries(), 0u); // but some needed retries
}

TEST_F(SerdesLinkTest, SendWithoutReservationPanics)
{
    build();
    HmcPacketPtr pkt = read128();
    EXPECT_THROW(link_->send(LinkDir::HostToCube, pkt), PanicError);
}

TEST_F(SerdesLinkTest, RxPopEmptyPanics)
{
    build();
    EXPECT_THROW(link_->rxPop(LinkDir::HostToCube), PanicError);
    EXPECT_THROW(link_->rxPeek(LinkDir::CubeToHost), PanicError);
}

TEST_F(SerdesLinkTest, UtilizationReflectsTraffic)
{
    build();
    HmcPacketPtr pkt = makeWriteRequest(0, 128, 0);
    link_->reserveTokens(LinkDir::HostToCube, 9);
    link_->send(LinkDir::HostToCube, pkt);
    kernel_.run();
    const Tick window = kernel_.now();
    EXPECT_GT(link_->utilization(LinkDir::HostToCube, window), 0.0);
    EXPECT_DOUBLE_EQ(link_->utilization(LinkDir::CubeToHost, window), 0.0);
}

TEST_F(SerdesLinkTest, StatsBytesMatchFlits)
{
    build();
    HmcPacketPtr pkt = makeWriteRequest(0, 64, 0);  // 5 flits
    link_->reserveTokens(LinkDir::HostToCube, 5);
    link_->send(LinkDir::HostToCube, pkt);
    kernel_.run();
    EXPECT_EQ(link_->flitsSent(LinkDir::HostToCube), 5u);
    EXPECT_EQ(link_->bytesSent(LinkDir::HostToCube), 80u);
}

}  // namespace
}  // namespace hmcsim
