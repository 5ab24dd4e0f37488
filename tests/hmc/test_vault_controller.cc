/**
 * @file
 * VaultController unit tests against a one-link/one-vault single-switch
 * NoC harness: request delivery, per-bank FIFO order, backpressure,
 * scheduler pacing, refresh, and the per-vault jitter knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "hmc/vault_controller.h"
#include "noc/topology.h"

namespace hmcsim {
namespace {

class RootComponent : public Component
{
  public:
    explicit RootComponent(Kernel &k) : Component(k, nullptr, "root") {}
};

/** One link endpoint (0) + one vault endpoint (1) on a single switch. */
class VaultControllerTest : public ::testing::Test
{
  protected:
    void
    build(VaultController::Params params = VaultController::Params{},
          std::uint32_t num_banks = 16)
    {
        // Tear down any previous tree child-first: assigning root_
        // below would otherwise free the old root while net_/vc_
        // still unregister from it in their destructors.
        vc_.reset();
        net_.reset();
        root_.reset();
        cfg_ = HmcConfig{};
        cfg_.numBanksPerVault = num_banks;
        map_ = std::make_unique<AddressMap>(cfg_);
        root_ = std::make_unique<RootComponent>(kernel_);
        RouterParams rp;
        net_ = std::make_unique<Network>(
            kernel_, root_.get(), "noc",
            makeSingleSwitchTopology(/*vaults=*/1, /*links=*/1), rp);
        vc_ = std::make_unique<VaultController>(
            kernel_, root_.get(), "vault0", 0, /*endpoint=*/1, *net_,
            *map_, DramTimingParams::hmcGen2(), num_banks, params);

        Network::EndpointOps vault_ops;
        vault_ops.tryReserve = [this](std::uint32_t flits) {
            return vc_->tryReserveInput(flits);
        };
        vault_ops.deliver = [this](const NocMessage &m) {
            vc_->deliverRequest(m);
        };
        vault_ops.onInjectSpace = [this] { vc_->onInjectSpace(); };
        net_->setEndpoint(1, std::move(vault_ops));

        Network::EndpointOps link_ops;
        link_ops.tryReserve = [](std::uint32_t) { return true; };
        link_ops.deliver = [this](const NocMessage &m) {
            responses_.push_back(
                std::static_pointer_cast<HmcPacket>(m.payload));
            responseTimes_.push_back(kernel_.now());
        };
        net_->setEndpoint(0, std::move(link_ops));
    }

    /** Inject a request for (bank, row) through the NoC. */
    HmcPacketPtr
    sendRead(BankId bank, RowId row, std::uint32_t bytes = 32)
    {
        DecodedAddr d;
        d.bank = bank;
        d.row = row;
        HmcPacketPtr pkt = makeReadRequest(map_->encode(d), bytes, 0);
        pkt->link = 0;
        NocMessage m;
        m.id = pkt->id;
        m.src = 0;
        m.dst = 1;
        m.flits = pkt->flits();
        m.payload = pkt;
        EXPECT_TRUE(net_->canInject(0, m.flits));
        net_->inject(0, m);
        return pkt;
    }

    /**
     * Keep a vault of @p num_banks banks saturated with @p requests
     * 32 B reads to pseudo-random banks behind a one-response queue,
     * so every plan after a drained response comes from the rotating
     * scan; return the banks in the order they were planned.
     */
    std::vector<BankId>
    plannedBanks(std::uint32_t num_banks, int requests)
    {
        VaultController::Params p;
        p.responseQueueFlits = 3;
        build(p, num_banks);
        responses_.clear();
        std::uint64_t lcg = 12345;
        int sent = 0;
        while (sent < requests) {
            while (sent < requests && net_->canInject(0, 1)) {
                lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
                sendRead(static_cast<BankId>((lcg >> 33) % num_banks),
                         static_cast<RowId>((lcg >> 20) % 64));
                ++sent;
            }
            kernel_.run(kernel_.now() + 2000);
        }
        kernel_.run();
        EXPECT_EQ(responses_.size(), static_cast<std::size_t>(requests));
        std::vector<std::pair<Tick, BankId>> plans;
        for (const HmcPacketPtr &r : responses_)
            plans.emplace_back(r->dramStartAt, map_->decode(r->addr).bank);
        std::sort(plans.begin(), plans.end());
        std::vector<BankId> order;
        for (const auto &pl : plans)
            order.push_back(pl.second);
        return order;
    }

    struct Send {
        Tick at;
        BankId bank;
        RowId row;
    };

    /**
     * Inject each read of @p sends at its tick and run to completion;
     * return "bank:plan/response" per request in plan order (times in
     * ps).  The bank-free slot's posting rules decide these times.
     */
    std::string
    servePlan(const VaultController::Params &params,
              const std::vector<Send> &sends)
    {
        build(params);
        responses_.clear();
        responseTimes_.clear();
        for (const Send &s : sends) {
            kernel_.run(s.at);
            sendRead(s.bank, s.row);
        }
        kernel_.run();
        EXPECT_EQ(responses_.size(), sends.size());
        std::vector<std::pair<Tick, std::string>> plans;
        for (std::size_t i = 0; i < responses_.size(); ++i) {
            const HmcPacketPtr &r = responses_[i];
            plans.emplace_back(
                r->dramStartAt,
                std::to_string(map_->decode(r->addr).bank) + ":" +
                    std::to_string(r->dramStartAt) + "/" +
                    std::to_string(responseTimes_[i]));
        }
        std::stable_sort(plans.begin(), plans.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::string out;
        for (const auto &pl : plans)
            out += (out.empty() ? "" : " ") + pl.second;
        return out;
    }

    Kernel kernel_;
    HmcConfig cfg_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<RootComponent> root_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<VaultController> vc_;
    std::vector<HmcPacketPtr> responses_;
    std::vector<Tick> responseTimes_;
};

TEST_F(VaultControllerTest, ReadProducesMatchingResponse)
{
    build();
    const HmcPacketPtr req = sendRead(3, 17, 64);
    kernel_.run();
    ASSERT_EQ(responses_.size(), 1u);
    EXPECT_EQ(responses_[0]->cmd, HmcCmd::ReadResponse);
    EXPECT_EQ(responses_[0]->tag, req->tag);
    EXPECT_EQ(responses_[0]->dataBytes, 64u);
    EXPECT_EQ(vc_->requestsServed(), 1u);
    EXPECT_EQ(vc_->readBytes(), 64u);
}

TEST_F(VaultControllerTest, SameBankStaysFifo)
{
    build();
    std::vector<PacketId> ids;
    for (RowId r = 0; r < 12; ++r)
        ids.push_back(sendRead(2, r)->id);
    kernel_.run();
    ASSERT_EQ(responses_.size(), 12u);
    // Under per-bank FIFO the responses complete in issue order; the
    // row field of each response's address recovers that order.
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(map_->decode(responses_[i]->addr).row, i);
    (void)ids;
}

TEST_F(VaultControllerTest, BanksProceedInParallel)
{
    build();
    // One request per bank: total time must be far below 16 serial
    // row cycles thanks to bank-level parallelism (bus-paced instead).
    for (BankId b = 0; b < 16; ++b)
        sendRead(b, 1);
    kernel_.run();
    EXPECT_EQ(responses_.size(), 16u);
    const DramTimingParams t = DramTimingParams::hmcGen2();
    EXPECT_LT(kernel_.now(), 16 * t.tRC());
}

TEST_F(VaultControllerTest, SchedulerPacingBoundsThroughput)
{
    VaultController::Params p;
    p.requestCycle = 6400;
    build(p);
    for (int i = 0; i < 64; ++i)
        sendRead(i % 16, 100 + i / 16);
    kernel_.run();
    EXPECT_EQ(responses_.size(), 64u);
    // 64 plans at >= 6.4 ns apart.
    EXPECT_GE(kernel_.now(), 63u * 6400u);
}

TEST_F(VaultControllerTest, InputReservationIsBounded)
{
    VaultController::Params p;
    p.inputQueueFlits = 4;
    build(p);
    EXPECT_TRUE(vc_->tryReserveInput(3));
    EXPECT_FALSE(vc_->tryReserveInput(2));
    EXPECT_TRUE(vc_->tryReserveInput(1));
    EXPECT_FALSE(vc_->tryReserveInput(1));
}

TEST_F(VaultControllerTest, TinyResponseQueueStillDrainsEverything)
{
    VaultController::Params p;
    p.responseQueueFlits = 9;  // one max-size response at a time
    build(p);
    for (int i = 0; i < 40; ++i)
        sendRead(i % 16, i, 128);
    kernel_.run();
    EXPECT_EQ(responses_.size(), 40u);
    EXPECT_EQ(vc_->requestsServed(), 40u);
}

TEST_F(VaultControllerTest, WriteCountsWriteBytes)
{
    build();
    DecodedAddr d;
    d.bank = 1;
    HmcPacketPtr pkt = makeWriteRequest(map_->encode(d), 128, 0);
    pkt->link = 0;
    NocMessage m;
    m.id = pkt->id;
    m.src = 0;
    m.dst = 1;
    m.flits = pkt->flits();
    m.payload = pkt;
    net_->inject(0, m);
    kernel_.run();
    ASSERT_EQ(responses_.size(), 1u);
    EXPECT_EQ(responses_[0]->cmd, HmcCmd::WriteResponse);
    EXPECT_EQ(vc_->writeBytes(), 128u);
}

TEST_F(VaultControllerTest, RefreshFiresWhenEnabled)
{
    VaultController::Params p;
    p.trefi = 2 * kMicrosecond;
    build(p);
    // Keep traffic flowing for a while so refreshes interleave.
    for (int burst = 0; burst < 8; ++burst) {
        for (BankId b = 0; b < 16; ++b)
            sendRead(b, 1000 + burst);
        kernel_.run(kernel_.now() + 3 * kMicrosecond);
    }
    kernel_.run();
    EXPECT_GT(vc_->refreshesIssued(), 0u);
    EXPECT_EQ(responses_.size(), 8u * 16u);
}

TEST_F(VaultControllerTest, JitterDelaysCompletion)
{
    const auto completion_time = [this](Tick jitter) {
        // The kernel is shared across build() calls; measure duration.
        VaultController::Params p;
        p.jitterPerFlit = jitter;
        build(p);
        responses_.clear();
        const Tick start = kernel_.now();
        sendRead(0, 1, 128);  // 8 data flits
        kernel_.run();
        EXPECT_EQ(responses_.size(), 1u);
        return kernel_.now() - start;
    };
    const Tick plain = completion_time(0);
    const Tick jittered = completion_time(1000);  // 1 ns per flit
    EXPECT_EQ(jittered, plain + 8 * 1000);
}

TEST_F(VaultControllerTest, ServiceLatencyStatTracksVaultTime)
{
    build();
    sendRead(0, 1);
    kernel_.run();
    const double ns = vc_->serviceLatencyNs().mean();
    // Frontend (4 ns) + DRAM (~31 ns) + backend (2 ns), no queueing.
    EXPECT_GT(ns, 30.0);
    EXPECT_LT(ns, 90.0);
}

TEST_F(VaultControllerTest, NonRequestDeliveryPanics)
{
    build();
    HmcPacketPtr req = makeReadRequest(0, 32, 0);
    auto resp = std::make_shared<HmcPacket>(req->makeResponse());
    NocMessage m;
    m.src = 0;
    m.dst = 1;
    m.flits = resp->flits();
    m.payload = resp;
    EXPECT_THROW(vc_->deliverRequest(m), PanicError);
}

TEST_F(VaultControllerTest, PeakBankQueueTracked)
{
    build();
    for (RowId r = 0; r < 10; ++r)
        sendRead(0, r);  // all to one bank
    kernel_.run();
    EXPECT_GE(vc_->peakBankQueueOccupancy(), 5u);
}

std::string
joined(const std::vector<BankId> &v)
{
    std::string s;
    for (BankId b : v)
        s += (s.empty() ? "" : ",") + std::to_string(b);
    return s;
}

// The two plan orders below were recorded from the controller that
// rescanned every bank on each retry; the ready-bank mask must visit
// the same banks in the same rotation.
TEST_F(VaultControllerTest, SaturatedVaultPlansBanksInRotation)
{
    EXPECT_EQ(joined(plannedBanks(16, 160)),
              "8,9,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,"
              "15,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0,1,2,3,4,5,6,7,"
              "8,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,10,11,12,13,14,15,0,"
              "1,2,3,4,5,6,7,8,10,11,12,13,14,15,0,1,2,3,4,5,6,7,8,10,11,"
              "13,14,0,1,2,3,4,5,6,7,8,10,11,12,13,14,0,1,2,3,4,5,6,7,8,"
              "9,10,11,13,14,0,1,2,3,4,5,6,7,8,10,14,0,1,4,6,7,8,14,0,1,"
              "4,6,14,0,1,4,6,0,1,6,0,1,0,0");
}

TEST_F(VaultControllerTest, WideVaultPlansBanksInRotation)
{
    // 128 banks: the ready mask spans two words.
    EXPECT_EQ(joined(plannedBanks(128, 160)),
              "120,121,122,125,126,1,2,3,4,5,6,8,10,11,12,15,16,17,18,19,"
              "20,21,23,26,27,28,30,32,33,36,38,39,42,45,46,48,49,50,51,"
              "53,54,55,58,61,62,64,65,66,68,69,70,71,72,73,74,75,76,78,"
              "79,80,81,82,83,84,85,86,87,88,89,90,91,93,94,95,96,97,98,"
              "99,100,101,102,104,106,107,110,111,112,114,116,117,118,119,"
              "120,121,122,125,126,2,5,11,12,15,16,17,19,20,21,27,28,30,"
              "32,33,42,48,49,51,54,55,61,66,70,72,84,86,87,88,91,93,96,"
              "104,110,111,116,125,11,12,16,17,19,28,30,33,48,49,55,70,84,"
              "86,87,88,93,96,104,110,16,17,19,84,86,96");
}

// The bank-free slot is posted only when its event would do more than
// free the bank.  One case per posting rule; the plan orders and times
// were recorded from the controller that posted an event for every
// bank-free.

TEST_F(VaultControllerTest, BankFreeSlotPostedForRequestOnBusyBank)
{
    // The second read reaches bank 5 while the first keeps it busy:
    // the bank-free event plans it.
    EXPECT_EQ(servePlan({}, {{0, 5, 1}, {0, 5, 2}, {30000, 5, 3}}),
              "5:8800/49500 5:22550/82000 5:55050/114500");
}

TEST_F(VaultControllerTest, BankFreeSlotPostedForBlockedInputHead)
{
    // One-deep bank queues behind a one-response queue: the third read
    // finds bank 1's queue full (head-of-line).  The response drain
    // plans bank 1's queued read without retrying the input; the next
    // bank-free event's input scan moves the blocked head.
    VaultController::Params p;
    p.bankQueueDepth = 1;
    p.responseQueueFlits = 3;
    EXPECT_EQ(servePlan(p, {{0, 0, 1}, {0, 1, 1}, {0, 1, 2}}),
              "0:8800/49500 1:41500/82200 1:74200/114900");
}

TEST_F(VaultControllerTest, BankFreeSlotPostedForSameTickReadyInput)
{
    // Bank 0's bank-free slot (its read planned at 8.8 ns) is at
    // 22.55 ns, which is also when the scheduler's pacing lets the
    // next plan go (bank 5 planned at 16.15 ns) and so when bank 6's
    // paced plan retries.  Bank 3's read becomes ready at exactly
    // 22.55 ns, ahead of its own frontend event: the bank-free event's
    // input scan plans it before the retry plans bank 6.
    EXPECT_EQ(servePlan({}, {{0, 0, 1}, {7350, 5, 1}, {8150, 6, 1},
                             {13750, 3, 1}}),
              "0:8800/49500 5:16150/56850 3:22550/63250 6:28950/69650");
}

}  // namespace
}  // namespace hmcsim
