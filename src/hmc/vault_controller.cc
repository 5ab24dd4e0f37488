#include "hmc/vault_controller.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

namespace {

void
setBit(std::vector<std::uint64_t> &mask, BankId b, bool on)
{
    const std::uint64_t bit = std::uint64_t(1) << (b & 63);
    if (on)
        mask[b >> 6] |= bit;
    else
        mask[b >> 6] &= ~bit;
}

}  // namespace

template <typename F>
void
VaultController::forEachLazyBank(F &&fn)
{
    // fn clears only the bit it is given, so a word read once still
    // holds the banks left to visit.
    for (std::size_t w = 0; w < lazyBanks_.size(); ++w) {
        for (std::uint64_t bits = lazyBanks_[w]; bits != 0; bits &= bits - 1)
            fn(static_cast<BankId>(
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits))));
    }
}

VaultController::VaultController(Kernel &kernel, Component *parent,
                                 std::string name, VaultId vault,
                                 NodeId endpoint, Network &net,
                                 const AddressMap &map,
                                 const DramTimingParams &timing,
                                 std::uint32_t num_banks,
                                 const Params &params)
    : Component(kernel, parent, std::move(name)), vault_(vault),
      endpoint_(endpoint), net_(net), map_(map), params_(params),
      mem_(kernel, this, "mem", timing, num_banks),
      refresh_(params.trefi, num_banks), banks_(num_banks),
      readyBanks_((num_banks + 63) / 64, 0),
      lazyBanks_(readyBanks_.size(), 0)
{
    if (Observability *o = kernel.obs())
        tracer_ = o->fullTracer();
}

void
VaultController::setThrottle(double slowdown)
{
    if (slowdown < 1.0)
        panic("VaultController::setThrottle: slowdown below 1.0");
    slowdown_ = slowdown;
}

Tick
VaultController::effectiveRequestCycle() const
{
    if (slowdown_ <= 1.0)
        return params_.requestCycle;
    return static_cast<Tick>(
        static_cast<double>(params_.requestCycle) * slowdown_ + 0.5);
}

bool
VaultController::tryReserveInput(std::uint32_t flits)
{
    if (inputUsedFlits_ + flits > params_.inputQueueFlits)
        return false;
    inputUsedFlits_ += flits;
    return true;
}

void
VaultController::deliverRequest(const NocMessage &msg)
{
    auto pkt = std::static_pointer_cast<HmcPacket>(msg.payload);
    if (!pkt || !pkt->isRequest())
        panic("VaultController: delivered message is not a request");
    pkt->vaultArriveAt = now();
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::VaultEnqueue, pkt->cube,
                        vault_);
    const Tick ready = now() + params_.frontendLatency;
    inputQ_.emplace_back(ready, pkt);
    kernel().scheduleAt(ready, [this] { processInput(); });
    // A bank-free slot at the ready time fires before this entry's
    // event, so its processInput() takes the entry: post it.
    forEachLazyBank([this, ready](BankId b) {
        if (busy(b) && banks_[b].free.when() == ready)
            postBankFree(b);
    });
}

void
VaultController::processInput()
{
    while (!inputQ_.empty()) {
        const auto &[ready, pkt] = inputQ_.front();
        if (ready > now())
            break;  // the event scheduled at `ready` resumes us
        const DecodedAddr d = map_.decode(pkt->addr);
        BankState &bank = banks_[d.bank];
        if (bank.q.size() >= params_.bankQueueDepth) {
            // Head-of-line block; trySchedule() drains banks.
            setInputBlocked(true);
            return;
        }
        const std::uint32_t flits = pkt->flits();
        bank.q.push_back(pkt);
        if (!busy(d.bank))
            setReady(d.bank, true);
        else
            postBankFree(d.bank);  // its event plans this request
        ++bankQOccupancy_;
        peakBankQ_ = std::max(peakBankQ_, bankQOccupancy_);
        inputQ_.pop_front();
        inputUsedFlits_ -= flits;
        net_.kickEject(endpoint_);
        trySchedule(d.bank);
    }
    setInputBlocked(false);
}

void
VaultController::setInputBlocked(bool blocked)
{
    inputBlocked_ = blocked;
    // Every bank-free event retries the input: post them all.
    if (blocked)
        forEachLazyBank([this](BankId b) { postBankFree(b); });
}


bool
VaultController::busy(BankId b)
{
    // A slot that passed unposted found the bank queue empty: freeing
    // the bank is all its event would have done.
    if (banks_[b].free.due(kernel()))
        setBit(lazyBanks_, b, false);
    return banks_[b].free.held();
}

void
VaultController::postBankFree(BankId b)
{
    if (busy(b) && banks_[b].free.lazy()) {
        setBit(lazyBanks_, b, false);
        banks_[b].free.post(kernel(), [this, b] { bankFree(b); });
    }
}

void
VaultController::bankFree(BankId b)
{
    banks_[b].free.fired();
    setReady(b, !banks_[b].q.empty());
    trySchedule(b);
    processInput();
}

std::size_t
VaultController::pickRequest(const BankState &bank) const
{
    if (params_.scheduler == SchedulerKind::Fifo || bank.q.size() <= 1)
        return 0;
    // FR-FCFS: prefer the oldest request hitting the open row.
    const BankId b = static_cast<BankId>(&bank - banks_.data());
    const Bank &dram_bank = mem_.bank(b);
    if (!dram_bank.rowOpen())
        return 0;
    for (std::size_t i = 0; i < bank.q.size(); ++i) {
        const DecodedAddr d = map_.decode(bank.q[i]->addr);
        if (d.row == dram_bank.openRow())
            return i;
    }
    return 0;
}

void
VaultController::setReady(BankId b, bool ready)
{
    setBit(readyBanks_, b, ready);
}

void
VaultController::tryScheduleAll()
{
    // Rotate the starting bank so saturated vaults serve banks fairly.
    // The start must be a snapshot: trySchedule() advances
    // lastPlannedBank_ when it plans, and deriving indices from the
    // live value would skip banks (and strand their queued requests).
    // Only ready banks are visited: trySchedule() returns at once for
    // a busy or empty bank.
    const std::uint32_t n = static_cast<std::uint32_t>(banks_.size());
    const std::uint32_t start = (lastPlannedBank_ + 1) % n;
    scheduleReady(start, n);
    scheduleReady(0, start);
}

void
VaultController::scheduleReady(std::uint32_t from, std::uint32_t to)
{
    // trySchedule(b) changes only b's bit, so a word read once still
    // holds the banks after b that are left to visit.
    for (std::uint32_t w = from >> 6; w << 6 < to; ++w) {
        std::uint64_t bits = readyBanks_[w];
        if (w == from >> 6)
            bits &= ~std::uint64_t(0) << (from & 63);
        if ((w + 1) << 6 > to)
            bits &= (std::uint64_t(1) << (to & 63)) - 1;
        for (; bits != 0; bits &= bits - 1)
            trySchedule((w << 6) +
                        static_cast<std::uint32_t>(__builtin_ctzll(bits)));
    }
}

void
VaultController::trySchedule(BankId b)
{
    BankState &bank = banks_[b];
    if (busy(b) || bank.q.empty())
        return;

    // The scheduler pipeline plans at most one request per
    // requestCycle across all banks of this vault.
    if (now() < nextPlanAllowed_) {
        if (!planRetryPending_) {
            planRetryPending_ = true;
            kernel().scheduleAt(nextPlanAllowed_, [this] {
                planRetryPending_ = false;
                tryScheduleAll();
                processInput();
            });
        }
        return;
    }

    const std::size_t idx = pickRequest(bank);
    const HmcPacketPtr pkt = bank.q[idx];

    // Response-queue admission: reserve the reply's flits up front so a
    // full response path backpressures into DRAM scheduling instead of
    // overflowing.
    const std::uint32_t resp_flits =
        HmcPacket::flitsFor(pkt->cmd == HmcCmd::Read ? HmcCmd::ReadResponse
                                                     : HmcCmd::WriteResponse,
                            pkt->dataBytes);
    if (respUsedFlits_ + respReservedFlits_ + resp_flits >
        params_.responseQueueFlits)
        return;  // retried when a response drains
    respReservedFlits_ += resp_flits;

    bank.q.erase(bank.q.begin() + static_cast<std::ptrdiff_t>(idx));
    --bankQOccupancy_;
    setReady(b, false);
    pkt->dramStartAt = now();
    nextPlanAllowed_ = now() + effectiveRequestCycle();
    lastPlannedBank_ = b;

    // Refresh-before-access if this bank owes one.
    if (refresh_.due(b, now())) {
        const Tick done = mem_.refreshBank(b, now());
        refresh_.completed(b, done);
    }

    const DramAccess access =
        map_.toAccess(pkt->addr, pkt->dataBytes, pkt->cmd == HmcCmd::Write);
    const VaultMemory::ServiceResult res =
        mem_.service(access, now(), params_.pagePolicy);
    pkt->dataReadyAt = res.dataEnd;

    // The bank's command sequence is committed at the column command;
    // the next request for this bank may be planned from then on (its
    // own timing constraints keep it legal).
    bank.free.reserve(kernel(), std::max(now(), res.colTime) - now());
    setBit(lazyBanks_, b, true);
    if (!bank.q.empty() || inputBlocked_)
        postBankFree(b);

    const Tick jitter =
        params_.jitterPerFlit * ((pkt->dataBytes + kFlitBytes - 1) /
                                 kFlitBytes);
    kernel().scheduleAt(res.dataEnd + params_.backendLatency + jitter,
                        [this, pkt] { finishRequest(pkt); });
}

void
VaultController::finishRequest(const HmcPacketPtr &pkt)
{
    if (tracer_ && tracer_->wants(*pkt))
        tracer_->record(now(), *pkt, TraceStage::DramDone, pkt->cube,
                        vault_);
    served_.inc();
    if (pkt->cmd == HmcCmd::Read)
        readBytes_.inc(pkt->dataBytes);
    else
        writeBytes_.inc(pkt->dataBytes);

    auto resp = pkt->makeResponsePtr();
    const std::uint32_t flits = resp->flits();
    respReservedFlits_ -= flits;
    respUsedFlits_ += flits;
    respQ_.push_back(resp);
    tryInjectResponses();
}

void
VaultController::tryInjectResponses()
{
    bool drained = false;
    while (!respQ_.empty()) {
        const HmcPacketPtr &resp = respQ_.front();
        const std::uint32_t flits = resp->flits();
        if (!net_.canInject(endpoint_, flits))
            break;
        resp->respInjectAt = now();
        serviceNs_.add(ticksToNs(now() - resp->vaultArriveAt));
        if (tracer_ && tracer_->wants(*resp))
            tracer_->record(now(), *resp, TraceStage::RespInject,
                            resp->cube, vault_);
        NocMessage msg;
        msg.id = resp->id;
        msg.src = endpoint_;
        msg.dst = resp->link;  // link endpoints are ids [0, numLinks)
        msg.flits = flits;
        msg.payload = resp;
        net_.inject(endpoint_, std::move(msg));
        respQ_.pop_front();
        respUsedFlits_ -= flits;
        drained = true;
    }
    if (drained) {
        // Freed response space can unblock bank scheduling.  Use the
        // rotating scan: retrying waiting banks in ascending order
        // would hand every freed slot to the lowest bank ids and
        // starve the high ones under sustained response pressure.
        tryScheduleAll();
    }
}

void
VaultController::onInjectSpace()
{
    tryInjectResponses();
}

bool
VaultController::idle() const
{
    const bool banks_idle = std::none_of(
        banks_.begin(), banks_.end(),
        [this](const BankState &bank) { return bank.free.heldAt(kernel()); });
    return banks_idle && inputQ_.empty() && bankQOccupancy_ == 0 &&
        respQ_.empty() && respReservedFlits_ == 0;
}

void
VaultController::listStats(StatList &s) const
{
    s.counter("requests_served", served_);
    s.counter("read_bytes", readBytes_);
    s.counter("write_bytes", writeBytes_);
    s.sampler("avg_service_ns", serviceNs_);
    s.level("peak_bank_queue", peakBankQ_);
    // Live occupancies (diagnosing stalls, not windowed statistics);
    // the "_now" ones feed the congestion heatmap.
    s.gauge("input_queue_now",
            [this] { return static_cast<double>(inputQ_.size()); });
    s.level("bank_queue_now", bankQOccupancy_);
    s.level("resp_queue_flits_now", respUsedFlits_);
    s.level("resp_reserved_flits", respReservedFlits_);
}

void
VaultController::resetOwnStats()
{
    peakBankQ_ = bankQOccupancy_;
}

}  // namespace hmcsim
