#include "hmc/vault_controller.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"
#include "obs/observability.h"
#include "sim/kernel.h"

namespace hmcsim {

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
      refresh_(params.trefi, num_banks), banks_(num_banks)
{
    if (Observability *o = kernel.obs()) {
        tracer_ = o->fullTracer();
        obsMetrics_.bind(o->metricsRegistry(), path());
        obsMetrics_.counter("requests_served", &served_);
        obsMetrics_.counter("read_bytes", &readBytes_);
        obsMetrics_.counter("write_bytes", &writeBytes_);
        obsMetrics_.sampler("service_latency_ns", &serviceNs_);
        obsMetrics_.gauge("input_queue_now", [this] {
            return static_cast<double>(inputQ_.size());
        });
        obsMetrics_.gauge("bank_queue_now", [this] {
            return static_cast<double>(bankQOccupancy_);
        });
        obsMetrics_.gauge("resp_queue_flits_now", [this] {
            return static_cast<double>(respUsedFlits_);
        });
    }
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
}

void
VaultController::processInput()
{
    while (!inputQ_.empty()) {
        const auto &[ready, pkt] = inputQ_.front();
        if (ready > now())
            return;  // the event scheduled at `ready` resumes us
        const DecodedAddr d = map_.decode(pkt->addr);
        BankState &bank = banks_[d.bank];
        if (bank.q.size() >= params_.bankQueueDepth)
            return;  // head-of-line block; trySchedule() drains banks
        const std::uint32_t flits = pkt->flits();
        bank.q.push_back(pkt);
        ++bankQOccupancy_;
        peakBankQ_ = std::max(peakBankQ_, bankQOccupancy_);
        inputQ_.pop_front();
        inputUsedFlits_ -= flits;
        net_.kickEject(endpoint_);
        trySchedule(d.bank);
    }
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
VaultController::tryScheduleAll()
{
    // Rotate the starting bank so saturated vaults serve banks fairly.
    // The base must be a snapshot: trySchedule() advances
    // lastPlannedBank_ when it plans, and deriving indices from the
    // live value would skip banks (and strand their queued requests).
    const std::uint32_t n = static_cast<std::uint32_t>(banks_.size());
    const std::uint32_t base = lastPlannedBank_;
    for (std::uint32_t i = 1; i <= n; ++i)
        trySchedule((base + i) % n);
}

void
VaultController::trySchedule(BankId b)
{
    BankState &bank = banks_[b];
    if (bank.busy || bank.q.empty())
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
        params_.responseQueueFlits) {
        bank.waitingForResponseSpace = true;
        return;  // retried when a response drains
    }
    bank.waitingForResponseSpace = false;
    respReservedFlits_ += resp_flits;

    bank.q.erase(bank.q.begin() + static_cast<std::ptrdiff_t>(idx));
    --bankQOccupancy_;
    bank.busy = true;
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
    kernel().scheduleAt(std::max(now(), res.colTime), [this, b] {
        banks_[b].busy = false;
        trySchedule(b);
        processInput();
    });

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

void
VaultController::reportOwnStats(std::map<std::string, double> &out) const
{
    out[statName("requests_served")] =
        static_cast<double>(served_.value());
    out[statName("read_bytes")] = static_cast<double>(readBytes_.value());
    out[statName("write_bytes")] = static_cast<double>(writeBytes_.value());
    out[statName("avg_service_ns")] = serviceNs_.mean();
    out[statName("peak_bank_queue")] = static_cast<double>(peakBankQ_);
    // Live occupancies (diagnosing stalls, not windowed statistics).
    out[statName("input_queue_now")] =
        static_cast<double>(inputQ_.size());
    out[statName("bank_queue_now")] =
        static_cast<double>(bankQOccupancy_);
    out[statName("resp_queue_flits_now")] =
        static_cast<double>(respUsedFlits_);
    out[statName("resp_reserved_flits_now")] =
        static_cast<double>(respReservedFlits_);
}

void
VaultController::resetOwnStats()
{
    served_.reset();
    readBytes_.reset();
    writeBytes_.reset();
    serviceNs_.reset();
    peakBankQ_ = bankQOccupancy_;
}

}  // namespace hmcsim
