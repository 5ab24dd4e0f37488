#include "dram/vault_memory.h"

#include <algorithm>

#include "common/log.h"
#include "obs/metrics.h"

namespace hmcsim {

VaultMemory::VaultMemory(Kernel &kernel, Component *parent, std::string name,
                         const DramTimingParams &params,
                         std::uint32_t num_banks)
    : Component(kernel, parent, std::move(name)), params_(params),
      bus_(path() + ".tsv_bus", 32, params.tBURST)
{
    params_.validate();
    if (num_banks == 0)
        fatal("VaultMemory: need at least one bank");
    banks_.reserve(num_banks);
    for (std::uint32_t b = 0; b < num_banks; ++b)
        banks_.emplace_back(params_, b);
}

Bank &
VaultMemory::bank(BankId b)
{
    if (b >= banks_.size())
        panic("VaultMemory::bank: index out of range");
    return banks_[b];
}

const Bank &
VaultMemory::bank(BankId b) const
{
    if (b >= banks_.size())
        panic("VaultMemory::bank: index out of range");
    return banks_[b];
}

void
VaultMemory::setPowerProbe(PowerProbe *probe, std::uint32_t num_dram_layers)
{
    // Banks are split evenly across the stacked dies: a vault's bank b
    // physically sits in layer b * layers / banks (HMC partitions each
    // vault vertically), so bank energy heats that die.
    const std::uint32_t layers = std::max<std::uint32_t>(num_dram_layers, 1);
    const auto num_banks = static_cast<std::uint32_t>(banks_.size());
    for (BankId b = 0; b < num_banks; ++b)
        banks_[b].setPowerProbe(probe, b * layers / num_banks);
    bus_.setPowerProbe(probe);
}

Tick
VaultMemory::earliestActivate(BankId b, Tick t) const
{
    Tick when = std::max(t, bank(b).actReadyAt());
    if (anyActYet_)
        when = std::max(when, lastActAt_ + params_.tRRD);
    if (params_.tFAW != 0 && actWindow_.size() >= 4)
        when = std::max(when, actWindow_.front() + params_.tFAW);
    return when;
}

void
VaultMemory::recordActivate(Tick when)
{
    lastActAt_ = when;
    anyActYet_ = true;
    actWindow_.push_back(when);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
}

VaultMemory::ServiceResult
VaultMemory::service(const DramAccess &access, Tick now, PagePolicy policy)
{
    Bank &bk = bank(access.bank);
    const std::uint32_t beats = bus_.beatsFor(access.bytes);
    ServiceResult res;

    // Open-page hit: the row is already there, go straight to columns.
    const bool hit = policy == PagePolicy::Open && bk.rowOpen() &&
        bk.openRow() == access.row;

    if (hit) {
        res.rowHit = true;
        rowHits_.inc();
    } else {
        rowMisses_.inc();
        // Row conflict under the open policy: precharge first.
        if (bk.rowOpen()) {
            const Tick pre = std::max(now, bk.preReadyAt());
            bk.precharge(pre);
        }
        const Tick act = earliestActivate(access.bank, now);
        bk.activate(act, access.row);
        recordActivate(act);
        res.actTime = act;
    }

    // Column phase: the burst's data must win the shared TSV bus; if
    // the bus is busy we delay the column command so command and data
    // stay consistent.
    const Tick data_latency =
        access.isWrite ? params_.tWL : params_.tCL;
    const Tick col_earliest = std::max(now, bk.colReadyAt());
    const TsvBus::Times bus_t =
        bus_.reserve(access.bytes, col_earliest + data_latency);
    const Tick col_time = bus_t.start - data_latency;

    const Bank::BurstTiming burst = access.isWrite
        ? bk.writeBurst(col_time, beats)
        : bk.readBurst(col_time, beats);

    res.colTime = burst.cmdTime;
    res.dataStart = burst.dataStart;
    res.dataEnd = burst.dataEnd;

    // Closed policy: precharge as soon as legal so the next activate
    // to this bank sees only tRP.
    if (policy == PagePolicy::Closed)
        bk.precharge(bk.preReadyAt());

    return res;
}

Tick
VaultMemory::refreshBank(BankId b, Tick now)
{
    Bank &bk = bank(b);
    if (bk.rowOpen()) {
        const Tick pre = std::max(now, bk.preReadyAt());
        bk.precharge(pre);
    }
    const Tick start = std::max(now, bk.actReadyAt());
    return bk.refresh(start);
}

void
VaultMemory::listStats(StatList &s) const
{
    s.counter("row_hits", rowHits_);
    s.counter("row_misses", rowMisses_);
    s.gauge("bus_bytes",
            [this] { return static_cast<double>(bus_.bytesCarried()); });
    s.gauge("activates", [this] {
        std::uint64_t acts = 0;
        for (const Bank &b : banks_)
            acts += b.activates();
        return static_cast<double>(acts);
    });
}

void
VaultMemory::resetOwnStats()
{
    bus_.resetStats();
    for (Bank &b : banks_)
        b.resetStats();
}

}  // namespace hmcsim
