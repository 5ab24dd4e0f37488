/**
 * @file
 * One vault's worth of DRAM: a set of banks behind a shared 32 B TSV
 * data bus, plus the vault-wide activate constraints (tRRD, tFAW).
 *
 * The vault controller decides *what* to issue; VaultMemory knows *when*
 * commands may legally execute and plans a whole request's command
 * sequence atomically (activate, column bursts, optional precharge),
 * returning the data-completion timestamps.
 */

#ifndef HMCSIM_DRAM_VAULT_MEMORY_H_
#define HMCSIM_DRAM_VAULT_MEMORY_H_

#include <deque>
#include <vector>

#include "dram/bank.h"
#include "dram/tsv_bus.h"
#include "sim/component.h"

namespace hmcsim {

/** Row-buffer management policy. */
enum class PagePolicy {
    /** Precharge immediately after the access (default, HMC-like). */
    Closed,
    /** Leave the row open; precharge on a conflicting access. */
    Open,
};

class VaultMemory : public Component
{
  public:
    VaultMemory(Kernel &kernel, Component *parent, std::string name,
                const DramTimingParams &params, std::uint32_t num_banks);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    Bank &bank(BankId b);
    const Bank &bank(BankId b) const;
    TsvBus &bus() { return bus_; }
    const TsvBus &bus() const { return bus_; }
    const DramTimingParams &timing() const { return params_; }

    /**
     * Attach the power probe to every bank and the TSV bus.  Banks are
     * mapped onto @p num_dram_layers stacked dies (bank -> layer) so
     * their energy is attributed per layer; the shared TSV bus stays
     * aggregate (it spans the whole stack).
     */
    void setPowerProbe(PowerProbe *probe,
                       std::uint32_t num_dram_layers = 1);

    /** Timestamps of one fully planned access. */
    struct ServiceResult {
        /** ACTIVATE issue time; kTickNever when the row was already
         *  open (open-page hit). */
        Tick actTime = kTickNever;

        /** First column command. */
        Tick colTime = 0;

        /** Data window on the TSV bus. */
        Tick dataStart = 0;
        Tick dataEnd = 0;

        /** True if the access hit an open row (open policy only). */
        bool rowHit = false;
    };

    /**
     * Plan and commit the full command sequence for @p access starting
     * no earlier than @p now under @p policy.  The caller must
     * serialize accesses per bank (one in flight per bank), which the
     * vault controller's per-bank queues guarantee.
     */
    ServiceResult service(const DramAccess &access, Tick now,
                          PagePolicy policy);

    /**
     * Earliest legal ACTIVATE time for @p b at or after @p t, honouring
     * bank state plus vault-wide tRRD and tFAW.
     */
    Tick earliestActivate(BankId b, Tick t) const;

    /**
     * Refresh bank @p b (precharging first if needed) starting at or
     * after @p now.
     * @return refresh completion time
     */
    Tick refreshBank(BankId b, Tick now);

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }

  protected:
    void listStats(StatList &s) const override;
    void resetOwnStats() override;

  private:
    DramTimingParams params_;
    std::vector<Bank> banks_;
    TsvBus bus_;
    Tick lastActAt_ = 0;
    bool anyActYet_ = false;
    std::deque<Tick> actWindow_;  // last up-to-4 ACT times (tFAW)
    Counter rowHits_;
    Counter rowMisses_;

    void recordActivate(Tick when);
};

}  // namespace hmcsim

#endif  // HMCSIM_DRAM_VAULT_MEMORY_H_
