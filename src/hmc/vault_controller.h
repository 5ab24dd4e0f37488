/**
 * @file
 * Vault controller: the per-vault memory controller in the logic layer.
 *
 * Requests arrive from the internal NoC into a finite input queue, are
 * decoded and dispatched into per-bank command queues (the paper's
 * Fig. 14 infers exactly this one-queue-per-bank structure), scheduled
 * against the DRAM timing model, and answered with response packets
 * injected back into the NoC toward the originating link.
 *
 * Backpressure chain: NoC ejection stalls when the input queue is
 * full; dispatch stalls when a bank queue is full (head-of-line);
 * scheduling stalls when the response queue cannot hold the reply.
 */

#ifndef HMCSIM_HMC_VAULT_CONTROLLER_H_
#define HMCSIM_HMC_VAULT_CONTROLLER_H_

#include <deque>
#include <vector>

#include "common/stats.h"
#include "dram/refresh.h"
#include "dram/vault_memory.h"
#include "hmc/address_map.h"
#include "hmc/hmc_config.h"
#include "hmc/packet.h"
#include "noc/network.h"
#include "obs/metrics.h"

namespace hmcsim {

class PacketTracer;

class VaultController : public Component
{
  public:
    struct Params {
        std::uint32_t inputQueueFlits = 64;
        std::uint32_t bankQueueDepth = 8;
        std::uint32_t responseQueueFlits = 96;
        Tick frontendLatency = 4000;
        Tick backendLatency = 2000;
        /** This vault's extra backend latency per response data flit
         *  (systematic per-vault variation; see HmcConfig). */
        Tick jitterPerFlit = 0;
        /** Minimum spacing between two request plans (scheduler rate). */
        Tick requestCycle = 6400;
        SchedulerKind scheduler = SchedulerKind::Fifo;
        PagePolicy pagePolicy = PagePolicy::Closed;
        Tick trefi = 0;
    };

    /**
     * @param vault this controller's vault id
     * @param endpoint this controller's NoC endpoint id
     * @param net the logic-layer NoC (owned by the device)
     * @param map shared address map (owned by the device)
     */
    VaultController(Kernel &kernel, Component *parent, std::string name,
                    VaultId vault, NodeId endpoint, Network &net,
                    const AddressMap &map, const DramTimingParams &timing,
                    std::uint32_t num_banks, const Params &params);

    VaultId vault() const { return vault_; }
    NodeId endpoint() const { return endpoint_; }
    VaultMemory &memory() { return mem_; }

    // ----- NoC endpoint contract (wired up by HmcDevice) -----

    /** Reserve input-queue space for an incoming request. */
    bool tryReserveInput(std::uint32_t flits);

    /** A request message fully ejected from the NoC. */
    void deliverRequest(const NocMessage &msg);

    /** NoC injection credits freed; retry pending responses. */
    void onInjectSpace();

    // ----- power & thermal -----

    /** Attach the power probe to this vault's banks and TSV bus,
     *  attributing bank energy across @p num_dram_layers dies. */
    void
    setPowerProbe(PowerProbe *probe, std::uint32_t num_dram_layers = 1)
    {
        mem_.setPowerProbe(probe, num_dram_layers);
    }

    /**
     * Thermal throttle: stretch the scheduler's request cycle by
     * @p slowdown (1.0 = none), capping this vault's request rate.
     */
    void setThrottle(double slowdown);

    double throttleSlowdown() const { return slowdown_; }

    // ----- statistics -----
    std::uint64_t requestsServed() const { return served_.value(); }
    std::uint64_t readBytes() const { return readBytes_.value(); }
    std::uint64_t writeBytes() const { return writeBytes_.value(); }
    std::uint64_t refreshesIssued() const
    {
        return refresh_.refreshesIssued();
    }

    /** Arrival-to-response-injection latency, ns. */
    const SampleStats &serviceLatencyNs() const { return serviceNs_; }

    /** Peak total occupancy of the bank queues (requests). */
    std::uint32_t peakBankQueueOccupancy() const { return peakBankQ_; }

  protected:
    void reportOwnStats(std::map<std::string, double> &out) const override;
    void resetOwnStats() override;

  private:
    struct BankState {
        std::deque<HmcPacketPtr> q;
        bool busy = false;
        bool waitingForResponseSpace = false;
    };

    VaultId vault_;
    NodeId endpoint_;
    Network &net_;
    const AddressMap &map_;
    Params params_;
    VaultMemory mem_;
    RefreshPolicy refresh_;

    /** Input queue: (ready-after-frontend, packet). */
    std::deque<std::pair<Tick, HmcPacketPtr>> inputQ_;
    std::uint32_t inputUsedFlits_ = 0;

    std::vector<BankState> banks_;
    std::uint32_t bankQOccupancy_ = 0;
    std::uint32_t peakBankQ_ = 0;

    std::deque<HmcPacketPtr> respQ_;
    std::uint32_t respUsedFlits_ = 0;
    std::uint32_t respReservedFlits_ = 0;

    Counter served_;
    Counter readBytes_;
    Counter writeBytes_;
    SampleStats serviceNs_;

    MetricSet obsMetrics_;
    PacketTracer *tracer_ = nullptr;

    Tick nextPlanAllowed_ = 0;
    bool planRetryPending_ = false;
    std::uint32_t lastPlannedBank_ = 0;
    double slowdown_ = 1.0;

    Tick effectiveRequestCycle() const;
    void processInput();
    void tryScheduleAll();
    void trySchedule(BankId b);
    void finishRequest(const HmcPacketPtr &pkt);
    void tryInjectResponses();
    std::size_t pickRequest(const BankState &bank) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_HMC_VAULT_CONTROLLER_H_
