/**
 * @file
 * Host-side HMC controller (the Micron controller IP on the FPGA).
 *
 * Request path: once per FPGA cycle per link, round-robin over the
 * ports, forward one request whose link tokens are available.
 * Response path: a shared deserializer drains response flits from the
 * links' RX buffers at a bounded rate with a per-packet processing
 * overhead -- the ceiling that caps read bandwidth per request size
 * (Figs. 6 and 13).
 *
 * With multi-cube chaining the controller routes by the decoded CUB
 * field: it stamps every request's cube id, restricts star-attached
 * links to their cube, and tracks per-cube outstanding tags.
 */

#ifndef HMCSIM_HOST_HMC_HOST_CONTROLLER_H_
#define HMCSIM_HOST_HMC_HOST_CONTROLLER_H_

#include <memory>
#include <vector>

#include "hmc/address_map.h"
#include "hmc/serdes_link.h"
#include "host/host_config.h"
#include "host/workload/workload_port.h"
#include "noc/arbiter.h"

namespace hmcsim {

/**
 * What the host controller is wired to: the SerDes links it drives,
 * the shared address geometry, and which cube each link reaches.
 * Assembled by System from either a bare HmcDevice (classic
 * single-cube) or a chain::CubeNetwork.
 */
struct HostAttach {
    const AddressMap *map = nullptr;
    std::uint32_t numCubes = 1;
    /** This controller's host id; stamped on every request so the
     *  chain returns the response to this host's entry cube. */
    HostId hostId = 0;
    std::vector<SerdesLink *> links;
    /** Cube behind each link; kCubeAll when the link reaches all. */
    std::vector<CubeId> linkCube;
    /**
     * Congestion-aware chain-entry selection
     * (hmc.chain_routing=adaptive): each issue slot picks the entry
     * link with the most free request tokens instead of pure
     * round-robin.  False keeps the bit-identical legacy rotation.
     */
    bool adaptiveEntry = false;
};

/** The owning fabric's port table, indexed by PortId. */
using PortTable = std::vector<std::unique_ptr<WorkloadPort>>;

class HmcHostController : public Component
{
  public:
    /** @p ports is the owning Fpga's table: the controller reads the
     *  live entries, so replacing a port needs no rebinding. */
    HmcHostController(Kernel &kernel, Component *parent, std::string name,
                      const HostConfig &cfg, HostAttach attach,
                      const PortTable &ports);

    /** Advance one FPGA cycle: issue requests, drain responses. */
    void tick();

    /** WorkloadPort::cyclesToWork for the controller: 1 while it can
     *  issue or drain, else WorkloadPort::kNoSelfWake (a response
     *  wakes it). */
    std::uint64_t cyclesToWork() const;

    /** Apply @p n skipped no-op ticks: refill the deserializer. */
    void skipCycles(std::uint64_t n);

    std::uint64_t requestsSent() const { return requestsSent_.value(); }
    std::uint64_t
    responsesDelivered() const
    {
        return responsesDelivered_.value();
    }

    /** Requests currently outstanding toward cube @p c. */
    std::uint32_t outstandingToCube(CubeId c) const;

    /** Peak of outstandingToCube over the stats window. */
    std::uint32_t peakOutstandingToCube(CubeId c) const;

    /** Requests sent toward cube @p c over the stats window. */
    std::uint64_t requestsSentToCube(CubeId c) const;

  protected:
    void listStats(StatList &s) const override;
    void resetOwnStats() override;

  private:
    HostConfig cfg_;
    HostAttach attach_;
    const PortTable &ports_;
    /** One arbiter shared by all links: a global round-robin pointer
     *  keeps the nine ports' grant shares equal. */
    RoundRobinArbiter portArb_;
    std::uint32_t desFlitBudget_ = 0;
    std::uint32_t desPacketBudget_ = 0;
    /** Request-link tokens one tick can spend at most: one 128 B
     *  write per issue slot. */
    std::uint32_t sendHeadroom_;
    std::size_t txNextLink_ = 0;
    /** tickRequests scratch (issue grants per link, port requests),
     *  kept to avoid two allocations per cycle. */
    std::vector<std::uint32_t> grants_;
    std::vector<bool> req_;
    std::size_t rxNextLink_ = 0;
    Counter requestsSent_;
    Counter responsesDelivered_;

    // Per-cube CUB-field bookkeeping (sized numCubes).
    std::vector<Counter> sentPerCube_;
    std::vector<std::uint32_t> outstanding_;
    std::vector<std::uint32_t> peakOutstanding_;
    /** Entry-link spread (sized numLinks). */
    std::vector<Counter> sentPerLink_;

    SerdesLink &link(LinkId l) { return *attach_.links[l]; }
    std::uint32_t numLinks() const
    {
        return static_cast<std::uint32_t>(attach_.links.size());
    }
    bool multiCube() const { return attach_.numCubes > 1; }
    /** Entry-link choice reads live token counts (adaptive entry over
     *  several links). */
    bool
    adaptiveRotation() const
    {
        return attach_.adaptiveEntry && numLinks() > 1;
    }
    bool anyRequest() const;

    void tickRequests();
    void tickResponses();
};

}  // namespace hmcsim

#endif  // HMCSIM_HOST_HMC_HOST_CONTROLLER_H_
