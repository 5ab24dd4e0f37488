/**
 * @file
 * Network facade: builds routers and channels from a TopologySpec,
 * exposes credit-checked injection and reservation-based ejection to
 * endpoints (link masters and vault controllers), and aggregates
 * network-level statistics.
 */

#ifndef HMCSIM_NOC_NETWORK_H_
#define HMCSIM_NOC_NETWORK_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/stats.h"
#include "noc/router.h"
#include "noc/topology.h"

namespace hmcsim {

class Network : public Component
{
  public:
    /** Callbacks each endpoint registers before traffic flows. */
    struct EndpointOps {
        /** Reserve delivery space; false blocks the ejection port. */
        InlineFunction<bool(std::uint32_t flits)> tryReserve;

        /** Deliver a message (space already reserved).  Twice the
         *  default capture: harnesses that stand in for the endpoints
         *  (tests, perfbench's NoC harness) capture their state here. */
        InlineFunction<void(const NocMessage &), 64> deliver;

        /**
         * Injection credits returned after a failed canInject(); the
         * endpoint may retry.  Runs in the return's slot; returns
         * nobody waits for call nothing.
         */
        InlineFunction<void()> onInjectSpace;
    };

    Network(Kernel &kernel, Component *parent, std::string name,
            const TopologySpec &spec, const RouterParams &params);

    /** Register endpoint callbacks; panics on re-registration. */
    void setEndpoint(NodeId ep, EndpointOps ops);

    /**
     * Replace an already-registered endpoint's callbacks (multi-cube
     * chaining redirects a link endpoint's ejection to a pass-through
     * switch after device construction).
     */
    void rewireEndpoint(NodeId ep, EndpointOps ops);

    /**
     * True if injection credits cover a message of @p flits; a false
     * answer arms onInjectSpace for the next credit return.
     */
    bool canInject(NodeId ep, std::uint32_t flits);

    /** Injection credit pool of endpoint @p ep. */
    const CreditPool &injectCredits(NodeId ep) const;

    /**
     * Inject a message at endpoint @p ep.  Caller must have checked
     * canInject(); violating that is a modelling bug (panics).
     */
    void inject(NodeId ep, NocMessage msg);

    /** Endpoint freed delivery space; retry a blocked ejection. */
    void kickEject(NodeId ep);

    std::uint32_t numEndpoints() const
    {
        return static_cast<std::uint32_t>(injectPorts_.size());
    }

    std::uint32_t numRouters() const
    {
        return static_cast<std::uint32_t>(routers_.size());
    }

    /** Router-hop distance between two endpoints (static). */
    std::uint32_t hopCount(NodeId from, NodeId to) const;

    /** Attach the power probe to every router. */
    void setPowerProbe(PowerProbe *probe);

    /** End-to-end message latency distribution (ns). */
    const SampleStats &latencyNs() const { return latencyNs_; }

    std::uint64_t messagesDelivered() const { return delivered_.value(); }
    std::uint64_t flitsDelivered() const { return flitsDelivered_.value(); }

  protected:
    void listStats(StatList &s) const override;

  private:
    struct InjectPort {
        InjectPort(Kernel &kernel, std::uint32_t flits)
            : credits(kernel, flits)
        {
        }

        CreditPool credits;
        std::unique_ptr<Channel> chan;
        Router *router = nullptr;
        int input = -1;
    };

    struct EjectLoc {
        Router *router = nullptr;
    };

    TopologySpec spec_;
    RoutingTables routes_;
    std::vector<std::unique_ptr<Router>> routers_;
    /** A deque: routers hold pointers to the credit pools. */
    std::deque<InjectPort> injectPorts_;
    std::vector<EjectLoc> ejectLocs_;
    std::vector<EndpointOps> ops_;
    std::vector<bool> opsSet_;
    SampleStats latencyNs_;
    Counter delivered_;
    Counter flitsDelivered_;

    EndpointOps &opsFor(NodeId ep);
    void onDelivered(NodeId ep, const NocMessage &msg);
};

}  // namespace hmcsim

#endif  // HMCSIM_NOC_NETWORK_H_
