/**
 * @file
 * Per-layer host-time measurements.  Each one calls a single layer
 * through its public API, with inputs generated from the workload's own spec
 * and seed, and returns the median host time per operation over
 * several batches.  Nothing is instrumented inside the simulator.
 */

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "host/system.h"
#include "host/workload/traffic_source.h"

namespace perfbench {

/** Requests of port 0's configured workload (its own spec and seed),
 *  drawn through buildTrafficSource. */
struct SourceSample {
    std::vector<hmcsim::WorkloadRequest> requests;
    /** Host ns per TrafficSource::next(). */
    double nsPerReq = 0.0;
};

SourceSample driveSource(const hmcsim::SystemConfig &cfg,
                         std::size_t count);

/** Host ns per AddressMap::decode() over @p reqs' addresses. */
double driveDecode(const hmcsim::SystemConfig &cfg,
                   const std::vector<hmcsim::WorkloadRequest> &reqs);

/** Host ns per VaultMemory::service() over @p reqs' bank/row fields,
 *  one access in flight at a time. */
double driveDramService(const hmcsim::SystemConfig &cfg,
                        const std::vector<hmcsim::WorkloadRequest> &reqs);

/** Host cost of messages through a standalone cube NoC. */
struct NocSample {
    /** Host ns per delivered message, its kernel events included. */
    double nsPerMsg = 0.0;
    /** Kernel events the NoC executes per delivered message. */
    double eventsPerMsg = 0.0;
};

/** Drive a standalone cube NoC (noc::Network): each request travels
 *  link -> its vault, its response back. */
NocSample driveNoc(const hmcsim::SystemConfig &cfg,
                   const std::vector<hmcsim::WorkloadRequest> &reqs);

/** Host ns per ChainRoutingPolicy::route() over a ChainRouteTable of
 *  the workload's chain, toward each request's destination cube. */
double driveChainRoute(const hmcsim::SystemConfig &cfg,
                       const std::vector<hmcsim::WorkloadRequest> &reqs);

/** Host ns per event of a bare Kernel whose self-rescheduling events
 *  run at @p eventsPerSimUs, the workload's own event density. */
double driveKernel(const hmcsim::SystemConfig &cfg, double eventsPerSimUs);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
