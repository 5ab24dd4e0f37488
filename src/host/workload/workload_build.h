/**
 * @file
 * Turn a WorkloadSpec (the config-level description) into live
 * WorkloadPort parameters: build the TrafficSource tree against the
 * system's address geometry and resolve the injection policy against
 * the host firmware defaults.
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_

#include <optional>

#include "hmc/address_map.h"
#include "host/trace.h"
#include "host/workload/workload_port.h"
#include "host/workload/workload_spec.h"

namespace hmcsim {

struct HostConfig;

/**
 * Build the TrafficSource described by @p spec.  @p seed is the fully
 * resolved per-port seed (the builder derives decorrelated sub-seeds
 * for nested sources with mixSeeds()).
 */
TrafficSourcePtr buildTrafficSource(const WorkloadSpec &spec,
                                    const AddressMap &map,
                                    std::uint64_t seed);

/**
 * Resolve @p spec into full port parameters for @p port.  A zero
 * spec.seed derives the port seed as mixSeeds(host.seed, port).  A
 * given @p trace is replayed (looping per spec.traceLoop) instead of
 * the spec's trace file or synthetic trace; spec.type must be "trace".
 */
WorkloadPort::Params buildWorkloadParams(const WorkloadSpec &spec,
                                         const AddressMap &map,
                                         const HostConfig &host,
                                         PortId port,
                                         std::optional<Trace> trace = {});

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_BUILD_H_
