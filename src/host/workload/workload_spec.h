/**
 * @file
 * WorkloadSpec: a plain, copyable description of one port's workload,
 * parsed from / serialized to Config keys.  The key surface, relative
 * to a prefix ("host." for the shared defaults, "host.port<N>." for
 * per-port overrides):
 *
 *   <prefix>workload                 gups|stride|zipf|burst|trace|mix
 *   <prefix>workload.request_bytes   16|32|64|128|...
 *   <prefix>workload.kind            read|write|rmw
 *   <prefix>workload.write_fraction  probability of writes (0..1)
 *   <prefix>workload.vaults/.banks/.base_vault/.base_bank
 *                                    mask-confinement of the pattern
 *   <prefix>workload.seed            0 = derive from host.seed + port
 *                                    via the SplitMix64 seed mixer
 *   <prefix>workload.inject          closed|open
 *   <prefix>workload.window          closed loop: outstanding window
 *   <prefix>workload.batch           closed loop: batch size
 *   <prefix>workload.rate_per_ns     open loop: offered requests/ns
 *   <prefix>workload.burstiness      open loop: token clump size
 *   <prefix>workload.gups_mode       random|linear
 *   <prefix>workload.stride_bytes/.stride_span/.stride_base
 *   <prefix>workload.zipf_theta/.zipf_domain(vault|cube|block)/.zipf_hot_items
 *   <prefix>workload.burst_inner(gups|stride|zipf)/.burst_len/.burst_gap_ns/.burst_jitter
 *   <prefix>workload.trace_file      empty = synthetic random trace
 *   <prefix>workload.trace_length/.trace_loop
 *   <prefix>workload.mix_phases      e.g. "gups:20us,zipf:10us"
 *
 * Ports [0, host.workload_ports) are configured from the defaults at
 * System construction; any port with an explicit host.port<N>.workload
 * key is configured too.
 */

#ifndef HMCSIM_HOST_WORKLOAD_WORKLOAD_SPEC_H_
#define HMCSIM_HOST_WORKLOAD_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/types.h"
#include "host/addr_gen.h"

namespace hmcsim {

struct WorkloadSpec {
    std::string type = "gups";

    // ----- shared knobs -----
    std::uint32_t requestBytes = 32;
    ReqKind kind = ReqKind::ReadOnly;
    double writeFraction = 0.0;
    /** Mask-confinement of generated addresses (the paper's GUPS
     *  mask/anti-mask). */
    std::uint32_t patternVaults = 16;
    std::uint32_t patternBanks = 16;
    std::uint32_t baseVault = 0;
    std::uint32_t baseBank = 0;
    /** 0 = mixSeeds(host.seed, port). */
    std::uint64_t seed = 0;

    // ----- injection -----
    std::string inject = "closed";
    std::uint32_t window = 0;
    std::uint32_t batchSize = 0;
    double ratePerNs = 0.05;
    double burstiness = 1.0;

    // ----- gups -----
    std::string gupsMode = "random";

    // ----- stride -----
    std::uint64_t strideBytes = 128;
    std::uint64_t strideSpanBytes = 0;  ///< 0 = whole capacity
    std::uint64_t strideBase = 0;

    // ----- zipf -----
    double zipfTheta = 0.99;
    std::string zipfDomain = "vault";
    std::uint64_t zipfHotItems = 1024;

    // ----- burst (on/off wrapper) -----
    std::string burstInner = "gups";
    std::uint32_t burstLen = 64;
    std::uint32_t burstGapNs = 1000;
    bool burstJitter = false;

    // ----- trace -----
    std::string traceFile;
    std::uint64_t traceLength = 4096;
    bool traceLoop = true;

    // ----- mix -----
    std::string mixPhases = "gups:20us,stride:20us";

    void validate() const;

    /** Read <prefix>workload* keys over @p defaults. */
    static WorkloadSpec fromConfig(const Config &cfg,
                                   const std::string &prefix,
                                   const WorkloadSpec &defaults);

    /** Write the full spec under @p prefix. */
    void toConfig(Config &cfg, const std::string &prefix) const;
};

/** Parse a duration like "250ns", "20us", "1ms" (bare = ns) to ticks. */
Tick parseDurationTicks(const std::string &text);

ReqKind reqKindFromString(const std::string &s);
const char *toString(ReqKind kind);
AddrMode addrModeFromString(const std::string &s);
const char *toString(AddrMode mode);

}  // namespace hmcsim

#endif  // HMCSIM_HOST_WORKLOAD_WORKLOAD_SPEC_H_
