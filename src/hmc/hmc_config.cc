#include "hmc/hmc_config.h"

#include <algorithm>
#include <iterator>
#include <type_traits>

#include "common/bitutil.h"
#include "common/log.h"
#include "hmc/packet.h"

namespace hmcsim {

namespace {

/** The "hmc.*" key list (power keys live in PowerConfig). */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("hmc.num_vaults", c.numVaults);
    f("hmc.num_quadrants", c.numQuadrants);
    f("hmc.banks_per_vault", c.numBanksPerVault);
    f("hmc.capacity_bytes", c.capacityBytes);
    f("hmc.block_bytes", c.blockBytes);
    f("hmc.row_bytes", c.rowBytes);
    f("hmc.map_scheme", c.mapScheme);

    f("hmc.num_links", c.numLinks);
    f("hmc.lanes_per_link", c.lanesPerLink);
    f("hmc.link_gbps", c.linkGbps);
    f("hmc.link_wire_latency_ps", c.linkWireLatency);
    f("hmc.serdes_latency_ps", c.serdesLatency);
    f("hmc.link_tokens", c.linkTokens);
    f("hmc.token_return_latency_ps", c.tokenReturnLatency);
    f("hmc.crc_error_prob", c.crcErrorProb);
    f("hmc.retry_delay_ps", c.retryDelay);
    f("hmc.link_seed", c.linkSeed);

    f("hmc.topology", c.topology);
    f("hmc.noc_flit_period_ps", c.noc.flitPeriod);
    f("hmc.noc_wire_latency_ps", c.noc.wireLatency);
    f("hmc.noc_router_latency_ps", c.noc.routerLatency);
    f("hmc.noc_credit_latency_ps", c.noc.creditLatency);
    f("hmc.noc_input_buffer_flits", c.noc.inputBufferFlits);
    f("hmc.noc_output_queue_flits", c.noc.outputQueueFlits);
    f("hmc.noc_eject_queue_flits", c.noc.ejectQueueFlits);

    f("hmc.vc_input_queue_flits", c.vcInputQueueFlits);
    f("hmc.vc_bank_queue_depth", c.vcBankQueueDepth);
    f("hmc.vc_response_queue_flits", c.vcResponseQueueFlits);
    f("hmc.vc_frontend_latency_ps", c.vcFrontendLatency);
    f("hmc.vc_backend_latency_ps", c.vcBackendLatency);
    f("hmc.vc_request_cycle_ps", c.vcRequestCycle);
    f("hmc.scheduler", c.scheduler);
    f("hmc.page_policy", c.pagePolicy);
    f("hmc.trefi_ps", c.trefi);
    f("hmc.vault_jitter_ns_per_flit", c.vaultJitterNsPerFlit);
    f("hmc.vault_jitter_seed", c.vaultJitterSeed);

    f("hmc.dram_preset", c.dramPreset);

    f("hmc.num_cubes", c.chain.numCubes);
    f("hmc.chain_topology", c.chain.topology);
    f("hmc.chain_interleave", c.chain.interleave);
    f("hmc.chain_passthrough_latency_ps", c.chain.passThroughLatency);
    f("hmc.chain_forward_queue_packets", c.chain.forwardQueuePackets);
    f("hmc.chain_routing", c.chain.routing);
    f("hmc.chain_adaptive_threshold_flits", c.chain.adaptiveThresholdFlits);
    f("hmc.chain_adaptive_misroute_threshold_flits",
      c.chain.adaptiveMisrouteThresholdFlits);
    f("hmc.chain_adaptive_max_misroutes", c.chain.adaptiveMaxMisroutes);
}

}  // namespace

SchedulerKind
schedulerFromString(const std::string &s)
{
    if (s == "fifo")
        return SchedulerKind::Fifo;
    if (s == "frfcfs")
        return SchedulerKind::FrFcfs;
    fatal("unknown scheduler '" + s + "' (expected fifo|frfcfs)");
}

std::string
toString(SchedulerKind k)
{
    return k == SchedulerKind::Fifo ? "fifo" : "frfcfs";
}

ChainTopology
chainTopologyFromString(const std::string &s)
{
    if (s == "daisy")
        return ChainTopology::Daisy;
    if (s == "ring")
        return ChainTopology::Ring;
    if (s == "star")
        return ChainTopology::Star;
    fatal("unknown chain topology '" + s + "' (expected daisy|ring|star)");
}

std::string
toString(ChainTopology t)
{
    switch (t) {
      case ChainTopology::Daisy: return "daisy";
      case ChainTopology::Ring: return "ring";
      case ChainTopology::Star: return "star";
    }
    return "?";
}

PagePolicy
pagePolicyFromString(const std::string &s)
{
    if (s == "closed")
        return PagePolicy::Closed;
    if (s == "open")
        return PagePolicy::Open;
    fatal("unknown page policy '" + s + "' (expected closed|open)");
}

std::string
toString(PagePolicy p)
{
    return p == PagePolicy::Closed ? "closed" : "open";
}

double
HmcConfig::peakBandwidthGBs()const
{
    // Eq. 1: links * lanes * Gbps * 2 (duplex) / 8 bits.
    return numLinks * lanesPerLink * linkGbps * 2.0 / 8.0;
}

double
HmcConfig::linkBandwidthGBsPerDirection() const
{
    return numLinks * lanesPerLink * linkGbps / 8.0;
}

std::uint32_t
HmcConfig::vaultsPerQuadrant() const
{
    return numVaults / numQuadrants;
}

DramTimingParams
HmcConfig::dramTiming() const
{
    DramTimingParams p = DramTimingParams::preset(dramPreset);
    p.tREFI = trefi;
    return p;
}

void
HmcConfig::validate() const
{
    if (!isPow2(numVaults) || !isPow2(numBanksPerVault))
        fatal("hmc: vault and bank counts must be powers of two");
    if (numQuadrants == 0 || numVaults % numQuadrants != 0)
        fatal("hmc: vaults must divide evenly into quadrants");
    if (!isPow2(blockBytes) || blockBytes < 16 || blockBytes > 256)
        fatal("hmc: block size must be a power of two in [16, 256]");
    if (!isPow2(rowBytes) || rowBytes < blockBytes)
        fatal("hmc: row size must be a power of two >= block size");
    if (!isPow2(capacityBytes))
        fatal("hmc: capacity must be a power of two");
    if (capacityBytes % (static_cast<std::uint64_t>(numVaults) *
                         numBanksPerVault) != 0)
        fatal("hmc: capacity must divide evenly across banks");
    if (numLinks == 0 || numLinks > numQuadrants)
        fatal("hmc: need 1..num_quadrants links");
    if (linkGbps <= 0.0 || lanesPerLink == 0)
        fatal("hmc: invalid link rate");
    if (linkTokens < 16)
        fatal("hmc: link token pool must hold at least one max packet "
              "(16 flits)");
    // A flit buffer smaller than the largest packet wedges the fabric
    // on the first such packet, silently; zero would also reach the
    // credit pools' zero-capacity panic.
    const std::uint32_t *const packetBuffers[] = {
        &noc.inputBufferFlits, &noc.outputQueueFlits, &noc.ejectQueueFlits,
        &vcInputQueueFlits, &vcResponseQueueFlits};
    fields(*this, [&packetBuffers](const char *key, const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::uint32_t>) {
            const auto *const end = std::end(packetBuffers);
            if (std::find(std::begin(packetBuffers), end, &v) != end &&
                v < kMaxPacketFlits)
                fatal(std::string(key) + " = " + std::to_string(v) +
                      " cannot hold the largest packet (" +
                      std::to_string(kMaxPacketFlits) + " flits)");
        }
    });
    if (crcErrorProb < 0.0 || crcErrorProb >= 1.0)
        fatal("hmc: crc error probability must be in [0, 1)");
    if (vaultJitterNsPerFlit < 0.0)
        fatal("hmc: vault jitter must be non-negative");
    if (mapScheme != "vault_then_bank" && mapScheme != "bank_then_vault")
        fatal("hmc: unknown map scheme '" + mapScheme + "'");
    if (!isPow2(chain.numCubes) || chain.numCubes > 8)
        fatal("hmc: num_cubes must be a power of two in [1, 8] "
              "(3-bit CUB field)");
    const ChainTopology topo = chainTopologyFromString(chain.topology);
    if (chain.interleave != "cube_high" && chain.interleave != "cube_low")
        fatal("hmc: unknown chain interleave '" + chain.interleave +
              "' (expected cube_high|cube_low)");
    if (topo == ChainTopology::Star && chain.numCubes > numLinks)
        fatal("hmc: star chaining needs num_cubes <= num_links "
              "(every cube is host-attached)");
    if (chain.forwardQueuePackets == 0)
        fatal("hmc: chain forward queue must hold at least one packet");
    if (chain.routing != "static" && chain.routing != "adaptive")
        fatal("hmc: unknown chain routing '" + chain.routing +
              "' (expected static|adaptive)");
    if (chain.adaptiveMaxMisroutes > 8)
        fatal("hmc: chain adaptive misroute budget must be <= 8 "
              "(bounded detours keep ring routing loop-free)");
    schedulerFromString(scheduler);
    pagePolicyFromString(pagePolicy);
    (void)dramTiming();  // validates the preset name
    power.validate();
}

HmcConfig
HmcConfig::fromConfig(const Config &cfg)
{
    HmcConfig c;
    fields(c, ConfigReader{cfg});
    c.power = PowerConfig::fromConfig(cfg);
    c.validate();
    return c;
}

void
HmcConfig::toConfig(Config &cfg) const
{
    fields(*this, ConfigWriter{cfg});
    power.toConfig(cfg);
}

}  // namespace hmcsim
