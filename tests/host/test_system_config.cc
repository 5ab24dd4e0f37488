/**
 * @file
 * Pins the whole effective configuration: the key names, defaults and
 * value formatting SystemConfig::toConfig writes, for the default
 * system and for one config that touches every keyed-by-index path.
 * The expected dumps were captured before the config structs moved to
 * one key list each, so any drift in a key's spelling, default or
 * formatting fails here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "host/system.h"

namespace hmcsim {
namespace {

std::string
effectiveConfig(const Config &in)
{
    Config out;
    SystemConfig::fromConfig(in).toConfig(out);
    return out.toString();
}

/** toConfig(fromConfig(toConfig(x))) must equal toConfig(x). */
void
expectFixedPoint(const Config &in)
{
    Config once;
    SystemConfig::fromConfig(in).toConfig(once);
    Config twice;
    SystemConfig::fromConfig(once).toConfig(twice);
    EXPECT_EQ(twice.toString(), once.toString());
}

const char *const kDefaultDump =
        "hmc.banks_per_vault = 16\n"
        "hmc.block_bytes = 128\n"
        "hmc.capacity_bytes = 4294967296\n"
        "hmc.chain_adaptive_max_misroutes = 1\n"
        "hmc.chain_adaptive_misroute_threshold_flits = 48\n"
        "hmc.chain_adaptive_threshold_flits = 8\n"
        "hmc.chain_forward_queue_packets = 8\n"
        "hmc.chain_interleave = cube_high\n"
        "hmc.chain_passthrough_latency_ps = 12000\n"
        "hmc.chain_routing = static\n"
        "hmc.chain_topology = daisy\n"
        "hmc.crc_error_prob = 0\n"
        "hmc.dram_preset = hmc_gen2\n"
        "hmc.lanes_per_link = 8\n"
        "hmc.link_gbps = 15\n"
        "hmc.link_seed = 12648430\n"
        "hmc.link_tokens = 256\n"
        "hmc.link_wire_latency_ps = 1600\n"
        "hmc.map_scheme = vault_then_bank\n"
        "hmc.noc_credit_latency_ps = 800\n"
        "hmc.noc_eject_queue_flits = 4096\n"
        "hmc.noc_flit_period_ps = 800\n"
        "hmc.noc_input_buffer_flits = 64\n"
        "hmc.noc_output_queue_flits = 64\n"
        "hmc.noc_router_latency_ps = 1600\n"
        "hmc.noc_wire_latency_ps = 800\n"
        "hmc.num_cubes = 1\n"
        "hmc.num_links = 2\n"
        "hmc.num_quadrants = 4\n"
        "hmc.num_vaults = 16\n"
        "hmc.page_policy = closed\n"
        "hmc.power_ambient_c = 45\n"
        "hmc.power_chain_forward_flit_pj = 120\n"
        "hmc.power_dram_act_pj = 909\n"
        "hmc.power_dram_idle_w_per_layer = 0.40000000000000002\n"
        "hmc.power_dram_layers = 4\n"
        "hmc.power_dram_pre_pj = 600\n"
        "hmc.power_dram_read_beat_pj = 947\n"
        "hmc.power_dram_refresh_pj = 3900\n"
        "hmc.power_dram_write_beat_pj = 947\n"
        "hmc.power_enabled = true\n"
        "hmc.power_layer_capacitance_j_per_k = 0.002\n"
        "hmc.power_layer_resistance_k_per_w = 0.34999999999999998\n"
        "hmc.power_logic_idle_w = 3\n"
        "hmc.power_noc_flit_pj = 26\n"
        "hmc.power_serdes_flit_pj = 640\n"
        "hmc.power_serdes_idle_w = 2.3999999999999999\n"
        "hmc.power_sink_resistance_k_per_w = 0.90000000000000002\n"
        "hmc.power_step_ps = 5000000\n"
        "hmc.power_throttle_enabled = false\n"
        "hmc.power_throttle_levels = 8\n"
        "hmc.power_throttle_max_slowdown = 4\n"
        "hmc.power_throttle_off_c = 85\n"
        "hmc.power_throttle_on_c = 95\n"
        "hmc.power_tsv_beat_pj = 166\n"
        "hmc.retry_delay_ps = 100000\n"
        "hmc.row_bytes = 256\n"
        "hmc.scheduler = fifo\n"
        "hmc.serdes_latency_ps = 16000\n"
        "hmc.token_return_latency_ps = 3200\n"
        "hmc.topology = quadrant_xbar\n"
        "hmc.trefi_ps = 0\n"
        "hmc.vault_jitter_ns_per_flit = 25\n"
        "hmc.vault_jitter_seed = 24301\n"
        "hmc.vc_backend_latency_ps = 2000\n"
        "hmc.vc_bank_queue_depth = 128\n"
        "hmc.vc_frontend_latency_ps = 4000\n"
        "hmc.vc_input_queue_flits = 16\n"
        "hmc.vc_request_cycle_ps = 6400\n"
        "hmc.vc_response_queue_flits = 96\n"
        "host.deserializer_flit_budget_cap = 28\n"
        "host.deserializer_flits_per_cycle = 7\n"
        "host.deserializer_packet_budget_cap = 4\n"
        "host.deserializer_packets_per_cycle = 1\n"
        "host.fixed_latency_ns = 600\n"
        "host.fpga_mhz = 187.5\n"
        "host.num_hosts = 1\n"
        "host.num_ports = 9\n"
        "host.port_fifo_depth = 16\n"
        "host.requests_per_cycle_per_link = 1\n"
        "host.seed = 12345\n"
        "host.stream_drain_flits_per_cycle = 1\n"
        "host.stream_window = 72\n"
        "host.tags_per_port = 40\n"
        "host.workload = gups\n"
        "host.workload.banks = 16\n"
        "host.workload.base_bank = 0\n"
        "host.workload.base_vault = 0\n"
        "host.workload.batch = 0\n"
        "host.workload.burst_gap_ns = 1000\n"
        "host.workload.burst_inner = gups\n"
        "host.workload.burst_jitter = false\n"
        "host.workload.burst_len = 64\n"
        "host.workload.burstiness = 1\n"
        "host.workload.gups_mode = random\n"
        "host.workload.inject = closed\n"
        "host.workload.kind = read\n"
        "host.workload.mix_phases = gups:20us,stride:20us\n"
        "host.workload.rate_per_ns = 0.050000000000000003\n"
        "host.workload.request_bytes = 32\n"
        "host.workload.seed = 0\n"
        "host.workload.stride_base = 0\n"
        "host.workload.stride_bytes = 128\n"
        "host.workload.stride_span = 0\n"
        "host.workload.trace_file = \n"
        "host.workload.trace_length = 4096\n"
        "host.workload.trace_loop = true\n"
        "host.workload.vaults = 16\n"
        "host.workload.window = 0\n"
        "host.workload.write_fraction = 0\n"
        "host.workload.zipf_domain = vault\n"
        "host.workload.zipf_hot_items = 1024\n"
        "host.workload.zipf_theta = 0.98999999999999999\n"
        "host.workload_ports = 0\n"
        "obs.anatomy = false\n"
        "obs.anatomy_hist_bins = 1024\n"
        "obs.anatomy_hist_ns = 32768\n"
        "obs.anatomy_window_ns = 0\n"
        "obs.metrics = false\n"
        "obs.sample_csv = obs_timeseries.csv\n"
        "obs.sample_interval_ns = 0\n"
        "obs.trace = off\n"
        "obs.trace_buffer_events = 65536\n"
        "obs.trace_json = \n"
        "obs.trace_sample_every = 1\n"
        "sim.calendar_bucket_ps = 512\n"
        "sim.calendar_buckets = 4096\n";

// 8-cube adaptive ring, power + throttle on, two hosts with host 1
// pinned, three zipf workload ports plus a port-7 stride override,
// anatomy on, a smaller calendar.
const std::vector<std::string> kBusyOverrides = {
    "hmc.num_cubes=8",
    "hmc.chain_topology=ring",
    "hmc.chain_routing=adaptive",
    "hmc.power_enabled=1",
    "hmc.power_throttle_enabled=1",
    "host.num_hosts=2",
    "host.host1.entry_cube=6",
    "host.workload_ports=3",
    "host.workload=zipf",
    "host.port7.workload=stride",
    "obs.anatomy=1",
    "sim.calendar_buckets=1024",
};

const char *const kBusyDump =
        "hmc.banks_per_vault = 16\n"
        "hmc.block_bytes = 128\n"
        "hmc.capacity_bytes = 4294967296\n"
        "hmc.chain_adaptive_max_misroutes = 1\n"
        "hmc.chain_adaptive_misroute_threshold_flits = 48\n"
        "hmc.chain_adaptive_threshold_flits = 8\n"
        "hmc.chain_forward_queue_packets = 8\n"
        "hmc.chain_interleave = cube_high\n"
        "hmc.chain_passthrough_latency_ps = 12000\n"
        "hmc.chain_routing = adaptive\n"
        "hmc.chain_topology = ring\n"
        "hmc.crc_error_prob = 0\n"
        "hmc.dram_preset = hmc_gen2\n"
        "hmc.lanes_per_link = 8\n"
        "hmc.link_gbps = 15\n"
        "hmc.link_seed = 12648430\n"
        "hmc.link_tokens = 256\n"
        "hmc.link_wire_latency_ps = 1600\n"
        "hmc.map_scheme = vault_then_bank\n"
        "hmc.noc_credit_latency_ps = 800\n"
        "hmc.noc_eject_queue_flits = 4096\n"
        "hmc.noc_flit_period_ps = 800\n"
        "hmc.noc_input_buffer_flits = 64\n"
        "hmc.noc_output_queue_flits = 64\n"
        "hmc.noc_router_latency_ps = 1600\n"
        "hmc.noc_wire_latency_ps = 800\n"
        "hmc.num_cubes = 8\n"
        "hmc.num_links = 2\n"
        "hmc.num_quadrants = 4\n"
        "hmc.num_vaults = 16\n"
        "hmc.page_policy = closed\n"
        "hmc.power_ambient_c = 45\n"
        "hmc.power_chain_forward_flit_pj = 120\n"
        "hmc.power_dram_act_pj = 909\n"
        "hmc.power_dram_idle_w_per_layer = 0.40000000000000002\n"
        "hmc.power_dram_layers = 4\n"
        "hmc.power_dram_pre_pj = 600\n"
        "hmc.power_dram_read_beat_pj = 947\n"
        "hmc.power_dram_refresh_pj = 3900\n"
        "hmc.power_dram_write_beat_pj = 947\n"
        "hmc.power_enabled = true\n"
        "hmc.power_layer_capacitance_j_per_k = 0.002\n"
        "hmc.power_layer_resistance_k_per_w = 0.34999999999999998\n"
        "hmc.power_logic_idle_w = 3\n"
        "hmc.power_noc_flit_pj = 26\n"
        "hmc.power_serdes_flit_pj = 640\n"
        "hmc.power_serdes_idle_w = 2.3999999999999999\n"
        "hmc.power_sink_resistance_k_per_w = 0.90000000000000002\n"
        "hmc.power_step_ps = 5000000\n"
        "hmc.power_throttle_enabled = true\n"
        "hmc.power_throttle_levels = 8\n"
        "hmc.power_throttle_max_slowdown = 4\n"
        "hmc.power_throttle_off_c = 85\n"
        "hmc.power_throttle_on_c = 95\n"
        "hmc.power_tsv_beat_pj = 166\n"
        "hmc.retry_delay_ps = 100000\n"
        "hmc.row_bytes = 256\n"
        "hmc.scheduler = fifo\n"
        "hmc.serdes_latency_ps = 16000\n"
        "hmc.token_return_latency_ps = 3200\n"
        "hmc.topology = quadrant_xbar\n"
        "hmc.trefi_ps = 0\n"
        "hmc.vault_jitter_ns_per_flit = 25\n"
        "hmc.vault_jitter_seed = 24301\n"
        "hmc.vc_backend_latency_ps = 2000\n"
        "hmc.vc_bank_queue_depth = 128\n"
        "hmc.vc_frontend_latency_ps = 4000\n"
        "hmc.vc_input_queue_flits = 16\n"
        "hmc.vc_request_cycle_ps = 6400\n"
        "hmc.vc_response_queue_flits = 96\n"
        "host.deserializer_flit_budget_cap = 28\n"
        "host.deserializer_flits_per_cycle = 7\n"
        "host.deserializer_packet_budget_cap = 4\n"
        "host.deserializer_packets_per_cycle = 1\n"
        "host.fixed_latency_ns = 600\n"
        "host.fpga_mhz = 187.5\n"
        "host.host1.entry_cube = 6\n"
        "host.num_hosts = 2\n"
        "host.num_ports = 9\n"
        "host.port0.workload = zipf\n"
        "host.port0.workload.banks = 16\n"
        "host.port0.workload.base_bank = 0\n"
        "host.port0.workload.base_vault = 0\n"
        "host.port0.workload.batch = 0\n"
        "host.port0.workload.burst_gap_ns = 1000\n"
        "host.port0.workload.burst_inner = gups\n"
        "host.port0.workload.burst_jitter = false\n"
        "host.port0.workload.burst_len = 64\n"
        "host.port0.workload.burstiness = 1\n"
        "host.port0.workload.gups_mode = random\n"
        "host.port0.workload.inject = closed\n"
        "host.port0.workload.kind = read\n"
        "host.port0.workload.mix_phases = gups:20us,stride:20us\n"
        "host.port0.workload.rate_per_ns = 0.050000000000000003\n"
        "host.port0.workload.request_bytes = 32\n"
        "host.port0.workload.seed = 0\n"
        "host.port0.workload.stride_base = 0\n"
        "host.port0.workload.stride_bytes = 128\n"
        "host.port0.workload.stride_span = 0\n"
        "host.port0.workload.trace_file = \n"
        "host.port0.workload.trace_length = 4096\n"
        "host.port0.workload.trace_loop = true\n"
        "host.port0.workload.vaults = 16\n"
        "host.port0.workload.window = 0\n"
        "host.port0.workload.write_fraction = 0\n"
        "host.port0.workload.zipf_domain = vault\n"
        "host.port0.workload.zipf_hot_items = 1024\n"
        "host.port0.workload.zipf_theta = 0.98999999999999999\n"
        "host.port1.workload = zipf\n"
        "host.port1.workload.banks = 16\n"
        "host.port1.workload.base_bank = 0\n"
        "host.port1.workload.base_vault = 0\n"
        "host.port1.workload.batch = 0\n"
        "host.port1.workload.burst_gap_ns = 1000\n"
        "host.port1.workload.burst_inner = gups\n"
        "host.port1.workload.burst_jitter = false\n"
        "host.port1.workload.burst_len = 64\n"
        "host.port1.workload.burstiness = 1\n"
        "host.port1.workload.gups_mode = random\n"
        "host.port1.workload.inject = closed\n"
        "host.port1.workload.kind = read\n"
        "host.port1.workload.mix_phases = gups:20us,stride:20us\n"
        "host.port1.workload.rate_per_ns = 0.050000000000000003\n"
        "host.port1.workload.request_bytes = 32\n"
        "host.port1.workload.seed = 0\n"
        "host.port1.workload.stride_base = 0\n"
        "host.port1.workload.stride_bytes = 128\n"
        "host.port1.workload.stride_span = 0\n"
        "host.port1.workload.trace_file = \n"
        "host.port1.workload.trace_length = 4096\n"
        "host.port1.workload.trace_loop = true\n"
        "host.port1.workload.vaults = 16\n"
        "host.port1.workload.window = 0\n"
        "host.port1.workload.write_fraction = 0\n"
        "host.port1.workload.zipf_domain = vault\n"
        "host.port1.workload.zipf_hot_items = 1024\n"
        "host.port1.workload.zipf_theta = 0.98999999999999999\n"
        "host.port2.workload = zipf\n"
        "host.port2.workload.banks = 16\n"
        "host.port2.workload.base_bank = 0\n"
        "host.port2.workload.base_vault = 0\n"
        "host.port2.workload.batch = 0\n"
        "host.port2.workload.burst_gap_ns = 1000\n"
        "host.port2.workload.burst_inner = gups\n"
        "host.port2.workload.burst_jitter = false\n"
        "host.port2.workload.burst_len = 64\n"
        "host.port2.workload.burstiness = 1\n"
        "host.port2.workload.gups_mode = random\n"
        "host.port2.workload.inject = closed\n"
        "host.port2.workload.kind = read\n"
        "host.port2.workload.mix_phases = gups:20us,stride:20us\n"
        "host.port2.workload.rate_per_ns = 0.050000000000000003\n"
        "host.port2.workload.request_bytes = 32\n"
        "host.port2.workload.seed = 0\n"
        "host.port2.workload.stride_base = 0\n"
        "host.port2.workload.stride_bytes = 128\n"
        "host.port2.workload.stride_span = 0\n"
        "host.port2.workload.trace_file = \n"
        "host.port2.workload.trace_length = 4096\n"
        "host.port2.workload.trace_loop = true\n"
        "host.port2.workload.vaults = 16\n"
        "host.port2.workload.window = 0\n"
        "host.port2.workload.write_fraction = 0\n"
        "host.port2.workload.zipf_domain = vault\n"
        "host.port2.workload.zipf_hot_items = 1024\n"
        "host.port2.workload.zipf_theta = 0.98999999999999999\n"
        "host.port7.workload = stride\n"
        "host.port7.workload.banks = 16\n"
        "host.port7.workload.base_bank = 0\n"
        "host.port7.workload.base_vault = 0\n"
        "host.port7.workload.batch = 0\n"
        "host.port7.workload.burst_gap_ns = 1000\n"
        "host.port7.workload.burst_inner = gups\n"
        "host.port7.workload.burst_jitter = false\n"
        "host.port7.workload.burst_len = 64\n"
        "host.port7.workload.burstiness = 1\n"
        "host.port7.workload.gups_mode = random\n"
        "host.port7.workload.inject = closed\n"
        "host.port7.workload.kind = read\n"
        "host.port7.workload.mix_phases = gups:20us,stride:20us\n"
        "host.port7.workload.rate_per_ns = 0.050000000000000003\n"
        "host.port7.workload.request_bytes = 32\n"
        "host.port7.workload.seed = 0\n"
        "host.port7.workload.stride_base = 0\n"
        "host.port7.workload.stride_bytes = 128\n"
        "host.port7.workload.stride_span = 0\n"
        "host.port7.workload.trace_file = \n"
        "host.port7.workload.trace_length = 4096\n"
        "host.port7.workload.trace_loop = true\n"
        "host.port7.workload.vaults = 16\n"
        "host.port7.workload.window = 0\n"
        "host.port7.workload.write_fraction = 0\n"
        "host.port7.workload.zipf_domain = vault\n"
        "host.port7.workload.zipf_hot_items = 1024\n"
        "host.port7.workload.zipf_theta = 0.98999999999999999\n"
        "host.port_fifo_depth = 16\n"
        "host.requests_per_cycle_per_link = 1\n"
        "host.seed = 12345\n"
        "host.stream_drain_flits_per_cycle = 1\n"
        "host.stream_window = 72\n"
        "host.tags_per_port = 40\n"
        "host.workload = zipf\n"
        "host.workload.banks = 16\n"
        "host.workload.base_bank = 0\n"
        "host.workload.base_vault = 0\n"
        "host.workload.batch = 0\n"
        "host.workload.burst_gap_ns = 1000\n"
        "host.workload.burst_inner = gups\n"
        "host.workload.burst_jitter = false\n"
        "host.workload.burst_len = 64\n"
        "host.workload.burstiness = 1\n"
        "host.workload.gups_mode = random\n"
        "host.workload.inject = closed\n"
        "host.workload.kind = read\n"
        "host.workload.mix_phases = gups:20us,stride:20us\n"
        "host.workload.rate_per_ns = 0.050000000000000003\n"
        "host.workload.request_bytes = 32\n"
        "host.workload.seed = 0\n"
        "host.workload.stride_base = 0\n"
        "host.workload.stride_bytes = 128\n"
        "host.workload.stride_span = 0\n"
        "host.workload.trace_file = \n"
        "host.workload.trace_length = 4096\n"
        "host.workload.trace_loop = true\n"
        "host.workload.vaults = 16\n"
        "host.workload.window = 0\n"
        "host.workload.write_fraction = 0\n"
        "host.workload.zipf_domain = vault\n"
        "host.workload.zipf_hot_items = 1024\n"
        "host.workload.zipf_theta = 0.98999999999999999\n"
        "host.workload_ports = 3\n"
        "obs.anatomy = true\n"
        "obs.anatomy_hist_bins = 1024\n"
        "obs.anatomy_hist_ns = 32768\n"
        "obs.anatomy_window_ns = 0\n"
        "obs.metrics = false\n"
        "obs.sample_csv = obs_timeseries.csv\n"
        "obs.sample_interval_ns = 0\n"
        "obs.trace = off\n"
        "obs.trace_buffer_events = 65536\n"
        "obs.trace_json = \n"
        "obs.trace_sample_every = 1\n"
        "sim.calendar_bucket_ps = 512\n"
        "sim.calendar_buckets = 1024\n";

TEST(SystemConfig, DefaultEffectiveConfigIsPinned)
{
    Config out;
    SystemConfig{}.toConfig(out);
    EXPECT_EQ(out.toString(), kDefaultDump);
    EXPECT_EQ(effectiveConfig(Config{}), kDefaultDump);
    expectFixedPoint(Config{});
}

TEST(SystemConfig, BusyEffectiveConfigIsPinned)
{
    Config in;
    in.applyOverrides(kBusyOverrides);
    EXPECT_EQ(effectiveConfig(in), kBusyDump);
    expectFixedPoint(in);
}

TEST(SystemConfig, WorkloadPortsSetInCodeIssueOnEveryPort)
{
    // The field, not only the host.workload_ports key, configures the
    // ports: each of the first nine issues, the rest stay idle.
    SystemConfig cfg;
    cfg.host.numPorts = 10;
    cfg.host.workloadPorts = 9;
    System sys(cfg);
    sys.run(5 * kMicrosecond);
    for (PortId p = 0; p < 9; ++p)
        EXPECT_GT(sys.portAt(0, p).issuedRequests(), 0u) << "port " << p;
    EXPECT_EQ(sys.portAt(0, 9).issuedRequests(), 0u);
}

}  // namespace
}  // namespace hmcsim
