#include "host/host_config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/log.h"

namespace hmcsim {

namespace {

/** The fixed "host.*" key list (workload keys live in WorkloadSpec). */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("host.fpga_mhz", c.fpgaMhz);
    f("host.num_ports", c.numPorts);
    f("host.tags_per_port", c.tagsPerPort);
    f("host.port_fifo_depth", c.portFifoDepth);
    f("host.requests_per_cycle_per_link", c.requestsPerCyclePerLink);
    f("host.deserializer_packets_per_cycle", c.deserializerPacketsPerCycle);
    f("host.deserializer_packet_budget_cap", c.deserializerPacketBudgetCap);
    f("host.deserializer_flits_per_cycle", c.deserializerFlitsPerCycle);
    f("host.deserializer_flit_budget_cap", c.deserializerFlitBudgetCap);
    f("host.fixed_latency_ns", c.fixedLatencyNs);
    f("host.stream_window", c.streamWindow);
    f("host.stream_drain_flits_per_cycle", c.streamDrainFlitsPerCycle);
    f("host.seed", c.seed);
    f("host.num_hosts", c.numHosts);
    f("host.workload_ports", c.workloadPorts);
}

// Keyed by index: host.host<H>.entry_cube and host.port<N>.workload*.
const char *const kHostKeyHead = "host.host";
const char *const kEntryCubeKeyTail = ".entry_cube";
const char *const kPortKeyHead = "host.port";

std::string
portPrefix(PortId p)
{
    return kPortKeyHead + std::to_string(p) + ".";
}

/**
 * Split "<head><N><tail>" into N and tail.  False unless N is a plain
 * decimal without a leading zero; an N past 64 bits saturates.
 */
bool
splitIndexedKey(const std::string &key, const char *head,
                std::uint64_t &index, std::string_view &tail)
{
    const std::size_t at = std::strlen(head);
    if (key.compare(0, at, head) != 0 || at >= key.size() ||
        !std::isdigit(static_cast<unsigned char>(key[at])))
        return false;
    char *end = nullptr;
    index = std::strtoull(key.c_str() + at, &end, 10);
    if (key[at] == '0' && end != key.c_str() + at + 1)
        return false;
    tail = end;
    return true;
}

}  // namespace

void
HostConfig::validate() const
{
    if (fpgaMhz <= 0.0)
        fatal("host: non-positive FPGA frequency");
    if (numPorts == 0)
        fatal("host: need at least one port");
    if (tagsPerPort == 0)
        fatal("host: need at least one tag per port");
    if (portFifoDepth == 0)
        fatal("host: need a request FIFO");
    if (requestsPerCyclePerLink == 0)
        fatal("host: controller must issue at least one request/cycle");
    if (deserializerFlitsPerCycle == 0 || deserializerPacketsPerCycle == 0)
        fatal("host: deserializer throughput must be nonzero");
    if (deserializerFlitBudgetCap < 16)
        fatal("host: deserializer flit budget cap must cover a max-size "
              "packet (16 flits)");
    if (deserializerPacketBudgetCap == 0)
        fatal("host: deserializer packet budget cap must be nonzero");
    if (streamWindow == 0 || streamDrainFlitsPerCycle == 0)
        fatal("host: stream window and drain rate must be nonzero");
    if (fixedLatencyNs < 0.0)
        fatal("host: negative fixed latency");
    if (workloadPorts > numPorts)
        fatal("host: more workload ports than ports");
    if (numHosts == 0)
        fatal("host: need at least one host controller");
    if (!entryCubes.empty() && entryCubes.size() != numHosts)
        fatal("host: entry cube list must match num_hosts");
    workload.validate();
    for (const PortWorkload &pw : portWorkloads) {
        if (pw.port >= numPorts)
            fatal("host: workload port out of range");
        pw.spec.validate();
    }
}

std::vector<CubeId>
HostConfig::resolvedEntryCubes(std::uint32_t num_cubes) const
{
    std::vector<CubeId> entries =
        entryCubes.empty() ? std::vector<CubeId>(numHosts, kEntryCubeAuto)
                           : entryCubes;
    for (HostId h = 0; h < entries.size(); ++h) {
        if (entries[h] == kEntryCubeAuto)
            entries[h] = static_cast<CubeId>(
                (static_cast<std::uint64_t>(h) * num_cubes) / numHosts);
        if (entries[h] >= num_cubes)
            fatal("host: host" + std::to_string(h) + " entry cube " +
                  std::to_string(entries[h]) + " beyond hmc.num_cubes");
    }
    for (HostId h = 0; h < entries.size(); ++h) {
        for (HostId g = h + 1; g < entries.size(); ++g) {
            if (entries[h] == entries[g])
                fatal("host: hosts " + std::to_string(h) + " and " +
                      std::to_string(g) + " share entry cube " +
                      std::to_string(entries[h]));
        }
    }
    return entries;
}

HostConfig
HostConfig::fromConfig(const Config &cfg)
{
    HostConfig c;
    fields(c, ConfigReader{cfg});
    // Per-host and per-port keys carry an index.  One scan finds them
    // and rejects an index beyond num_hosts / num_ports (e.g. 1-indexed
    // ids) instead of dropping the key.
    std::vector<bool> portHasWorkloadKey(c.numPorts, false);
    for (const std::string &key : cfg.keys()) {
        std::uint64_t n = 0;
        std::string_view tail;
        if (splitIndexedKey(key, kHostKeyHead, n, tail) &&
            tail == kEntryCubeKeyTail) {
            if (n >= c.numHosts)
                fatal("host: " + key + " pins host " + std::to_string(n) +
                      " but host.num_hosts is " +
                      std::to_string(c.numHosts));
            if (c.entryCubes.empty())
                c.entryCubes.assign(c.numHosts, kEntryCubeAuto);
            ConfigReader{cfg}(key.c_str(), c.entryCubes[n]);
        } else if (splitIndexedKey(key, kPortKeyHead, n, tail) &&
                   (tail == ".workload" || tail.rfind(".workload.", 0) == 0)) {
            if (n >= c.numPorts)
                fatal("host: " + key + " configures port " +
                      std::to_string(n) + " but host.num_ports is " +
                      std::to_string(c.numPorts));
            if (tail == ".workload")
                portHasWorkloadKey[n] = true;
        }
    }
    c.workload = WorkloadSpec::fromConfig(cfg, "host.", c.workload);
    for (PortId p = 0; p < c.numPorts; ++p) {
        if (portHasWorkloadKey[p])
            c.portWorkloads.push_back({p, c.workload});
    }
    c.portWorkloads = c.resolvedPortWorkloads();
    std::sort(c.portWorkloads.begin(), c.portWorkloads.end(),
              [](const PortWorkload &a, const PortWorkload &b) {
                  return a.port < b.port;
              });
    for (PortWorkload &pw : c.portWorkloads)
        pw.spec = WorkloadSpec::fromConfig(cfg, portPrefix(pw.port), c.workload);
    c.validate();
    return c;
}

std::vector<PortWorkload>
HostConfig::resolvedPortWorkloads() const
{
    std::vector<PortWorkload> out = portWorkloads;
    std::vector<bool> given(workloadPorts, false);
    for (const PortWorkload &pw : portWorkloads) {
        if (pw.port < workloadPorts)
            given[pw.port] = true;
    }
    for (PortId p = 0; p < workloadPorts; ++p) {
        if (!given[p])
            out.push_back({p, workload});
    }
    return out;
}

void
HostConfig::toConfig(Config &cfg) const
{
    fields(*this, ConfigWriter{cfg});
    for (HostId h = 0; h < entryCubes.size(); ++h) {
        if (entryCubes[h] != kEntryCubeAuto)
            cfg.setU64(kHostKeyHead + std::to_string(h) + kEntryCubeKeyTail,
                       entryCubes[h]);
    }
    workload.toConfig(cfg, "host.");
    for (const PortWorkload &pw : portWorkloads)
        pw.spec.toConfig(cfg, portPrefix(pw.port));
}

}  // namespace hmcsim
