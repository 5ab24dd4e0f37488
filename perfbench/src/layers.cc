#include "layers.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>

#include "chain/routing_policy.h"
#include "dram/vault_memory.h"
#include "hmc/address_map.h"
#include "hmc/packet.h"
#include "host/workload/workload_build.h"
#include "noc/network.h"
#include "noc/topology.h"
#include "sim/kernel.h"
#include "stats.h"

namespace perfbench {

using namespace hmcsim;

namespace {

/** Batches per layer timing, and the least wall time each takes. */
constexpr int kMinBatches = 5;
constexpr double kMinTimingSec = 0.15;

/** Defeats dead-code elimination of the timed calls. */
volatile std::uint64_t g_sink = 0;

/**
 * Median host ns per operation of @p batch, which performs and returns
 * its operation count, over at least kMinBatches batches and
 * kMinTimingSec of wall time.
 */
double
medianNsPerOp(const std::function<std::uint64_t()> &batch)
{
    std::vector<double> nsPerOp;
    double total = 0.0;
    while (static_cast<int>(nsPerOp.size()) < kMinBatches ||
           total < kMinTimingSec) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t ops = batch();
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        total += sec;
        nsPerOp.push_back(sec * 1e9 /
                          static_cast<double>(std::max<std::uint64_t>(ops, 1)));
    }
    return median(nsPerOp);
}

WorkloadSpec
port0Spec(const SystemConfig &cfg)
{
    for (const PortWorkload &pw : cfg.host.portWorkloads) {
        if (pw.port == 0)
            return pw.spec;
    }
    return cfg.host.workload;
}

/** Always-idle telemetry: every port wired, nothing queued. */
class IdleLoads : public ChainLoadProvider
{
  public:
    ChainPortLoad
    portLoad(ChainHop, LinkId) const override
    {
        ChainPortLoad l;
        l.wired = true;
        l.queueFreePackets = 16;
        return l;
    }
};

/** One event of a self-rescheduling chain (fits InlineEvent). */
struct ChainEvent {
    Kernel *kernel;
    std::uint64_t *left;
    Tick meanDelay;
    std::uint32_t state;

    void
    operator()()
    {
        if (*left == 0)
            return;
        --*left;
        state = state * 1664525u + 1013904223u;
        const Tick d = meanDelay / 2 + (state >> 8) % (meanDelay + 1);
        kernel->scheduleIn(d, ChainEvent(*this));
    }
};

}  // namespace

SourceSample
driveSource(const SystemConfig &cfg, std::size_t count)
{
    const WorkloadSpec spec = port0Spec(cfg);
    const AddressMap map(cfg.hmc);
    SourceSample out;
    out.requests.resize(count);
    // Building the source (e.g. a synthetic trace) is set-up, not
    // per-request cost: batches continue one source's stream.
    TrafficSourcePtr src = buildTrafficSource(spec, map, spec.seed);
    out.nsPerReq = medianNsPerOp([&] {
        std::uint64_t n = 0;
        for (WorkloadRequest &r : out.requests) {
            if (!src->next(0, r))
                break;
            ++n;
        }
        return n;
    });
    return out;
}

double
driveDecode(const SystemConfig &cfg, const std::vector<WorkloadRequest> &reqs)
{
    const AddressMap map(cfg.hmc);
    return medianNsPerOp([&] {
        std::uint64_t acc = 0;
        for (const WorkloadRequest &r : reqs) {
            const DecodedAddr d = map.decode(r.addr);
            acc += d.vault + d.bank + d.row + d.cube;
        }
        g_sink = g_sink + acc;
        return static_cast<std::uint64_t>(reqs.size());
    });
}

double
driveDramService(const SystemConfig &cfg,
                 const std::vector<WorkloadRequest> &reqs)
{
    const AddressMap map(cfg.hmc);
    const PagePolicy policy = pagePolicyFromString(cfg.hmc.pagePolicy);
    std::vector<DramAccess> accesses;
    accesses.reserve(reqs.size());
    for (const WorkloadRequest &r : reqs)
        accesses.push_back(map.toAccess(r.addr, r.bytes, r.isWrite));
    return medianNsPerOp([&] {
        Kernel kernel;
        VaultMemory mem(kernel, nullptr, "bench_vault", cfg.hmc.dramTiming(),
                        cfg.hmc.numBanksPerVault);
        Tick now = 0;
        for (const DramAccess &a : accesses)
            now = mem.service(a, now, policy).dataEnd;
        g_sink = g_sink + now;
        return static_cast<std::uint64_t>(accesses.size());
    });
}

NocSample
driveNoc(const SystemConfig &cfg, const std::vector<WorkloadRequest> &reqs)
{
    const HmcConfig &h = cfg.hmc;
    const AddressMap map(h);
    NocSample out;
    out.nsPerMsg = medianNsPerOp([&] {
        Kernel kernel;
        kernel.queue().configure(cfg.sim);
        Network net(kernel, nullptr, "bench_noc",
                    makeTopology(h.topology, h.numVaults, h.numQuadrants,
                                 h.numLinks),
                    h.noc);
        std::vector<std::deque<NocMessage>> pending(net.numEndpoints());
        std::uint64_t delivered = 0;
        auto pump = [&](NodeId ep) {
            std::deque<NocMessage> &q = pending[ep];
            while (!q.empty() && net.canInject(ep, q.front().flits)) {
                net.inject(ep, std::move(q.front()));
                q.pop_front();
            }
        };
        for (NodeId ep = 0; ep < net.numEndpoints(); ++ep) {
            Network::EndpointOps ops;
            ops.tryReserve = [](std::uint32_t) { return true; };
            ops.deliver = [&, ep](const NocMessage &m) {
                ++delivered;
                if (ep < h.numLinks)
                    return;
                // A vault answers: the response returns to the link the
                // request came from, injected from a fresh event as the
                // vault controller does.
                NocMessage resp;
                resp.id = m.id;
                resp.src = ep;
                resp.dst = m.src;
                const WorkloadRequest &r = reqs[m.id];
                resp.flits = HmcPacket::flitsFor(
                    r.isWrite ? HmcCmd::WriteResponse : HmcCmd::ReadResponse,
                    r.bytes);
                pending[ep].push_back(std::move(resp));
                kernel.scheduleIn(0, [&pump, ep] { pump(ep); });
            };
            ops.onInjectSpace = [&pump, ep] { pump(ep); };
            net.setEndpoint(ep, std::move(ops));
        }
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const WorkloadRequest &r = reqs[i];
            NocMessage m;
            m.id = i;
            m.src = static_cast<NodeId>(i % h.numLinks);
            m.dst = h.numLinks + map.decode(r.addr).vault;
            m.flits = HmcPacket::flitsFor(
                r.isWrite ? HmcCmd::Write : HmcCmd::Read, r.bytes);
            pending[m.src].push_back(std::move(m));
        }
        for (NodeId l = 0; l < h.numLinks; ++l)
            pump(l);
        const std::uint64_t events = kernel.run();
        out.eventsPerMsg = static_cast<double>(events) /
            static_cast<double>(std::max<std::uint64_t>(delivered, 1));
        return delivered;
    });
    return out;
}

double
driveChainRoute(const SystemConfig &cfg,
                const std::vector<WorkloadRequest> &reqs)
{
    const ChainParams &c = cfg.hmc.chain;
    const AddressMap map(cfg.hmc);
    const ChainRouteTable table(chainTopologyFromString(c.topology),
                                c.numCubes);
    AdaptiveRoutingParams ap;
    ap.thresholdFlits = c.adaptiveThresholdFlits;
    ap.misrouteThresholdFlits = c.adaptiveMisrouteThresholdFlits;
    ap.maxMisroutes = c.adaptiveMaxMisroutes;
    const auto policy =
        makeChainRoutingPolicy(chainRoutingFromString(c.routing), table, ap);
    const IdleLoads loads;
    std::vector<ChainPacketView> views;
    views.reserve(reqs.size());
    for (const WorkloadRequest &r : reqs) {
        ChainPacketView v;
        v.dest = map.decodeCube(r.addr);
        views.push_back(v);
    }
    return medianNsPerOp([&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < views.size(); ++i) {
            const CubeId at = static_cast<CubeId>(i % c.numCubes);
            acc += static_cast<unsigned>(
                policy->route(at, views[i], 0, loads).hop);
        }
        g_sink = g_sink + acc;
        return static_cast<std::uint64_t>(views.size());
    });
}

double
driveKernel(const SystemConfig &cfg, double eventsPerSimUs)
{
    // Concurrent event chains: enough that the queue holds a realistic
    // population of pending events rather than one.
    constexpr std::uint32_t kChains = 128;
    constexpr std::uint64_t kEvents = 500000;
    const double density = std::max(eventsPerSimUs, 1.0);
    const Tick meanDelay = static_cast<Tick>(
        static_cast<double>(kChains) * static_cast<double>(kMicrosecond) /
        density);
    return medianNsPerOp([&] {
        Kernel kernel;
        kernel.queue().configure(cfg.sim);
        std::uint64_t left = kEvents;
        for (std::uint32_t i = 0; i < kChains; ++i)
            kernel.scheduleIn(i, ChainEvent{&kernel, &left,
                                            std::max<Tick>(meanDelay, 1),
                                            i * 2654435761u});
        return kernel.run();
    });
}

}  // namespace perfbench
