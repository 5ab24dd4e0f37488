#include "host/system.h"

#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"

namespace hmcsim {

void
SystemConfig::validate() const
{
    hmc.validate();
    host.validate();
    obs.validate();
    sim.validate();
    if (host.numHosts > 1) {
        if (hmc.chain.numCubes < host.numHosts)
            fatal("system: " + std::to_string(host.numHosts) +
                  " hosts need at least as many cubes "
                  "(hmc.num_cubes = " +
                  std::to_string(hmc.chain.numCubes) + ")");
        if (chainTopologyFromString(hmc.chain.topology) ==
            ChainTopology::Star)
            fatal("system: star topologies cannot route responses "
                  "between cubes; multi-host needs daisy or ring");
    }
    if (chainTopologyFromString(hmc.chain.topology) ==
        ChainTopology::Star) {
        // Star links rotate over the cubes (link l serves cube l % N);
        // there is no entry-cube attachment to pin, so an explicit
        // entry would be silently ignored -- reject it instead.
        for (CubeId e : host.entryCubes) {
            if (e != kEntryCubeAuto)
                fatal("system: star topologies have no entry cubes to "
                      "pin (host links rotate over all cubes)");
        }
    }
    // Resolves the even spread and checks bounds / distinctness.
    host.resolvedEntryCubes(hmc.chain.numCubes);
}

SystemConfig
SystemConfig::fromConfig(const Config &cfg)
{
    SystemConfig c;
    c.hmc = HmcConfig::fromConfig(cfg);
    c.host = HostConfig::fromConfig(cfg);
    c.obs = ObsConfig::fromConfig(cfg);
    c.sim = SimConfig::fromConfig(cfg);
    return c;
}

void
SystemConfig::toConfig(Config &cfg) const
{
    hmc.toConfig(cfg);
    host.toConfig(cfg);
    obs.toConfig(cfg);
    sim.toConfig(cfg);
}

namespace {

/** Plain root node for the component tree. */
class RootComponent : public Component
{
  public:
    RootComponent(Kernel &kernel) : Component(kernel, nullptr, "system") {}
};

}  // namespace

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    entryCubes_ = cfg_.host.resolvedEntryCubes(cfg_.hmc.chain.numCubes);
    // The calendar geometry is set before anything can schedule; it
    // trades only wall-clock speed, never event order (guarded by
    // tests/sim + tests/host identity tests), so this cannot affect
    // simulation results.
    kernel_.queue().configure(cfg_.sim);
    // Published on the kernel before the tree is built so components
    // can register metrics / cache tracer pointers in their ctors.
    // With all obs.* knobs off the layer is never constructed and
    // kernel().obs() stays null everywhere.
    if (cfg_.obs.anyEnabled()) {
        obs_ = std::make_unique<Observability>(cfg_.obs);
        kernel_.setObservability(obs_.get());
    }
    root_ = std::make_unique<RootComponent>(kernel_);
    if (cfg_.hmc.chain.numCubes == 1) {
        // Classic single-cube construction, kept verbatim so default
        // configs stay bit-identical to a pre-chain build.
        cube_ = std::make_unique<HmcDevice>(kernel_, root_.get(), "hmc",
                                            cfg_.hmc);
    } else {
        chain_ = std::make_unique<CubeNetwork>(kernel_, root_.get(),
                                               "chain", cfg_.hmc,
                                               entryCubes_);
    }
    const bool multi_host = cfg_.host.numHosts > 1;
    for (HostId h = 0; h < cfg_.host.numHosts; ++h) {
        // The single-host fabric keeps its historic "fpga" component
        // name (and thus stat namespace); multi-host fabrics get one
        // "host<H>" namespace each so no two controllers' counters
        // can ever collapse into one stat key.
        const std::string name =
            multi_host ? "host" + std::to_string(h) : "fpga";
        hosts_.push_back(std::make_unique<Fpga>(kernel_, root_.get(),
                                                name, hostConfigFor(h),
                                                makeAttach(h)));
    }
    for (auto &host : hosts_)
        host->start();
    for (CubeId c = 0; c < numCubes(); ++c) {
        if (PowerModel *pm = device(c).powerModel())
            pm->start();
    }
    // Config-driven workloads (host.workload_ports / host.port<N>.*),
    // replicated onto every host; explicit workload seeds are
    // re-mixed per host so the fabrics issue decorrelated streams
    // (seed-0 specs already decorrelate through the per-host
    // HostConfig seed).
    for (HostId h = 0; h < numHosts(); ++h) {
        for (const PortWorkload &pw : cfg_.host.portWorkloads) {
            WorkloadSpec spec = pw.spec;
            if (h > 0 && spec.seed != 0)
                spec.seed = mixSeeds(spec.seed, kHostSeedStream + h);
            hosts_[h]->configureWorkload(pw.port, spec);
        }
    }
    if (obs_) {
        if (AnatomyCollector *a = obs_->anatomy()) {
            // The topology-derived cost of one empty-queue chain hop:
            // switch pass-through + SerDes + wire, plus per-flit
            // serialization at the link rate.  The anatomy engine uses
            // it to split chain forwarding into floor vs queueing.
            const Tick per_hop_fixed = cfg_.hmc.chain.passThroughLatency +
                                       cfg_.hmc.serdesLatency +
                                       cfg_.hmc.linkWireLatency;
            const Tick per_flit = serializationTicks(
                kFlitBytes, cfg_.hmc.linkGbps, cfg_.hmc.lanesPerLink);
            a->setChainHopFloor(per_hop_fixed, per_flit);
        }
        obs_->startSampler(kernel_);
    }
}

HostConfig
System::hostConfigFor(HostId h) const
{
    HostConfig hc = cfg_.host;
    if (h > 0)
        hc.seed = mixSeeds(hc.seed, kHostSeedStream + h);
    return hc;
}

HostAttach
System::makeAttach(HostId h)
{
    HostAttach a;
    a.hostId = h;
    a.numCubes = numCubes();
    a.totalCapacityBytes = cfg_.hmc.totalCapacityBytes();
    a.map = &addressMap();
    if (cube_) {
        for (LinkId l = 0; l < cfg_.hmc.numLinks; ++l) {
            a.links.push_back(&cube_->link(l));
            a.linkCube.push_back(kCubeAll);
        }
        a.cubes.push_back(cube_.get());
        return a;
    }
    for (LinkId l = 0; l < chain_->numHostLinks(); ++l) {
        a.links.push_back(&chain_->hostLink(l, h));
        a.linkCube.push_back(chain_->hostLinkCube(l, h));
    }
    // Entry spreading needs interchangeable entry links; a star link
    // reaches exactly one cube, so star keeps the static rotation.
    a.adaptiveEntry =
        chain_->routingMode() == ChainRoutingMode::Adaptive &&
        chain_->routes().topology() != ChainTopology::Star;
    for (CubeId c = 0; c < numCubes(); ++c)
        a.cubes.push_back(&chain_->cube(c));
    return a;
}

HmcDevice &
System::device(CubeId c)
{
    if (cube_) {
        if (c != 0)
            panic("System::device: single-cube system");
        return *cube_;
    }
    return chain_->cube(c);
}

Fpga &
System::fpga(HostId h)
{
    if (h >= hosts_.size())
        panic("System::fpga: host out of range");
    return *hosts_[h];
}

CubeId
System::hostEntryCube(HostId h) const
{
    if (h >= entryCubes_.size())
        panic("System::hostEntryCube: host out of range");
    return entryCubes_[h];
}

const AddressMap &
System::addressMap() const
{
    return cube_ ? cube_->addressMap() : chain_->cube(0).addressMap();
}

void
System::run(Tick duration)
{
    kernel_.run(kernel_.now() + duration);
}

bool
System::runUntilIdle(Tick max_duration)
{
    const auto all_idle = [this] {
        for (const auto &host : hosts_) {
            if (!host->allPortsIdle())
                return false;
        }
        return true;
    };
    const Tick deadline = kernel_.now() + max_duration;
    kernel_.runUntil(all_idle, deadline);
    return all_idle();
}

void
System::resetStats()
{
    root_->resetStats();
}

ExperimentResult
System::measure(Tick duration)
{
    resetStats();
    const Tick begin = kernel_.now();
    run(duration);
    return collectResult(*this, kernel_.now() - begin);
}

std::map<std::string, double>
System::stats() const
{
    std::map<std::string, double> out;
    root_->reportStats(out);
    return out;
}

}  // namespace hmcsim
