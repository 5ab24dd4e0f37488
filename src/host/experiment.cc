#include "host/experiment.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"
#include "host/system.h"

namespace hmcsim {

double
ExperimentResult::accessesPerSec() const
{
    if (windowTicks == 0)
        return 0.0;
    return static_cast<double>(totalReads + totalWrites) /
        (static_cast<double>(windowTicks) * 1e-12);
}

double
ExperimentResult::acceptedPerNs() const
{
    if (windowTicks == 0)
        return 0.0;
    return static_cast<double>(totalReads + totalWrites) /
        ticksToNs(windowTicks);
}

double
ExperimentResult::offeredPerNs() const
{
    if (windowTicks == 0)
        return 0.0;
    return totalOfferedRequests / ticksToNs(windowTicks);
}

double
ExperimentResult::chainTransitGBs() const
{
    if (windowTicks == 0)
        return 0.0;
    return bytesPerTickToGBs(
        static_cast<double>(totalChainTransitFlits) * kFlitBytes,
        windowTicks);
}

double
ExperimentResult::chainBisectionTrafficGBs() const
{
    if (windowTicks == 0)
        return 0.0;
    return bytesPerTickToGBs(
        static_cast<double>(chainBisectionFlits) * kFlitBytes,
        windowTicks);
}

ExperimentResult
collectResult(System &sys, Tick window_ticks)
{
    ExperimentResult r;
    r.windowTicks = window_ticks;
    SampleStats hops;
    std::unique_ptr<Histogram> merged_lat;
    bool lat_hist_complete = true;
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        HostStats hs;
        hs.host = h;
        hs.entryCube = sys.hostEntryCube(h);
        SampleStats host_read;
        for (PortId p = 0; p < sys.fpga(h).numPorts(); ++p) {
            const WorkloadPort &port = sys.portAt(h, p);
            const double offered = port.offeredRequests();
            r.totalOfferedRequests += offered;
            hs.offeredRequests += offered;
            const Monitor &m = port.monitor();
            if (m.accesses() == 0)
                continue;
            PortStats ps;
            ps.host = h;
            ps.port = p;
            ps.offeredRequests = offered;
            ps.reads = m.reads();
            ps.writes = m.writes();
            ps.wireBytes = m.wireBytes();
            ps.avgReadNs = m.readLatencyNs().mean();
            ps.minReadNs = m.readLatencyNs().min();
            ps.maxReadNs = m.readLatencyNs().max();
            ps.stddevReadNs = m.readLatencyNs().stddev();
            ps.bandwidthGBs = bytesPerTickToGBs(
                static_cast<double>(ps.wireBytes), window_ticks);
            r.totalReads += ps.reads;
            r.totalWrites += ps.writes;
            r.totalWireBytes += ps.wireBytes;
            hs.reads += ps.reads;
            hs.writes += ps.writes;
            hs.wireBytes += ps.wireBytes;
            host_read.merge(m.readLatencyNs());
            r.mergedRead.merge(m.readLatencyNs());
            hops.merge(m.chainHops());
            if (r.chainHopCounts.empty())
                r.chainHopCounts.assign(m.chainHopHistogram().bins(), 0);
            for (std::size_t i = 0; i < r.chainHopCounts.size(); ++i)
                r.chainHopCounts[i] += m.chainHopHistogram().count(i);
            // p99 needs every port that recorded reads to carry a
            // same-shaped latency histogram; a partial set would skew
            // the tail silently.  Write-only ports contribute no read
            // samples and cannot disqualify the merge.
            if (const Histogram *hist = m.histogram()) {
                if (!merged_lat)
                    merged_lat = std::make_unique<Histogram>(
                        hist->lo(), hist->hi(), hist->bins());
                if (hist->lo() == merged_lat->lo() &&
                    hist->hi() == merged_lat->hi() &&
                    hist->bins() == merged_lat->bins())
                    merged_lat->merge(*hist);
                else
                    lat_hist_complete = false;
            } else if (ps.reads != 0) {
                lat_hist_complete = false;
            }
            r.ports.push_back(ps);
        }
        const HmcHostController &ctrl = sys.fpga(h).controller();
        hs.requestsSent = ctrl.requestsSent();
        hs.responsesDelivered = ctrl.responsesDelivered();
        hs.bandwidthGBs = bytesPerTickToGBs(
            static_cast<double>(hs.wireBytes), window_ticks);
        hs.avgReadNs = host_read.mean();
        r.hosts.push_back(hs);
    }
    if (merged_lat && lat_hist_complete)
        r.p99ReadLatencyNs = merged_lat->percentile(99.0);
    r.bandwidthGBs = bytesPerTickToGBs(
        static_cast<double>(r.totalWireBytes), window_ticks);
    r.avgChainHops = hops.mean();

    for (CubeId c = 0; c < sys.numCubes(); ++c) {
        CubeStats cs;
        cs.cube = c;
        cs.requestsServed = sys.device(c).totalRequestsServed();
        for (HostId h = 0; h < sys.numHosts(); ++h) {
            const HmcHostController &ctrl = sys.fpga(h).controller();
            if (sys.numCubes() > 1) {
                cs.requestsSent += ctrl.requestsSentToCube(c);
                cs.peakOutstanding += ctrl.peakOutstandingToCube(c);
            } else {
                cs.requestsSent += ctrl.requestsSent();
            }
        }
        if (CubeNetwork *chain = sys.chain()) {
            if (c == 0) {
                r.totalChainTransitFlits = chain->totalForwardedFlits();
                r.chainBisectionGBs = chain->bisectionBandwidthGBs();
                r.chainBisectionFlits = std::max(
                    chain->bisectionFlitsSent(LinkDir::HostToCube),
                    chain->bisectionFlitsSent(LinkDir::CubeToHost));
            }
            cs.requestHops = chain->routes().requestHops(c);
            if (const ChainSwitch *sw = chain->switchAt(c)) {
                cs.misroutes = sw->misroutes();
                cs.rxHolStalls = sw->rxHolStalls();
                r.totalAdaptiveDeviations += sw->adaptiveDeviations();
                r.totalChainMisroutes += cs.misroutes;
                r.totalRxHolStalls += cs.rxHolStalls;
            }
        }
        if (const PowerModel *pm = sys.device(c).powerModel()) {
            cs.energyPj = pm->windowEnergyPj();
            cs.maxTempC = pm->thermal().maxTemperatureC();
            r.energyPj += pm->windowEnergyPj();
            r.avgPowerW += pm->avgPowerW();
            r.maxTempC = std::max(r.maxTempC,
                                  pm->thermal().maxTemperatureC());
            r.throttlePct = std::max(r.throttlePct,
                                     100.0 * pm->throttledFraction());
        }
        r.cubes.push_back(cs);
    }
    r.avgReadLatencyNs = r.mergedRead.mean();
    r.minReadLatencyNs = r.mergedRead.min();
    r.maxReadLatencyNs = r.mergedRead.max();
    r.stddevReadLatencyNs = r.mergedRead.stddev();
    return r;
}

ExperimentResult
runPoint(const SystemConfig &cfg, Tick warmup, Tick window)
{
    System sys(cfg);
    sys.run(warmup);
    return sys.measure(window);
}

void
addWorkloadPorts(SystemConfig &cfg, std::uint32_t ports, WorkloadSpec w,
                 std::uint64_t seed)
{
    for (PortId p = 0; p < ports; ++p) {
        w.seed = seed + p;
        cfg.host.portWorkloads.push_back({p, w});
    }
}

ExperimentResult
runWorkload(const SystemConfig &cfg, const WorkloadRunSpec &spec)
{
    if (spec.activePorts == 0 || spec.activePorts > cfg.host.numPorts)
        fatal("runWorkload: active port count out of range");
    System sys(cfg);
    // Multi-host systems replicate the workload onto every host with
    // host-decorrelated seeds; host 0 keeps the exact single-host
    // streams.
    for (HostId h = 0; h < sys.numHosts(); ++h) {
        for (PortId p = 0; p < spec.activePorts; ++p) {
            WorkloadSpec w = spec.workload;
            if (w.seed == 0)
                w.seed = mixSeeds(spec.seed, p);
            if (h > 0)
                w.seed = mixSeeds(w.seed, kHostSeedStream + h);
            sys.configureWorkloadAt(h, p, w);
            if (spec.latencyHistBins != 0)
                sys.portAt(h, p).monitor().enableHistogram(
                    spec.latencyHistLoNs, spec.latencyHistHiNs,
                    spec.latencyHistBins);
        }
    }
    sys.run(spec.warmup);
    return sys.measure(spec.window);
}

}  // namespace hmcsim
