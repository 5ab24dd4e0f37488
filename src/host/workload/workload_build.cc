#include "host/workload/workload_build.h"

#include <utility>

#include "common/log.h"
#include "common/strutil.h"
#include "host/host_config.h"
#include "host/workload/sources.h"

namespace hmcsim {

namespace {

AddressPattern
confinement(const WorkloadSpec &spec, const AddressMap &map)
{
    return map.pattern(spec.patternVaults, spec.patternBanks,
                       spec.baseVault, spec.baseBank);
}

TrafficSourcePtr
buildLeaf(const WorkloadSpec &spec, const std::string &type,
          const AddressMap &map, std::uint64_t seed)
{
    if (type == "gups") {
        GupsSource::Params p;
        p.gen.mode = addrModeFromString(spec.gupsMode);
        p.gen.pattern = confinement(spec, map);
        p.gen.requestBytes = spec.requestBytes;
        p.gen.capacity = map.totalCapacity();
        p.gen.seed = seed;
        p.writeFraction = spec.writeFraction;
        return std::make_unique<GupsSource>(p);
    }
    if (type == "stride") {
        StrideSource::Params p;
        p.base = spec.strideBase;
        p.strideBytes = spec.strideBytes;
        p.requestBytes = spec.requestBytes;
        p.spanBytes = spec.strideSpanBytes != 0 ? spec.strideSpanBytes
                                                : map.totalCapacity();
        p.writeFraction = spec.writeFraction;
        p.seed = seed;
        return std::make_unique<StrideSource>(p);
    }
    if (type == "zipf") {
        ZipfSource::Params p;
        if (spec.zipfDomain == "vault") {
            const std::uint32_t vaults = 1u << map.vaultBits();
            for (VaultId v = 0; v < vaults; ++v)
                p.targets.push_back(map.vaultPattern(v));
        } else if (spec.zipfDomain == "cube") {
            for (CubeId c = 0; c < map.numCubes(); ++c)
                p.targets.push_back(map.cubePattern(c));
        } else {  // block: hot blocks inside the confinement pattern
            p.targets.push_back(confinement(spec, map));
            p.hotItems = spec.zipfHotItems;
        }
        p.theta = spec.zipfTheta;
        p.capacity = map.totalCapacity();
        p.requestBytes = spec.requestBytes;
        p.writeFraction = spec.writeFraction;
        p.seed = seed;
        return std::make_unique<ZipfSource>(p);
    }
    if (type == "trace") {
        TraceSource::Params p;
        if (!spec.traceFile.empty()) {
            p.trace = loadTraceFile(spec.traceFile);
        } else {
            Rng rng(seed);
            p.trace = makeRandomTrace(rng, confinement(spec, map),
                                      map.totalCapacity(),
                                      spec.traceLength, spec.requestBytes,
                                      spec.writeFraction);
        }
        p.loop = spec.traceLoop;
        return std::make_unique<TraceSource>(std::move(p));
    }
    fatal("workload: '" + type + "' cannot be nested here");
}

}  // namespace

TrafficSourcePtr
buildTrafficSource(const WorkloadSpec &spec, const AddressMap &map,
                   std::uint64_t seed)
{
    spec.validate();
    if (spec.type == "burst") {
        OnOffSource::Params p;
        p.inner = buildLeaf(spec, spec.burstInner, map,
                            mixSeeds(seed, 0x1001u));
        p.burstLen = spec.burstLen;
        p.gapNs = spec.burstGapNs;
        p.randomize = spec.burstJitter;
        p.seed = seed;
        return std::make_unique<OnOffSource>(std::move(p));
    }
    if (spec.type == "mix") {
        MixSource::Params p;
        const std::vector<std::string> phases = split(spec.mixPhases, ',');
        std::uint64_t i = 0;
        for (const std::string &raw : phases) {
            const std::string entry = trim(raw);
            if (entry.empty())
                continue;
            const std::size_t colon = entry.find(':');
            if (colon == std::string::npos)
                fatal("workload: mix phase '" + entry +
                      "' needs type:duration");
            MixSource::Phase ph;
            ph.source = buildLeaf(spec, trim(entry.substr(0, colon)), map,
                                  mixSeeds(seed, 0x2000u + i));
            ph.duration = parseDurationTicks(trim(entry.substr(colon + 1)));
            p.phases.push_back(std::move(ph));
            ++i;
        }
        if (p.phases.empty())
            fatal("workload: mix_phases parsed to nothing");
        p.loop = true;
        return std::make_unique<MixSource>(std::move(p));
    }
    return buildLeaf(spec, spec.type, map, seed);
}

WorkloadPort::Params
buildWorkloadParams(const WorkloadSpec &spec, const AddressMap &map,
                    const HostConfig &host, PortId port,
                    std::optional<Trace> trace)
{
    spec.validate();
    WorkloadPort::Params p;
    if (trace) {
        if (spec.type != "trace")
            fatal("workload: a given trace needs workload type 'trace', "
                  "not '" + spec.type + "'");
        p.source = std::make_unique<TraceSource>(
            TraceSource::Params{std::move(*trace), spec.traceLoop});
    } else {
        p.source = buildTrafficSource(
            spec, map, spec.seed != 0 ? spec.seed : mixSeeds(host.seed, port));
    }
    p.kind = spec.kind;
    p.inject.mode = injectModeFromString(spec.inject);
    p.inject.window = spec.window;
    p.inject.batchSize = spec.batchSize;
    p.inject.ratePerNs = spec.ratePerNs;
    p.inject.burstiness = spec.burstiness;
    // Trace replay keeps the stream firmware's response-path model;
    // generated traffic keeps the GUPS firmware's immediate drain.
    if (spec.type == "trace") {
        p.drainFlitsPerCycle = host.streamDrainFlitsPerCycle;
        if (p.inject.window == 0)
            p.inject.window = host.streamWindow;
    }
    return p;
}

}  // namespace hmcsim
