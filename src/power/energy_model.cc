#include "power/energy_model.h"

#include <algorithm>

#include "common/log.h"

namespace hmcsim {

double
staticEnergyPj(double watts, Tick ticks)
{
    // 1 W = 1 J/s = 1 pJ/ps, and a tick is one picosecond.
    return watts * static_cast<double>(ticks);
}

EnergyModel::EnergyModel(const EnergyParams &params,
                         std::uint32_t num_dram_layers)
    : params_(params),
      layerPj_(num_dram_layers == 0 ? 1 : num_dram_layers, 0.0)
{
}

double
EnergyModel::perEventPj(PowerEvent ev) const
{
    switch (ev) {
      case PowerEvent::DramActivate: return params_.dramActivatePj;
      case PowerEvent::DramPrecharge: return params_.dramPrechargePj;
      case PowerEvent::DramReadBeat: return params_.dramReadBeatPj;
      case PowerEvent::DramWriteBeat: return params_.dramWriteBeatPj;
      case PowerEvent::DramRefresh: return params_.dramRefreshPj;
      case PowerEvent::TsvBeat: return params_.tsvBeatPj;
      case PowerEvent::NocFlitHop: return params_.nocFlitHopPj;
      case PowerEvent::SerdesFlit: return params_.serdesFlitPj;
      case PowerEvent::ChainForwardFlit:
        return params_.chainForwardFlitPj;
      case PowerEvent::kCount:
        break;
    }
    panic("EnergyModel: invalid power event");
}

void
EnergyModel::record(PowerEvent ev, std::uint64_t count)
{
    const auto i = static_cast<std::size_t>(ev);
    if (i >= kNumPowerEvents)
        panic("EnergyModel::record: invalid power event");
    counts_[i] += count;
    energyPj_[i] += perEventPj(ev) * static_cast<double>(count);
}

void
EnergyModel::recordAtLayer(PowerEvent ev, std::uint64_t count,
                           std::uint32_t dram_layer)
{
    record(ev, count);
    const std::size_t layer =
        std::min<std::size_t>(dram_layer, layerPj_.size() - 1);
    layerPj_[layer] += perEventPj(ev) * static_cast<double>(count);
}

std::uint64_t
EnergyModel::eventCount(PowerEvent ev) const
{
    return counts_[static_cast<std::size_t>(ev)];
}

double
EnergyModel::dynamicPj(PowerEvent ev) const
{
    return energyPj_[static_cast<std::size_t>(ev)];
}

double
EnergyModel::totalDynamicPj() const
{
    double total = 0.0;
    for (double e : energyPj_)
        total += e;
    return total;
}

double
EnergyModel::dramDynamicPj() const
{
    return dynamicPj(PowerEvent::DramActivate) +
        dynamicPj(PowerEvent::DramPrecharge) +
        dynamicPj(PowerEvent::DramReadBeat) +
        dynamicPj(PowerEvent::DramWriteBeat) +
        dynamicPj(PowerEvent::DramRefresh) +
        dynamicPj(PowerEvent::TsvBeat);
}

double
EnergyModel::logicDynamicPj() const
{
    return dynamicPj(PowerEvent::NocFlitHop) +
        dynamicPj(PowerEvent::SerdesFlit) +
        dynamicPj(PowerEvent::ChainForwardFlit);
}

double
EnergyModel::dramLayerAttributedPj(std::uint32_t layer) const
{
    if (layer >= layerPj_.size())
        panic("EnergyModel: DRAM layer out of range");
    return layerPj_[layer];
}

double
EnergyModel::logicStaticW() const
{
    return params_.serdesIdleW + params_.logicIdleW;
}

double
EnergyModel::dramStaticWPerLayer() const
{
    return params_.dramIdleWPerLayer;
}

double
EnergyModel::totalStaticW(std::uint32_t num_dram_layers) const
{
    return logicStaticW() + dramStaticWPerLayer() * num_dram_layers;
}

double
EnergyModel::windowEnergyPj(double dynamic_base_pj, Tick elapsed,
                            std::uint32_t num_dram_layers) const
{
    return totalDynamicPj() - dynamic_base_pj +
        staticEnergyPj(totalStaticW(num_dram_layers), elapsed);
}

}  // namespace hmcsim
