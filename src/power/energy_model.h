/**
 * @file
 * Event-driven energy accounting.  Instrumented components report raw
 * event counts through the PowerProbe interface; this model converts
 * them into picojoules with the configured per-event energies and
 * splits the total into the groups the thermal stack needs (logic
 * layer vs. DRAM layers).  Static power is accounted separately as a
 * function of elapsed simulated time.
 */

#ifndef HMCSIM_POWER_ENERGY_MODEL_H_
#define HMCSIM_POWER_ENERGY_MODEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "power/power_config.h"
#include "power/power_probe.h"

namespace hmcsim {

class EnergyModel : public PowerProbe
{
  public:
    /**
     * @param num_dram_layers layers the bank -> layer attribution can
     *        target (recordAtLayer clamps to this)
     */
    explicit EnergyModel(const EnergyParams &params,
                         std::uint32_t num_dram_layers = 1);

    // ----- PowerProbe -----
    void record(PowerEvent ev, std::uint64_t count) override;
    void recordAtLayer(PowerEvent ev, std::uint64_t count,
                       std::uint32_t dram_layer) override;

    /** Events of class @p ev seen since construction (never reset). */
    std::uint64_t eventCount(PowerEvent ev) const;

    /** Cumulative dynamic energy of one event class, pJ. */
    double dynamicPj(PowerEvent ev) const;

    /** Cumulative dynamic energy over all event classes, pJ. */
    double totalDynamicPj() const;

    /**
     * Cumulative dynamic energy dissipated in the DRAM stack (bank
     * operations plus TSV transfers), pJ.
     */
    double dramDynamicPj() const;

    /** Cumulative dynamic energy in the logic layer (NoC + SerDes), pJ. */
    double logicDynamicPj() const;

    /**
     * Cumulative DRAM energy attributed to one layer via
     * recordAtLayer(), pJ.  Energy recorded without layer information
     * (e.g. TSV beats) is not included; the thermal step spreads that
     * remainder evenly.
     */
    double dramLayerAttributedPj(std::uint32_t layer) const;

    std::uint32_t numDramLayers() const
    {
        return static_cast<std::uint32_t>(layerPj_.size());
    }

    /** Static power burned in the logic layer (SerDes + logic), W. */
    double logicStaticW() const;

    /** Static power per DRAM layer, W. */
    double dramStaticWPerLayer() const;

    /** Total static power for @p num_dram_layers layers, W. */
    double totalStaticW(std::uint32_t num_dram_layers) const;

    /**
     * Total (dynamic + static) energy over a window of @p elapsed
     * ticks ending now, relative to dynamic baseline @p dynamic_base_pj.
     */
    double windowEnergyPj(double dynamic_base_pj, Tick elapsed,
                          std::uint32_t num_dram_layers) const;

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
    std::array<std::uint64_t, kNumPowerEvents> counts_{};
    std::array<double, kNumPowerEvents> energyPj_{};
    std::vector<double> layerPj_;

    double perEventPj(PowerEvent ev) const;
};

/** pJ of static energy for @p watts sustained over @p ticks. */
double staticEnergyPj(double watts, Tick ticks);

}  // namespace hmcsim

#endif  // HMCSIM_POWER_ENERGY_MODEL_H_
