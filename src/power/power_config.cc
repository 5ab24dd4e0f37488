#include "power/power_config.h"

#include "common/log.h"

namespace hmcsim {

namespace {

/** The "hmc.power_*" key list. */
template <typename C, typename F>
void
fields(C &c, const F &f)
{
    f("hmc.power_enabled", c.enabled);
    f("hmc.power_step_ps", c.stepInterval);

    f("hmc.power_dram_act_pj", c.energy.dramActivatePj);
    f("hmc.power_dram_pre_pj", c.energy.dramPrechargePj);
    f("hmc.power_dram_read_beat_pj", c.energy.dramReadBeatPj);
    f("hmc.power_dram_write_beat_pj", c.energy.dramWriteBeatPj);
    f("hmc.power_dram_refresh_pj", c.energy.dramRefreshPj);
    f("hmc.power_tsv_beat_pj", c.energy.tsvBeatPj);
    f("hmc.power_noc_flit_pj", c.energy.nocFlitHopPj);
    f("hmc.power_serdes_flit_pj", c.energy.serdesFlitPj);
    f("hmc.power_chain_forward_flit_pj", c.energy.chainForwardFlitPj);
    f("hmc.power_serdes_idle_w", c.energy.serdesIdleW);
    f("hmc.power_logic_idle_w", c.energy.logicIdleW);
    f("hmc.power_dram_idle_w_per_layer", c.energy.dramIdleWPerLayer);

    f("hmc.power_dram_layers", c.thermal.numDramLayers);
    f("hmc.power_ambient_c", c.thermal.ambientC);
    f("hmc.power_layer_resistance_k_per_w", c.thermal.layerResistanceKperW);
    f("hmc.power_sink_resistance_k_per_w", c.thermal.sinkResistanceKperW);
    f("hmc.power_layer_capacitance_j_per_k",
      c.thermal.layerCapacitanceJperK);

    f("hmc.power_throttle_enabled", c.throttle.enabled);
    f("hmc.power_throttle_on_c", c.throttle.onThresholdC);
    f("hmc.power_throttle_off_c", c.throttle.offThresholdC);
    f("hmc.power_throttle_levels", c.throttle.numLevels);
    f("hmc.power_throttle_max_slowdown", c.throttle.maxSlowdown);
}

}  // namespace

void
PowerConfig::validate() const
{
    if (stepInterval == 0)
        fatal("power: step interval must be positive");
    if (thermal.numDramLayers == 0)
        fatal("power: need at least one DRAM layer");
    if (thermal.layerResistanceKperW <= 0.0 ||
        thermal.sinkResistanceKperW <= 0.0)
        fatal("power: thermal resistances must be positive");
    if (thermal.layerCapacitanceJperK <= 0.0)
        fatal("power: thermal capacitance must be positive");
    if (throttle.numLevels == 0)
        fatal("power: throttle needs at least one level");
    if (throttle.maxSlowdown < 1.0)
        fatal("power: throttle max slowdown must be >= 1");
    if (throttle.offThresholdC > throttle.onThresholdC)
        fatal("power: throttle off threshold above on threshold "
              "(hysteresis band would be inverted)");
}

PowerConfig
PowerConfig::fromConfig(const Config &cfg)
{
    PowerConfig c;
    fields(c, ConfigReader{cfg});
    c.validate();
    return c;
}

void
PowerConfig::toConfig(Config &cfg) const
{
    fields(*this, ConfigWriter{cfg});
}

}  // namespace hmcsim
