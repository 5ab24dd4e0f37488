/**
 * @file
 * PowerModel: the component that ties the power subsystem together.
 *
 * It is the single PowerProbe every instrumented component reports
 * into, owns the EnergyModel / ThermalModel / ThrottleGovernor, and --
 * once start()ed -- steps periodically: interval energy is converted
 * into per-layer power, the RC stack is advanced, and the governor's
 * slowdown factor is pushed to the device through the throttle
 * applier callback (vault schedulers + SerDes links).
 *
 * Stepping is started by System, not by the device constructor, so
 * device-only unit tests keep a drainable event queue.
 */

#ifndef HMCSIM_POWER_POWER_MODEL_H_
#define HMCSIM_POWER_POWER_MODEL_H_

#include <functional>

#include "power/energy_model.h"
#include "power/power_config.h"
#include "power/throttle_governor.h"
#include "power/thermal_model.h"
#include "sim/component.h"

namespace hmcsim {

class PowerModel : public Component, public PowerProbe
{
  public:
    PowerModel(Kernel &kernel, Component *parent, std::string name,
               const PowerConfig &cfg);

    // ----- PowerProbe -----
    void record(PowerEvent ev, std::uint64_t count) override;
    void recordAtLayer(PowerEvent ev, std::uint64_t count,
                       std::uint32_t dram_layer) override;

    /**
     * Register the callback that applies a slowdown factor to the
     * device's timing (vault controllers, links).
     */
    void setThrottleApplier(std::function<void(double)> fn);

    /** Begin periodic thermal/governor stepping; idempotent. */
    void start();

    /**
     * One evaluation covering [last step, now]: accumulate interval
     * energy into layer power, advance the RC stack, run the governor,
     * and apply any throttle change.  Public so tests can drive the
     * loop without the periodic event.
     */
    void step();

    const PowerConfig &config() const { return cfg_; }
    const EnergyModel &energy() const { return energy_; }
    const ThermalModel &thermal() const { return thermal_; }
    const ThrottleGovernor &governor() const { return governor_; }

    /** Current timing stretch factor (1.0 = unthrottled). */
    double slowdown() const { return governor_.slowdown(); }

    /** Total energy since the last stats reset, pJ. */
    double windowEnergyPj() const;

    /** Fraction of the stats window spent throttled, in [0, 1]. */
    double throttledFraction() const;

    /** Average total power over the stats window, W. */
    double avgPowerW() const;

  protected:
    void listStats(StatList &s) const override;
    void resetOwnStats() override;

  private:
    PowerConfig cfg_;
    EnergyModel energy_;
    ThermalModel thermal_;
    ThrottleGovernor governor_;
    std::function<void(double)> applyThrottle_;
    bool started_ = false;

    Tick lastStepAt_ = 0;
    double lastDramPj_ = 0.0;
    double lastLogicPj_ = 0.0;
    std::vector<double> lastLayerPj_;

    // Stats-window bases (reset by resetOwnStats).
    Tick windowStartAt_ = 0;
    double windowBaseDynamicPj_ = 0.0;
    Tick throttledTicks_ = 0;

    void scheduleNext();
};

}  // namespace hmcsim

#endif  // HMCSIM_POWER_POWER_MODEL_H_
