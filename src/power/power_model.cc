#include "power/power_model.h"

#include <algorithm>

#include "common/log.h"
#include "obs/metrics.h"
#include "sim/kernel.h"

namespace hmcsim {

PowerModel::PowerModel(Kernel &kernel, Component *parent, std::string name,
                       const PowerConfig &cfg)
    : Component(kernel, parent, std::move(name)), cfg_(cfg),
      energy_(cfg.energy, cfg.thermal.numDramLayers), thermal_(cfg.thermal),
      governor_(cfg.throttle), lastLayerPj_(cfg.thermal.numDramLayers, 0.0)
{
    cfg_.validate();
    lastStepAt_ = now();
    windowStartAt_ = now();
}

void
PowerModel::record(PowerEvent ev, std::uint64_t count)
{
    energy_.record(ev, count);
}

void
PowerModel::recordAtLayer(PowerEvent ev, std::uint64_t count,
                          std::uint32_t dram_layer)
{
    energy_.recordAtLayer(ev, count, dram_layer);
}

void
PowerModel::setThrottleApplier(std::function<void(double)> fn)
{
    applyThrottle_ = std::move(fn);
}

void
PowerModel::start()
{
    if (started_ || !cfg_.enabled)
        return;
    started_ = true;
    lastStepAt_ = now();
    scheduleNext();
}

void
PowerModel::scheduleNext()
{
    kernel().scheduleIn(cfg_.stepInterval, [this] {
        step();
        scheduleNext();
    });
}

void
PowerModel::step()
{
    const Tick dt = now() - lastStepAt_;
    if (dt == 0)
        return;

    // Interval dynamic energy -> average power.  pJ per ps is exactly
    // watts, so the division needs no unit constant.
    const double dram_pj = energy_.dramDynamicPj();
    const double logic_pj = energy_.logicDynamicPj();
    const double dt_d = static_cast<double>(dt);
    const std::uint32_t layers = cfg_.thermal.numDramLayers;

    std::vector<double> power_w(1 + layers);
    power_w[0] =
        (logic_pj - lastLogicPj_) / dt_d + energy_.logicStaticW();

    // Bank events carry a die attribution (bank -> layer mapping);
    // whatever arrived without one (TSV beats, direct record() calls)
    // is spread evenly so aggregate-only probes behave as before.
    double attributed_delta = 0.0;
    std::vector<double> layer_delta(layers, 0.0);
    for (std::uint32_t l = 0; l < layers; ++l) {
        layer_delta[l] =
            energy_.dramLayerAttributedPj(l) - lastLayerPj_[l];
        attributed_delta += layer_delta[l];
    }
    const double spread_w =
        (dram_pj - lastDramPj_ - attributed_delta) / (dt_d * layers);
    for (std::uint32_t l = 0; l < layers; ++l) {
        power_w[1 + l] = layer_delta[l] / dt_d + spread_w +
            energy_.dramStaticWPerLayer();
    }

    thermal_.step(power_w, dt_d * 1e-12);

    // Attribute the elapsed interval to the level that was in effect
    // while it ran, then evaluate the governor for the next one.  The
    // attribution is clipped to the stats window: a reset can land
    // mid-interval, and time before it belongs to the previous window.
    if (governor_.throttling())
        throttledTicks_ += now() - std::max(lastStepAt_, windowStartAt_);
    if (governor_.update(thermal_.maxTemperatureC()) && applyThrottle_)
        applyThrottle_(governor_.slowdown());

    lastStepAt_ = now();
    lastDramPj_ = dram_pj;
    lastLogicPj_ = logic_pj;
    for (std::uint32_t l = 0; l < layers; ++l)
        lastLayerPj_[l] = energy_.dramLayerAttributedPj(l);
}

double
PowerModel::windowEnergyPj() const
{
    return energy_.windowEnergyPj(windowBaseDynamicPj_,
                                  now() - windowStartAt_,
                                  cfg_.thermal.numDramLayers);
}

double
PowerModel::throttledFraction() const
{
    const Tick window = now() - windowStartAt_;
    if (window == 0)
        return 0.0;
    Tick throttled = throttledTicks_;
    if (governor_.throttling())
        throttled += now() - std::max(lastStepAt_, windowStartAt_);
    return static_cast<double>(throttled) / static_cast<double>(window);
}

double
PowerModel::avgPowerW() const
{
    const Tick window = now() - windowStartAt_;
    if (window == 0)
        return 0.0;
    return windowEnergyPj() / static_cast<double>(window);
}

void
PowerModel::listStats(StatList &s) const
{
    s.gauge("energy_pj", [this] { return windowEnergyPj(); });
    s.gauge("energy_dynamic_pj", [this] {
        return energy_.totalDynamicPj() - windowBaseDynamicPj_;
    });
    s.gauge("avg_power_w", [this] { return avgPowerW(); });
    s.gauge("temp_c", [this] { return thermal_.maxTemperatureC(); });
    for (std::size_t l = 0; l < thermal_.numLayers(); ++l) {
        const std::string label = l == 0
            ? std::string("temp_logic_c")
            : "temp_dram" + std::to_string(l - 1) + "_c";
        s.gauge(label, [this, l] { return thermal_.temperatureC(l); });
    }
    s.gauge("throttle_pct", [this] { return 100.0 * throttledFraction(); });
    s.gauge("throttle_level",
            [this] { return static_cast<double>(governor_.level()); });
    s.gauge("slowdown", [this] { return slowdown(); });
}

void
PowerModel::resetOwnStats()
{
    windowStartAt_ = now();
    windowBaseDynamicPj_ = energy_.totalDynamicPj();
    throttledTicks_ = 0;
}

}  // namespace hmcsim
