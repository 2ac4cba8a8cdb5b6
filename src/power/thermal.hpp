// Thermal and reliability model.
//
// The paper motivates power-aware clusters partly through reliability
// (§1): "According to formula based on the Arrhenius Law, component life
// expectancy decreases 50% for every 10°C (18°F) temperature increase.
// Reducing a component's operating temperature the same amount doubles
// the life expectancy."
//
// This module closes that loop: a first-order RC thermal model tracks CPU
// temperature from the node's power draw, and the Arrhenius factor turns
// the run's average temperature into a life-expectancy multiplier — so
// DVS schedules can be compared on reliability as well as energy.
//
// The RC response to piecewise-constant power is solved exactly per
// segment:  T(t) = T_inf + (T0 - T_inf) * exp(-dt/tau),
// with T_inf = T_ambient + R_th * P.
#pragma once

#include <cmath>

#include "power/node_power.hpp"
#include "sim/engine.hpp"

namespace pcd::power {

struct ThermalParams {
  double ambient_c = 24.0;       // machine-room air
  double r_th_c_per_w = 1.4;     // CPU junction-to-air thermal resistance
  double tau_s = 12.0;           // thermal time constant (heatsink mass)
  double t0_c = 38.0;            // initial temperature
};

/// Per-node CPU thermal tracker.  Samples the CPU component of node power
/// on a fixed cadence and advances the RC model exactly per sample.
class ThermalModel {
 public:
  ThermalModel(sim::Engine& engine, const NodePowerModel& node,
               ThermalParams params = {}, double sample_s = 0.25);
  ~ThermalModel() { stop(); }

  ThermalModel(const ThermalModel&) = delete;
  ThermalModel& operator=(const ThermalModel&) = delete;

  void start();
  void stop();

  double temperature_c() const { return temp_c_; }
  double peak_c() const { return peak_c_; }
  /// Time-weighted mean temperature since start().
  double mean_c() const;

  /// Arrhenius life-expectancy multiplier relative to a reference
  /// temperature: 2^((t_ref - t) / 10).  >1 means longer expected life.
  static double arrhenius_life_factor(double mean_temp_c, double reference_c) {
    return std::exp2((reference_c - mean_temp_c) / 10.0);
  }

  const ThermalParams& params() const { return params_; }

 private:
  void tick();

  sim::Engine& engine_;
  const NodePowerModel& node_;
  ThermalParams params_;
  sim::SimDuration sample_interval_;

  bool running_ = false;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  double temp_c_;
  double peak_c_;
  double weighted_sum_c_ = 0;  // integral of T dt
  sim::SimTime started_ = 0;
  sim::SimTime last_sample_ = 0;
};

}  // namespace pcd::power
