#include "power/thermal.hpp"

namespace pcd::power {

ThermalModel::ThermalModel(sim::Engine& engine, const NodePowerModel& node,
                           ThermalParams params, double sample_s)
    : engine_(engine),
      node_(node),
      params_(params),
      sample_interval_(sim::from_seconds(sample_s)),
      temp_c_(params.t0_c),
      peak_c_(params.t0_c) {}

void ThermalModel::start() {
  if (running_) return;
  running_ = true;
  started_ = engine_.now();
  last_sample_ = engine_.now();
  weighted_sum_c_ = 0;
  peak_c_ = temp_c_;
  next_tick_ =
      engine_.schedule_every(sample_interval_, [this] { tick(); }, "thermal.sample");
}

void ThermalModel::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

double ThermalModel::mean_c() const {
  const double span = sim::to_seconds(last_sample_ - started_);
  return span > 0 ? weighted_sum_c_ / span : temp_c_;
}

void ThermalModel::tick() {
  const double dt = sim::to_seconds(engine_.now() - last_sample_);
  // The CPU's current draw drives the junction toward T_inf.
  const double cpu_watts = node_.breakdown().cpu;
  const double t_inf = params_.ambient_c + params_.r_th_c_per_w * cpu_watts;
  const double decay = std::exp(-dt / params_.tau_s);
  const double new_temp = t_inf + (temp_c_ - t_inf) * decay;
  // Trapezoidal accumulation of the mean.
  weighted_sum_c_ += 0.5 * (temp_c_ + new_temp) * dt;
  temp_c_ = new_temp;
  peak_c_ = std::max(peak_c_, temp_c_);
  last_sample_ = engine_.now();
}

}  // namespace pcd::power
