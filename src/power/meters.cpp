#include "power/meters.hpp"

#include <algorithm>
#include <cmath>

namespace pcd::power {

namespace {
constexpr double kJoulesPerMwh = 3.6;  // 1 mWh = 3.6 J (paper §4.2)
}

AcpiBattery::AcpiBattery(sim::Engine& engine, NodePowerModel& node,
                         AcpiBatteryParams params, sim::Rng rng)
    : engine_(engine),
      node_(node),
      params_(params),
      rng_(rng),
      level_mwh_(params.capacity_mwh),
      reported_mwh_(params.capacity_mwh) {
  // Draw from the stored stream in the same order as before it was kept:
  // period first, then phase.  Garbage-sensor readings continue the stream
  // and perturb nothing else.
  const double period_s = rng_.uniform(params_.refresh_min_s, params_.refresh_max_s);
  refresh_period_ = sim::from_seconds(period_s);
  initial_phase_ = static_cast<sim::SimDuration>(rng_.uniform(0.0, period_s) * 1e9);
}

void AcpiBattery::recharge_full() {
  level_mwh_ = params_.capacity_mwh;
  drained_mwh_before_ = 0;
  if (!on_ac_) drained_joules_at_disconnect_ = node_.energy_joules();
  reported_mwh_ = quantize(true_remaining_mwh());
  depleted_at_.reset();  // fresh pack: re-arm the depletion callback
}

void AcpiBattery::disconnect_ac() {
  if (!on_ac_) return;
  on_ac_ = false;
  drained_joules_at_disconnect_ = node_.energy_joules();
}

void AcpiBattery::connect_ac() {
  if (on_ac_) return;
  drained_mwh_before_ +=
      (node_.energy_joules() - drained_joules_at_disconnect_) / kJoulesPerMwh;
  on_ac_ = true;
}

double AcpiBattery::true_remaining_mwh() const {
  double drained = drained_mwh_before_;
  if (!on_ac_) {
    drained += (node_.energy_joules() - drained_joules_at_disconnect_) / kJoulesPerMwh;
  }
  return std::max(0.0, level_mwh_ - drained);
}

void AcpiBattery::fail_capacity(double remaining_fraction) {
  const double keep = std::clamp(remaining_fraction, 0.0, 1.0);
  level_mwh_ -= true_remaining_mwh() * (1.0 - keep);
}

double AcpiBattery::quantize(double mwh) const {
  return std::floor(mwh / params_.quantum_mwh) * params_.quantum_mwh;
}

void AcpiBattery::start_polling() {
  if (polling_) return;
  polling_ = true;
  reported_mwh_ = quantize(true_remaining_mwh());
  // First refresh after the random phase, then strictly every refresh
  // period: one pooled wheel timer for the whole polling lifetime.
  next_tick_ =
      engine_.schedule_every(initial_phase_, refresh_period_, [this] { refresh_tick(); },
                             "acpi.refresh");
}

void AcpiBattery::stop_polling() {
  if (!polling_) return;
  polling_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

void AcpiBattery::refresh_tick() {
  switch (sensor_fault_) {
    case SensorFault::None:
      reported_mwh_ = quantize(true_remaining_mwh());
      break;
    case SensorFault::Stale:
      break;  // wedged driver: keep returning the last refreshed value
    case SensorFault::Garbage:
      reported_mwh_ = quantize(rng_.uniform(0.0, params_.capacity_mwh));
      break;
  }
  if (refreshes_ != nullptr) refreshes_->inc();
  if (!on_ac_ && !depleted_at_.has_value() && true_remaining_mwh() <= 0.0) {
    depleted_at_ = engine_.now();
    if (on_depleted_) on_depleted_();
  }
}

void AcpiBattery::attach_telemetry(telemetry::Hub* hub, int node_id) {
  if (hub == nullptr) {
    refreshes_ = nullptr;
    return;
  }
  hub->registry().set_help("acpi_refreshes_total",
                           "ACPI battery state refreshes served by the sensor model");
  refreshes_ = &hub->registry().counter("acpi_refreshes_total",
                                        telemetry::label("node", node_id));
}

BaytechStrip::BaytechStrip(sim::Engine& engine, std::vector<NodePowerModel*> outlets,
                           BaytechParams params)
    : engine_(engine), outlets_(std::move(outlets)), params_(params) {}

void BaytechStrip::start_polling() {
  if (polling_) return;
  polling_ = true;
  window_start_ = engine_.now();
  joules_at_window_start_.clear();
  for (auto* node : outlets_) joules_at_window_start_.push_back(node->energy_joules());
  next_tick_ =
      engine_.schedule_every(sim::from_seconds(params_.window_s), [this] { tick(); },
                             "baytech.window");
}

void BaytechStrip::stop_polling() {
  if (!polling_) return;
  polling_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

void BaytechStrip::tick() {
  if (dropout_) {
    // Management unit not answering: the window is lost, but keep the
    // accumulators current so the next good window averages correctly.
    for (std::size_t i = 0; i < outlets_.size(); ++i) {
      joules_at_window_start_[i] = outlets_[i]->energy_joules();
    }
    window_start_ = engine_.now();
    return;  // the periodic schedule keeps the window cadence
  }
  BaytechRecord rec;
  rec.window_end = engine_.now();
  const double window_s = sim::to_seconds(engine_.now() - window_start_);
  rec.avg_watts.resize(outlets_.size());
  for (std::size_t i = 0; i < outlets_.size(); ++i) {
    const double joules = outlets_[i]->energy_joules();
    rec.avg_watts[i] = (joules - joules_at_window_start_[i]) / window_s;
    joules_at_window_start_[i] = joules;
  }
  records_.push_back(std::move(rec));
  if (windows_ != nullptr) windows_->inc();
  window_start_ = engine_.now();
}

void BaytechStrip::attach_telemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    windows_ = nullptr;
    return;
  }
  hub->registry().set_help("baytech_windows_total",
                           "Completed Baytech power-strip averaging windows");
  windows_ = &hub->registry().counter("baytech_windows_total");
}

double BaytechStrip::estimate_energy_joules(sim::SimTime t0, sim::SimTime t1) const {
  // Sum avg_watts * overlap over every record window intersecting [t0, t1] —
  // the coarse estimate an operator would compute from the SNMP log.
  double joules = 0;
  const auto window = sim::from_seconds(params_.window_s);
  for (const auto& rec : records_) {
    const sim::SimTime w1 = rec.window_end;
    const sim::SimTime w0 = w1 - window;
    const sim::SimTime lo = std::max(t0, w0);
    const sim::SimTime hi = std::min(t1, w1);
    if (hi <= lo) continue;
    const double overlap_s = sim::to_seconds(hi - lo);
    for (double w : rec.avg_watts) joules += w * overlap_s;
  }
  return joules;
}

}  // namespace pcd::power
