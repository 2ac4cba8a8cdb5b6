#include "core/predictor.hpp"

#include <algorithm>

namespace pcd::core {

PhasePredictorDaemon::PhasePredictorDaemon(sim::Engine& engine, machine::Node& node,
                                           PhasePredictorParams params,
                                           sim::SimDuration start_offset)
    : engine_(engine), node_(node), params_(params), start_offset_(start_offset) {}

void PhasePredictorDaemon::start() {
  if (running_) return;
  running_ = true;
  last_busy_ns_ = node_.cpu().busy_weighted_ns();
  next_tick_ =
      engine_.schedule_every(start_offset_ + sim::from_seconds(params_.interval_s),
                             sim::from_seconds(params_.interval_s), [this] { tick(); },
                             "predictor.tick");
}

void PhasePredictorDaemon::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

int PhasePredictorDaemon::mixed_frequency(const cpu::OperatingPointTable& table,
                                          double utilization, double max_slowdown) {
  // A window with utilization u has a CPU-bound share of roughly u; running
  // at frequency f stretches that share by (f_max/f - 1).  Projected delay
  // increase = u * (f_max/f - 1); pick the lowest f within the budget.
  const int f_max = table.highest().freq_mhz;
  for (const auto& op : table.points()) {  // ascending frequency
    const double stretch = static_cast<double>(f_max) / op.freq_mhz - 1.0;
    if (utilization * stretch <= max_slowdown) return op.freq_mhz;
  }
  return f_max;
}

void PhasePredictorDaemon::tick() {
  ++polls_;
  const double busy = node_.cpu().busy_weighted_ns();
  const double usage =
      std::clamp((busy - last_busy_ns_) / (params_.interval_s * 1e9), 0.0, 1.0);
  last_busy_ns_ = busy;

  Phase seen = Phase::Mixed;
  if (usage >= params_.high_util) {
    seen = Phase::Compute;
  } else if (usage < params_.low_util) {
    seen = Phase::Slack;
  }

  // Hysteresis: require agreement before switching the confirmed phase —
  // except *into* Compute, which acts immediately (delay protection).
  if (seen == Phase::Compute) {
    confirmed_ = Phase::Compute;
    candidate_ = seen;
    candidate_count_ = 0;
  } else if (seen == candidate_) {
    if (++candidate_count_ >= params_.confirm_samples) confirmed_ = seen;
  } else {
    candidate_ = seen;
    candidate_count_ = 1;
    if (params_.confirm_samples <= 1) confirmed_ = seen;
  }

  apply(confirmed_, usage);
}

void PhasePredictorDaemon::apply(Phase phase, double utilization) {
  const auto& table = node_.cpu().table();
  int target = table.highest().freq_mhz;
  const char* why = "";
  switch (phase) {
    case Phase::Compute:
      target = table.highest().freq_mhz;
      why = "phase Compute: jump to highest";
      break;
    case Phase::Slack:
      target = table.lowest().freq_mhz;
      why = "phase Slack: jump to lowest";
      break;
    case Phase::Mixed:
      target = mixed_frequency(table, utilization, params_.max_slowdown);
      why = "phase Mixed: lowest point within slowdown budget";
      break;
  }
  if (target != node_.cpu().frequency_mhz()) {
    ++speed_changes_;
    node_.set_cpuspeed(target, telemetry::DvsCause::Predictor, utilization, why);
  }
}

}  // namespace pcd::core
