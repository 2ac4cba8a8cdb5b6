#include "core/daemon.hpp"

#include <algorithm>
#include <cstdio>

namespace pcd::core {

DvsDaemon::DvsDaemon(sim::Engine& engine, machine::Node& node, DaemonParams params,
                     sim::SimDuration start_offset)
    : engine_(engine), node_(node), params_(params), start_offset_(start_offset) {}

void DvsDaemon::start() {
  if (running_) return;
  running_ = true;
  last_busy_ns_ = node_.cpu().busy_weighted_ns();
  // One pooled timer for the whole daemon lifetime: the engine re-arms the
  // poll in place after each tick instead of allocating a fresh event.
  const double interval = interval_s();
  next_tick_ = engine_.schedule_every(
      start_offset_ + sim::from_seconds(interval), sim::from_seconds(interval),
      [this] { tick(); },
      std::holds_alternative<CpuspeedParams>(params_) ? "cpuspeed.tick"
                                                      : "predictor.tick");
}

void DvsDaemon::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

void DvsDaemon::tick() {
  ++polls_;
  // poll %CPU-usage from "/proc/stat"
  const double busy = node_.cpu().busy_weighted_ns();
  const double usage =
      std::clamp((busy - last_busy_ns_) / (interval_s() * 1e9), 0.0, 1.0);
  last_busy_ns_ = busy;

  if (const auto* p = std::get_if<CpuspeedParams>(&params_)) {
    cpuspeed_step(*p, usage);
  } else {
    predictor_step(std::get<PhasePredictorParams>(params_), usage);
  }
}

void DvsDaemon::cpuspeed_step(const CpuspeedParams& p, double usage) {
  const auto& table = node_.cpu().table();
  const auto m = table.size() - 1;
  std::size_t s = node_.cpu().op_index();
  char why[96];
  if (usage < p.min_threshold) {
    s = 0;
    std::snprintf(why, sizeof why, "usage %.3f < min %.2f: jump to lowest", usage,
                  p.min_threshold);
  } else if (usage > p.max_threshold) {
    s = m;
    std::snprintf(why, sizeof why, "usage %.3f > max %.2f: jump to highest", usage,
                  p.max_threshold);
  } else if (usage < p.usage_threshold) {
    s = (s == 0) ? 0 : s - 1;
    std::snprintf(why, sizeof why, "usage %.3f < threshold %.2f: step down", usage,
                  p.usage_threshold);
  } else {
    s = std::min(s + 1, m);
    std::snprintf(why, sizeof why, "usage %.3f >= threshold %.2f: step up", usage,
                  p.usage_threshold);
  }
  if (s != node_.cpu().op_index()) {
    ++speed_changes_;
    node_.set_cpuspeed(table.at(s).freq_mhz, telemetry::DvsCause::DaemonThreshold,
                       usage, why);
  }
}

int DvsDaemon::mixed_frequency(const cpu::OperatingPointTable& table,
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

void DvsDaemon::predictor_step(const PhasePredictorParams& p, double usage) {
  Phase seen = Phase::Mixed;
  if (usage >= p.high_util) {
    seen = Phase::Compute;
  } else if (usage < p.low_util) {
    seen = Phase::Slack;
  }

  // Hysteresis: require agreement before switching the confirmed phase —
  // except *into* Compute, which acts immediately (delay protection).
  if (seen == Phase::Compute) {
    confirmed_ = Phase::Compute;
    candidate_ = seen;
    candidate_count_ = 0;
  } else if (seen == candidate_) {
    if (++candidate_count_ >= p.confirm_samples) confirmed_ = seen;
  } else {
    candidate_ = seen;
    candidate_count_ = 1;
    if (p.confirm_samples <= 1) confirmed_ = seen;
  }

  const auto& table = node_.cpu().table();
  int target = table.highest().freq_mhz;
  const char* why = "";
  switch (confirmed_) {
    case Phase::Compute:
      target = table.highest().freq_mhz;
      why = "phase Compute: jump to highest";
      break;
    case Phase::Slack:
      target = table.lowest().freq_mhz;
      why = "phase Slack: jump to lowest";
      break;
    case Phase::Mixed:
      target = mixed_frequency(table, usage, p.max_slowdown);
      why = "phase Mixed: lowest point within slowdown budget";
      break;
  }
  if (target != node_.cpu().frequency_mhz()) {
    ++speed_changes_;
    node_.set_cpuspeed(target, telemetry::DvsCause::Predictor, usage, why);
  }
}

}  // namespace pcd::core
