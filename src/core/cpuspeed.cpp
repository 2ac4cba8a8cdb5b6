#include "core/cpuspeed.hpp"

#include <algorithm>
#include <cstdio>

namespace pcd::core {

CpuspeedDaemon::CpuspeedDaemon(sim::Engine& engine, machine::Node& node,
                               CpuspeedParams params, sim::SimDuration start_offset)
    : engine_(engine), node_(node), params_(params), start_offset_(start_offset) {}

void CpuspeedDaemon::start() {
  if (running_) return;
  running_ = true;
  last_busy_ns_ = node_.cpu().busy_weighted_ns();
  // One pooled timer for the whole daemon lifetime: the poll loop re-arms in
  // place inside the engine's timer wheel instead of pushing a fresh heap
  // event per tick.
  next_tick_ =
      engine_.schedule_every(start_offset_ + sim::from_seconds(params_.interval_s),
                             sim::from_seconds(params_.interval_s), [this] { tick(); },
                             "cpuspeed.tick");
}

void CpuspeedDaemon::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

void CpuspeedDaemon::tick() {
  ++polls_;
  // poll %CPU-usage from "/proc/stat"
  const double busy = node_.cpu().busy_weighted_ns();
  const double usage =
      std::clamp((busy - last_busy_ns_) / (params_.interval_s * 1e9), 0.0, 1.0);
  last_busy_ns_ = busy;

  const auto& table = node_.cpu().table();
  const auto m = table.size() - 1;
  std::size_t s = node_.cpu().op_index();
  char why[96];
  if (usage < params_.min_threshold) {
    s = 0;
    std::snprintf(why, sizeof why, "usage %.3f < min %.2f: jump to lowest", usage,
                  params_.min_threshold);
  } else if (usage > params_.max_threshold) {
    s = m;
    std::snprintf(why, sizeof why, "usage %.3f > max %.2f: jump to highest", usage,
                  params_.max_threshold);
  } else if (usage < params_.usage_threshold) {
    s = (s == 0) ? 0 : s - 1;
    std::snprintf(why, sizeof why, "usage %.3f < threshold %.2f: step down", usage,
                  params_.usage_threshold);
  } else {
    s = std::min(s + 1, m);
    std::snprintf(why, sizeof why, "usage %.3f >= threshold %.2f: step up", usage,
                  params_.usage_threshold);
  }
  if (s != node_.cpu().op_index()) {
    ++speed_changes_;
    node_.set_cpuspeed(table.at(s).freq_mhz, telemetry::DvsCause::DaemonThreshold,
                       usage, why);
  }
}

}  // namespace pcd::core
