#include "fault/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace pcd::fault {

DaemonWatchdog::DaemonWatchdog(sim::Engine& engine, machine::Node& node,
                               WatchdogParams params, DaemonHooks hooks,
                               FaultReport* report, telemetry::Hub* hub,
                               sim::SimDuration start_offset)
    : engine_(engine),
      node_(node),
      params_(params),
      hooks_(std::move(hooks)),
      report_(report),
      hub_(hub),
      start_offset_(start_offset) {}

void DaemonWatchdog::start() {
  if (running_) return;
  running_ = true;
  last_polls_ = hooks_.polls ? hooks_.polls() : -1;
  last_poll_change_ = engine_.now();
  next_tick_ = engine_.schedule_in(start_offset_, [this] { tick(); }, "watchdog.tick");
}

void DaemonWatchdog::stop() {
  if (!running_) return;
  running_ = false;
  if (next_tick_) engine_.cancel(*next_tick_);
  next_tick_.reset();
  // A restart still waiting out its backoff is dropped with the tick: it
  // must not revive a daemon the run has stopped.  The restart stays
  // counted (daemon_restarts counts restarts scheduled), and a later
  // start() watches the daemon afresh.
  if (pending_restart_) {
    engine_.cancel(*pending_restart_);
    pending_restart_.reset();
    daemon_wedged_ = false;
  }
}

void DaemonWatchdog::record(const char* kind, telemetry::FaultPhase phase,
                            std::string detail) {
  const double t_s = sim::to_seconds(engine_.now());
  if (report_ != nullptr) {
    report_->record(t_s, node_.id(), kind, telemetry::to_string(phase), detail);
  }
  if (hub_ != nullptr) {
    hub_->record_fault({engine_.now(), node_.id(), kind, phase, std::move(detail)});
  }
}

void DaemonWatchdog::tick() {
  if (!node_.cpu().offline()) {  // a dark node has bigger problems
    if (fallback_) {
      assert_full_speed();
    } else {
      check_daemon();
      check_dvs_path();
    }
  }
  next_tick_ = engine_.schedule_in(sim::from_seconds(params_.check_interval_s),
                                   [this] { tick(); }, "watchdog.tick");
}

void DaemonWatchdog::check_daemon() {
  if (!hooks_.polls || pending_restart_) return;
  const std::int64_t polls = hooks_.polls();
  if (polls != last_polls_) {
    last_polls_ = polls;
    last_poll_change_ = engine_.now();
    daemon_wedged_ = false;
    return;
  }
  const double silent_s = sim::to_seconds(engine_.now() - last_poll_change_);
  const double tolerated = params_.missed_checks_before_restart *
                           std::max(params_.check_interval_s,
                                    hooks_.expected_poll_interval_s);
  if (silent_s < tolerated || daemon_wedged_) return;
  daemon_wedged_ = true;
  char buf[128];
  std::snprintf(buf, sizeof buf, "daemon poll counter frozen for %.1f s", silent_s);
  record("daemon_wedge", telemetry::FaultPhase::Detected, buf);
  if (hooks_.restart && restarts_ < params_.max_restarts) {
    // The interval for restart r (0-based) is b * 2^r, computed BEFORE the
    // counter increments — reading restarts_ after ++ would double-report
    // the wait.  The running total is accumulated here, at scheduling time,
    // so the give-up transition below can report the backoff actually
    // spent (b * (2^N - 1)), not the next never-taken interval.
    const double backoff =
        params_.restart_backoff_s * static_cast<double>(1LL << restarts_);
    ++restarts_;
    backoff_total_s_ += backoff;
    if (report_ != nullptr) {
      ++report_->daemon_restarts;
      report_->daemon_backoff_s += backoff;
    }
    pending_restart_ = engine_.schedule_in(sim::from_seconds(backoff), [this] {
      pending_restart_.reset();
      daemon_wedged_ = false;
      last_poll_change_ = engine_.now();
      if (hooks_.polls) last_polls_ = hooks_.polls();
      hooks_.restart();
      record("daemon_wedge", telemetry::FaultPhase::Recovered,
             "daemon restarted by watchdog");
    }, "watchdog.restart");
  } else {
    // Final give-up transition: record it with the cumulative backoff this
    // node actually waited across the whole escalation ladder.
    char why[160];
    std::snprintf(why, sizeof why,
                  "daemon restarts exhausted (%lld restarts, %.2f s cumulative "
                  "backoff)",
                  static_cast<long long>(restarts_), backoff_total_s_);
    enter_fallback(why);
  }
}

void DaemonWatchdog::check_dvs_path() {
  const auto& cpu = node_.cpu();
  const bool stuck =
      node_.requested_mhz() != cpu.frequency_mhz() && !cpu.transitioning();
  if (!stuck) {
    stuck_streak_ = 0;
    return;
  }
  if (++stuck_streak_ < params_.stuck_checks_before_fallback) return;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "requested %d MHz but CPU stuck at %d MHz for %d checks",
                node_.requested_mhz(), cpu.frequency_mhz(), stuck_streak_);
  record("stuck_dvs", telemetry::FaultPhase::Detected, buf);
  enter_fallback("DVS writes are being lost");
}

void DaemonWatchdog::enter_fallback(const char* why) {
  if (fallback_) return;
  fallback_ = true;
  if (report_ != nullptr) ++report_->fallbacks;
  if (recorder_ != nullptr && report_ != nullptr) {
    char reason[192];
    std::snprintf(reason, sizeof reason, "watchdog fallback (node %d): %s",
                  node_.id(), why);
    report_->flight_recordings.push_back(
        recorder_->dump_json(reason, engine_.now()));
  }
  if (hooks_.disable) hooks_.disable();
  record("fallback", telemetry::FaultPhase::Detected,
         std::string("graceful degradation to full speed: ") + why);
  assert_full_speed();
}

void DaemonWatchdog::assert_full_speed() {
  const int max_mhz = node_.cpu().table().highest().freq_mhz;
  if (node_.cpu().frequency_mhz() == max_mhz && !node_.cpu().transitioning()) {
    if (!fallback_recovered_) {
      fallback_recovered_ = true;
      record("fallback", telemetry::FaultPhase::Recovered,
             "node pinned at full speed; performance constraint preserved");
    }
    return;
  }
  // Keep re-asserting: a stuck driver drops the write now but may recover.
  node_.set_cpuspeed(max_mhz, telemetry::DvsCause::Fallback,
                     std::numeric_limits<double>::quiet_NaN(),
                     "watchdog fallback");
}

}  // namespace pcd::fault
