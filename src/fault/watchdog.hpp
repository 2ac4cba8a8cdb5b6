// Per-node resilience watchdog (the missing piece of the paper's CPUSPEED
// deployment: the daemon writes /proc with no error checking and nothing
// supervises it).
//
// Two independent detectors, polled every check interval:
//   - wedged daemon: the daemon's poll counter stops advancing.  Restart it
//     after an exponential backoff, up to max_restarts; then give up and
//     degrade gracefully.
//   - stuck DVS path: the node's last *requested* frequency differs from
//     the CPU's *actual* frequency for several consecutive checks with no
//     transition in flight — the /proc write is being lost.  Degrade
//     gracefully.
//
// Graceful degradation = disable the (untrustworthy) DVS strategy on this
// node and pin the clock at full speed: the paper's performance constraint
// is preserved at the cost of the energy saving.  The watchdog keeps
// re-asserting full speed until the write lands (a stuck driver may
// recover), then records the recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "fault/plan.hpp"
#include "fault/report.hpp"
#include "machine/node.hpp"
#include "sim/engine.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/hub.hpp"

namespace pcd::fault {

/// How the watchdog observes and controls the strategy daemon on its node.
/// Any member may be empty (e.g. EXTERNAL static control has no daemon:
/// only the stuck-DVS detector is active).
struct DaemonHooks {
  std::function<std::int64_t()> polls;  // liveness counter
  std::function<void()> restart;        // bring a wedged daemon back
  std::function<void()> disable;        // stop the daemon for good (fallback)
  double expected_poll_interval_s = 2.0;
};

class DaemonWatchdog {
 public:
  DaemonWatchdog(sim::Engine& engine, machine::Node& node, WatchdogParams params,
                 DaemonHooks hooks, FaultReport* report,
                 telemetry::Hub* hub = nullptr, sim::SimDuration start_offset = 0);
  ~DaemonWatchdog() { stop(); }

  DaemonWatchdog(const DaemonWatchdog&) = delete;
  DaemonWatchdog& operator=(const DaemonWatchdog&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  bool in_fallback() const { return fallback_; }
  std::int64_t restarts() const { return restarts_; }
  /// Cumulative restart backoff waited so far: the sum of the intervals
  /// actually scheduled (b, 2b, 4b, ...), NOT the next doubled interval —
  /// after N restarts this is b * (2^N - 1).
  double backoff_total_s() const { return backoff_total_s_; }

  /// Black-box wiring: when set, entering fallback dumps the recorder (the
  /// last N causal steps that led here) into FaultReport::flight_recordings.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  void tick();
  void check_daemon();
  void check_dvs_path();
  void enter_fallback(const char* why);
  void assert_full_speed();
  void record(const char* kind, telemetry::FaultPhase phase, std::string detail);

  sim::Engine& engine_;
  machine::Node& node_;
  WatchdogParams params_;
  DaemonHooks hooks_;
  FaultReport* report_;
  telemetry::Hub* hub_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  sim::SimDuration start_offset_;

  bool running_ = false;
  std::optional<sim::EventId> next_tick_;

  // daemon-liveness detector
  std::int64_t last_polls_ = -1;
  sim::SimTime last_poll_change_ = 0;
  std::optional<sim::EventId> pending_restart_;  // restart in its backoff
  bool daemon_wedged_ = false;
  std::int64_t restarts_ = 0;
  double backoff_total_s_ = 0;

  // stuck-DVS detector
  int stuck_streak_ = 0;
  bool fallback_ = false;
  bool fallback_recovered_ = false;
};

}  // namespace pcd::fault
