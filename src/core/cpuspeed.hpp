// The CPUSPEED daemon (paper §3.1, strategy #1): system-driven external
// DVS control.
//
// Implements the paper's pseudocode verbatim: poll %CPU over an interval,
// jump to the lowest point below min-threshold, jump to the highest above
// max-threshold, otherwise step down below the usage threshold and step up
// above it.  Version presets reproduce the two daemons the paper measured:
// v1.1 (Fedora Core 2) polls every 0.1 s — which the paper found
// "equivalent to no DVS" for NPB — and v1.2.1 (Fedora Core 3) every 2 s.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/node.hpp"
#include "sim/engine.hpp"

namespace pcd::core {

struct CpuspeedParams {
  double interval_s = 2.0;       // minimum speed-transition interval
  double min_threshold = 0.10;   // below: S = 0
  double max_threshold = 0.95;   // above: S = m
  double usage_threshold = 0.85; // below: S-1, else S+1

  /// cpuspeed 1.1 (Fedora Core 2): 0.1 s interval and conservative
  /// thresholds — any moderate activity steps the clock back up, which is
  /// why the paper found it "always chooses the highest CPU speed" for NPB
  /// ("threshold values were never achieved").
  static CpuspeedParams v1_1() {
    CpuspeedParams p;
    p.interval_s = 0.1;
    p.min_threshold = 0.05;
    p.usage_threshold = 0.25;  // above 25% busy: raise the clock
    p.max_threshold = 0.70;
    return p;
  }
  /// cpuspeed 1.2.1 (Fedora Core 3): 2 s default interval.
  static CpuspeedParams v1_2_1() { return CpuspeedParams{}; }
};

/// One daemon instance per node, exactly like the real system service.
class CpuspeedDaemon {
 public:
  CpuspeedDaemon(sim::Engine& engine, machine::Node& node, CpuspeedParams params,
                 sim::SimDuration start_offset = 0);
  ~CpuspeedDaemon() { stop(); }

  CpuspeedDaemon(const CpuspeedDaemon&) = delete;
  CpuspeedDaemon& operator=(const CpuspeedDaemon&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  std::int64_t polls() const { return polls_; }
  std::int64_t speed_changes() const { return speed_changes_; }
  const CpuspeedParams& params() const { return params_; }

 private:
  void tick();

  sim::Engine& engine_;
  machine::Node& node_;
  CpuspeedParams params_;
  sim::SimDuration start_offset_;
  bool running_ = false;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  double last_busy_ns_ = 0;
  std::int64_t polls_ = 0;
  std::int64_t speed_changes_ = 0;
};

}  // namespace pcd::core
