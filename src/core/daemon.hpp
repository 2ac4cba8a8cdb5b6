// Per-node DVS daemons: system-driven external DVS control (paper §3.1,
// strategy #1) and the phase predictor of its stated future work ("better
// prediction methods more suitable to high-performance computing
// applications", §7).  Both are the same system: one daemon per node polls
// %CPU over an interval and writes an operating point.  DvsDaemon is that
// sampling loop; the parameter type picks the policy.
//
// CPUSPEED implements the paper's pseudocode verbatim: jump to the lowest
// point below min-threshold, jump to the highest above max-threshold,
// otherwise step down below the usage threshold and step up above it.
// Version presets reproduce the two daemons the paper measured: v1.1
// (Fedora Core 2) polls every 0.1 s — which the paper found "equivalent to
// no DVS" for NPB — and v1.2.1 (Fedora Core 3) every 2 s.
//
// CPUSPEED's weaknesses (§5.1): it reacts one step per interval (lagging
// phase boundaries) and its blended-utilization stepping drags mixed codes
// like MG/BT to the lowest point, costing 30%+ delay.  The predictor
// instead classifies each sampling window:
//
//   Compute (util >= high_util)  -> jump straight to the highest point;
//   Slack   (util <  low_util)   -> jump straight to the lowest point
//                                   (communication/idle phase);
//   Mixed   (in between)         -> pick the operating point whose slowdown
//                                   of the *CPU-bound share* keeps the
//                                   projected delay under `max_slowdown`.
//
// Classification changes take effect only after `confirm_samples`
// consecutive agreeing windows (hysteresis against thrash).
#pragma once

#include <cstdint>
#include <variant>

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

struct PhasePredictorParams {
  double interval_s = 0.5;    // finer than cpuspeed's 2 s
  double high_util = 0.92;
  double low_util = 0.55;
  int confirm_samples = 2;    // windows before a reclassification acts
  double max_slowdown = 0.05; // delay budget for Mixed windows
};

/// The policy a daemon runs: CPUSPEED thresholds or the phase predictor.
using DaemonParams = std::variant<CpuspeedParams, PhasePredictorParams>;

/// One daemon instance per node, exactly like the real system service.
class DvsDaemon {
 public:
  enum class Phase { Compute, Slack, Mixed };

  DvsDaemon(sim::Engine& engine, machine::Node& node, DaemonParams params,
            sim::SimDuration start_offset = 0);
  ~DvsDaemon() { stop(); }

  DvsDaemon(const DvsDaemon&) = delete;
  DvsDaemon& operator=(const DvsDaemon&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  std::int64_t polls() const { return polls_; }
  std::int64_t speed_changes() const { return speed_changes_; }
  double interval_s() const;
  /// The predictor's confirmed phase (always Compute under CPUSPEED).
  Phase current_phase() const { return confirmed_; }

  /// The operating point the Mixed policy picks for a given utilization:
  /// the lowest frequency whose projected delay increase on the CPU-bound
  /// share stays within the budget.  Exposed for unit testing.
  static int mixed_frequency(const cpu::OperatingPointTable& table, double utilization,
                             double max_slowdown);

 private:
  void tick();
  void cpuspeed_step(const CpuspeedParams& p, double usage);
  void predictor_step(const PhasePredictorParams& p, double usage);

  sim::Engine& engine_;
  machine::Node& node_;
  DaemonParams params_;
  sim::SimDuration start_offset_;
  bool running_ = false;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  double last_busy_ns_ = 0;
  // Predictor hysteresis state.
  Phase confirmed_ = Phase::Compute;
  Phase candidate_ = Phase::Compute;
  int candidate_count_ = 0;
  std::int64_t polls_ = 0;
  std::int64_t speed_changes_ = 0;
};

}  // namespace pcd::core
