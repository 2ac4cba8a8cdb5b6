// Phase-predicting DVS daemon — the paper's stated future work ("better
// prediction methods more suitable to high-performance computing
// applications", §7), built on the same external, system-driven interface
// as CPUSPEED.
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

#include "machine/node.hpp"
#include "sim/engine.hpp"

namespace pcd::core {

struct PhasePredictorParams {
  double interval_s = 0.5;    // finer than cpuspeed's 2 s
  double high_util = 0.92;
  double low_util = 0.55;
  int confirm_samples = 2;    // windows before a reclassification acts
  double max_slowdown = 0.05; // delay budget for Mixed windows
};

class PhasePredictorDaemon {
 public:
  enum class Phase { Compute, Slack, Mixed };

  PhasePredictorDaemon(sim::Engine& engine, machine::Node& node,
                       PhasePredictorParams params,
                       sim::SimDuration start_offset = 0);
  ~PhasePredictorDaemon() { stop(); }

  PhasePredictorDaemon(const PhasePredictorDaemon&) = delete;
  PhasePredictorDaemon& operator=(const PhasePredictorDaemon&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  std::int64_t polls() const { return polls_; }
  std::int64_t speed_changes() const { return speed_changes_; }
  Phase current_phase() const { return confirmed_; }

  /// The operating point the Mixed policy picks for a given utilization:
  /// the lowest frequency whose projected delay increase on the CPU-bound
  /// share stays within the budget.  Exposed for unit testing.
  static int mixed_frequency(const cpu::OperatingPointTable& table, double utilization,
                             double max_slowdown);

 private:
  void tick();
  void apply(Phase phase, double utilization);

  sim::Engine& engine_;
  machine::Node& node_;
  PhasePredictorParams params_;
  sim::SimDuration start_offset_;
  bool running_ = false;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  double last_busy_ns_ = 0;
  Phase confirmed_ = Phase::Compute;
  Phase candidate_ = Phase::Compute;
  int candidate_count_ = 0;
  std::int64_t polls_ = 0;
  std::int64_t speed_changes_ = 0;
};

}  // namespace pcd::core
