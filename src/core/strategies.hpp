// The three distributed DVS scheduling strategies (paper §3) as library
// building blocks:
//   - CPUSPEED DAEMON: core::DvsDaemon (core/daemon.hpp); enabled via
//     RunConfig::daemon (RunConfig::predictor runs its phase-predictor
//     policy).
//   - EXTERNAL: sweep static frequencies (black-box profiling), build the
//     energy-delay crescendo, select an operating point with a fused metric.
//   - INTERNAL: DvsHooks factories matching the paper's source insertions
//     (FT Figure 10; CG Figure 13; plus the two rejected CG phase policies).
#pragma once

#include <functional>
#include <vector>

#include "apps/workload.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "profiler/profiler.hpp"

namespace pcd::core {

/// One measured point of a static-frequency sweep.
struct SweepPoint {
  int freq_mhz = 0;
  RunResult result;
};

struct StaticSweep {
  std::vector<SweepPoint> points;  // ascending frequency; last = baseline
  int base_mhz = 0;                // normalization point (highest frequency)

  /// Normalized crescendo (energy/delay relative to the highest frequency).
  Crescendo normalized() const;
};

// EXTERNAL profiling (the static-frequency sweep itself) lives in
// campaign/sweeps.hpp: campaign::sweep_static expands to a one-axis
// ExperimentSpec and can execute the points concurrently.

/// EXTERNAL selection + run: choose the operating point minimizing `metric`
/// over the sweep and return the measured result at that point.
struct ExternalDecision {
  OperatingChoice choice;
  RunResult result;
};
ExternalDecision run_external(const apps::Workload& workload, const RunConfig& config,
                              const StaticSweep& sweep, Metric metric);

// ---- INTERNAL hook factories -------------------------------------------------

/// Figure 10: set_cpuspeed(low) before the profiled dominant communication
/// phase, set_cpuspeed(high) after it.
apps::DvsHooks internal_phase_hooks(int high_mhz, int low_mhz);

/// Figure 13: per-rank static speeds chosen from the trace asymmetry.
apps::DvsHooks internal_rank_speed_hooks(std::function<int(int rank)> mhz_of_rank);

/// Rejected CG policy #1 (§5.3.2): scale down around *every* communication.
apps::DvsHooks internal_comm_scaling_hooks(int high_mhz, int low_mhz);

/// Rejected CG policy #2 (§5.3.2): scale down around every MPI_Wait.
apps::DvsHooks internal_wait_scaling_hooks(int high_mhz, int low_mhz);

/// Automatic heterogeneous selection (paper footnote 6: "different nodes
/// at different speeds ... requires further profiling which is actually
/// accomplished by the INTERNAL approach"): derive a per-rank frequency
/// from a trace profile.  A rank may slow down until the projected stretch
/// of its busy time fills `usable_slack` of its observed wait time.
std::vector<int> select_per_rank_speeds(const trace::TraceProfile& profile,
                                        const cpu::OperatingPointTable& table,
                                        double usable_slack = 0.5);

/// Closes the profile -> schedule loop: turn an advisor-derived
/// InternalSchedule into the DvsHooks the paper's hand insertions would
/// have produced (Phase -> internal_phase_hooks; PerRank ->
/// internal_rank_speed_hooks; None -> empty hooks, run unchanged).
apps::DvsHooks hooks_for(const profiler::InternalSchedule& schedule);

}  // namespace pcd::core
