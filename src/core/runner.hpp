// PowerPack: the measured-run orchestrator (paper §4).
//
// A run builds a fresh cluster, applies the requested DVS strategy
// (CPUSPEED daemon, EXTERNAL static frequency, INTERNAL hooks), executes
// the workload's rank processes, and measures delay + total system energy.
// Energy comes from the exact per-node integrators; when `use_meters` is
// set, the run additionally follows the paper's ACPI battery protocol
// (charge / disconnect / 5-minute discharge / run / poll) and records the
// Baytech cross-check, so measurement error is reproduced too.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/daemon.hpp"
#include "fault/plan.hpp"
#include "fault/report.hpp"
#include "machine/cluster.hpp"
#include "profiler/profiler.hpp"
#include "telemetry/determinism.hpp"
#include "telemetry/options.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/profile.hpp"

namespace pcd::core {

/// One structured configuration problem found by RunConfig::validate().
struct ConfigIssue {
  std::string field;    // e.g. "daemon.interval_s", "slice_s"
  std::string message;  // human-readable explanation
};

/// Renders an issue list as a one-per-line string (for exception texts).
std::string describe(const std::vector<ConfigIssue>& issues);

struct RunConfig {
  std::uint64_t seed = 1;

  /// EXTERNAL control: set every node to this frequency before the run
  /// (0 = leave at the boot default, i.e. full speed).
  int static_mhz = 0;

  /// Daemon strategy: run one DvsDaemon per node with this policy —
  /// CpuspeedParams for CPUSPEED, PhasePredictorParams for the phase
  /// predictor (future-work extension).
  std::optional<DaemonParams> daemon;

  /// INTERNAL strategy: hooks invoked from inside the application at the
  /// paper's insertion points.
  apps::DvsHooks hooks;

  /// Collect an MPE-style trace and attach the profile to the result.
  bool collect_trace = false;

  /// Energy-attribution profiling: implies trace collection, attaches the
  /// energy probe to every scope, and fills RunResult::profiler with the
  /// attribution + cross-rank slack analysis (ready for profiler::advise).
  /// Pure observation — delay/energy/transitions are bit-identical to the
  /// unprofiled run.
  bool profile = false;

  /// With `profile`: also run the post-run batch analysis (scope capture,
  /// energy aggregation, cross-rank critical path) and fill
  /// RunResult::profiler.  Turn off to collect energy-annotated traces with
  /// collection-only overhead — every Record still carries joules/cycles and
  /// the flat RankProfile still reports per-rank energy, but the DAG pass is
  /// skipped and RunResult::profiler stays empty.  The overhead benchmark
  /// uses this split to gate the in-run cost separately from the analysis.
  bool profile_analysis = true;

  /// Telemetry layer: metrics registry, DVS decision log, time-series
  /// sampler; the result then carries a TelemetrySnapshot with Chrome
  /// trace / Prometheus / CSV exports available on it.
  telemetry::TelemetryOptions telemetry;

  /// Follow the full ACPI/Baytech measurement protocol (adds a 5-minute
  /// pre-discharge and meter polling; slower, quantized readings).
  bool use_meters = false;

  /// Determinism observability (src/telemetry/determinism.hpp): per-run
  /// digest streams + checkpoints, flight recorder, focused event capture.
  /// The default (all off) is zero-cost and bit-identical to a build
  /// without the observability layer.
  telemetry::DeterminismOptions determinism;

  /// Fault injection + resilience (src/fault).  The default (empty) plan is
  /// zero-cost: no RNG stream is drawn, nothing is scheduled, and results
  /// are bit-identical to a build without the fault layer.
  fault::FaultPlan faults;

  /// Cooperative cancellation: when set, the run loop re-checks the flag
  /// between event batches (every ~200k dispatched events) and converts a
  /// raised flag into a structured failure ("run cancelled") instead of
  /// finishing the simulation.  Checking is a pure wall-side read — no
  /// event is scheduled and no RNG is drawn — so a run whose flag never
  /// rises is bit-identical to one with no token attached.
  const std::atomic<bool>* cancel = nullptr;

  /// Wall-clock ceiling for this run in seconds (0 = none), checked at the
  /// same batch boundaries as `cancel`.  Exceeding it fails the run with a
  /// structured "wall-clock deadline exceeded" — the defense against stuck
  /// cells in long-running campaign services.  Like `cancel`, a run that
  /// finishes inside the deadline is bit-identical to an unbounded run.
  double wall_deadline_s = 0;

  /// Cluster template; node count is raised to the workload's rank count.
  machine::ClusterConfig cluster;

  /// Compute-phase slice length (see AppContext).
  double slice_s = 0.050;

  /// Parallel sharding (DESIGN.md §3.14).  1 (the default) runs the
  /// single-engine path — bit-identical to every release before sharding
  /// existed.  N > 1 partitions the cluster into N per-shard engines
  /// advancing under conservative lookahead derived from
  /// Network::min_latency(); results are deterministic across repetitions
  /// at any fixed shard count, but event interleaving legitimately differs
  /// between different shard counts.  The effective count is clamped to
  /// the workload's rank count.
  ///
  /// A sharded run is bare: validate() rejects non-positive values, and at
  /// shards > 1 every observation layer — collect_trace, profile,
  /// use_meters, telemetry.enabled, an active fault plan, and any
  /// determinism option — with one issue naming the field.
  int shards = 1;

  /// Checks the configuration for contradictions and returns every problem
  /// found (empty = valid).  `run_workload` calls this and refuses to start
  /// on a non-empty list, so a zero daemon interval or a negative slice is
  /// a structured error instead of undefined behaviour.
  std::vector<ConfigIssue> validate() const;
};

struct RunResult {
  std::string workload;
  double delay_s = 0;        // wall time from launch to last rank completion
  double energy_j = 0;       // exact total system energy over the run window
  double energy_acpi_j = -1;    // as the ACPI protocol would report it
  double energy_baytech_j = -1; // Baytech per-minute estimate
  std::int64_t dvs_transitions = 0;
  std::int64_t net_collisions = 0;
  std::int64_t messages = 0;
  /// Engine events dispatched over the run — the simulator's unit of work
  /// (events / wall second is the throughput the perf gate tracks).
  std::int64_t events = 0;
  /// Mean /proc-style CPU utilization across nodes over the run — what the
  /// CPUSPEED daemon integrates; useful for diagnosing daemon behaviour.
  double mean_utilization = 0;
  std::optional<trace::TraceProfile> profile;
  std::string timeline;  // rendered trace, if collected
  /// Energy attribution + slack analysis (when RunConfig::profile is set);
  /// feed to profiler::advise() to derive an INTERNAL schedule.
  std::optional<profiler::ProfileResult> profiler;
  /// Everything the telemetry layer collected (when enabled): registry
  /// snapshot, decision log, completed transitions, sampler series, and a
  /// ready-rendered Chrome trace-event JSON.
  std::optional<telemetry::TelemetrySnapshot> telemetry;
  /// Structured failure instead of a silent infinite run: set when the MPI
  /// progress watchdog timed out or the cluster deadlocked under faults
  /// (delay/energy then cover launch -> failure detection).
  bool failed = false;
  std::string failure;
  /// Fault/resilience record (present whenever the fault layer was active).
  std::optional<fault::FaultReport> fault_report;
  /// Determinism capture (when RunConfig::determinism enabled anything):
  /// the RunDigest with its checkpoint trail, any focused event capture,
  /// and — on a failed run with the flight recorder on — the black-box
  /// JSON dump taken at the failure instant.
  std::optional<telemetry::RunCapture> determinism;
};

/// Executes one measured run.  Throws std::invalid_argument (with the
/// rendered issue list) when `config.validate()` is non-empty.  Repeated
/// trials and sweeps are campaigns (campaign/: run_trials, sweep_static,
/// ExperimentSpec).
RunResult run_workload(const apps::Workload& workload, const RunConfig& config = {});

}  // namespace pcd::core
