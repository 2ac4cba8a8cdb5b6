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
  std::string field;    // e.g. "daemon/predictor", "slice_s"
  std::string message;  // human-readable explanation
};

/// Renders an issue list as a one-per-line string (for exception texts).
std::string describe(const std::vector<ConfigIssue>& issues);

struct RunConfig {
  std::uint64_t seed = 1;

  /// EXTERNAL control: set every node to this frequency before the run
  /// (0 = leave at the boot default, i.e. full speed).
  int static_mhz = 0;

  /// CPUSPEED strategy: run one daemon per node with these parameters.
  std::optional<CpuspeedParams> daemon;

  /// Phase-predictor strategy (future-work extension): one predicting
  /// daemon per node.  Mutually exclusive with `daemon`.
  std::optional<PhasePredictorParams> predictor;

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
  /// at any fixed shard count, but event interleaving (and therefore digest
  /// roots) legitimately differs between different shard counts.  The
  /// effective count is clamped to the workload's rank count.
  ///
  /// The observation layers (trace/profile/meters/telemetry/faults/digest/
  /// flight recorder) all work at shards > 1: each shard feeds its own
  /// collector instances from its local engine, and the driver merges them
  /// deterministically — stable (time, source shard, posting order) — after
  /// global completion, so the merged snapshot, exports, profiler result,
  /// and fault report are independent of the shard count that produced
  /// them.  Per-shard provenance lives only in explicit views
  /// (TelemetrySnapshot::shard_metrics, to_prometheus_sharded,
  /// chrome_trace_sharded_json, RunCapture::shard_parts).  validate()
  /// rejects non-positive values; the one residual single-engine-only
  /// layer is per-event capture (determinism.capture_begin/end and
  /// determinism.perturb_seq), which is tied to the global dispatch
  /// sequence that sharded execution deliberately abandons.
  int shards = 1;

  /// Checks the configuration for contradictions and returns every problem
  /// found (empty = valid).  `run_workload` calls this and refuses to start
  /// on a non-empty list, so a daemon+predictor conflict or a negative
  /// slice is a structured error instead of undefined behaviour.
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
/// rendered issue list) when `config.validate()` is non-empty.
RunResult run_workload(const apps::Workload& workload, const RunConfig& config = {});

/// Fluent RunConfig construction with eager validation: setters record the
/// intent, `build()` runs RunConfig::validate() and throws
/// std::invalid_argument with the full structured issue list on any
/// contradiction (daemon+predictor, negative slice, ...).  `issues()`
/// exposes the same list without throwing, for callers that want to
/// surface errors instead of raising.
///
/// Repeated-trial and sweep execution live in campaign/ (run_trials,
/// sweep_static, ExperimentSpec): every multi-run shape is a campaign.
class RunConfigBuilder {
 public:
  RunConfigBuilder() = default;
  explicit RunConfigBuilder(RunConfig base) : cfg_(std::move(base)) {}

  RunConfigBuilder& seed(std::uint64_t s) { cfg_.seed = s; return *this; }
  RunConfigBuilder& static_mhz(int mhz) { cfg_.static_mhz = mhz; return *this; }
  RunConfigBuilder& daemon(CpuspeedParams p) { cfg_.daemon = p; return *this; }
  RunConfigBuilder& predictor(PhasePredictorParams p) { cfg_.predictor = p; return *this; }
  RunConfigBuilder& hooks(apps::DvsHooks h) { cfg_.hooks = std::move(h); return *this; }
  RunConfigBuilder& collect_trace(bool on = true) { cfg_.collect_trace = on; return *this; }
  RunConfigBuilder& profile(bool on = true) { cfg_.profile = on; return *this; }
  RunConfigBuilder& profile_analysis(bool on = true) {
    cfg_.profile_analysis = on;
    return *this;
  }
  RunConfigBuilder& telemetry(telemetry::TelemetryOptions t) { cfg_.telemetry = std::move(t); return *this; }
  RunConfigBuilder& use_meters(bool on = true) { cfg_.use_meters = on; return *this; }
  RunConfigBuilder& determinism(telemetry::DeterminismOptions d) {
    cfg_.determinism = d;
    return *this;
  }
  RunConfigBuilder& faults(fault::FaultPlan plan) { cfg_.faults = std::move(plan); return *this; }
  RunConfigBuilder& cancel(const std::atomic<bool>* token) { cfg_.cancel = token; return *this; }
  RunConfigBuilder& wall_deadline_s(double s) { cfg_.wall_deadline_s = s; return *this; }
  RunConfigBuilder& cluster(machine::ClusterConfig c) { cfg_.cluster = std::move(c); return *this; }
  RunConfigBuilder& slice_s(double s) { cfg_.slice_s = s; return *this; }
  RunConfigBuilder& shards(int n) { cfg_.shards = n; return *this; }

  /// Mutable access to the cluster/topology template, so call sites can
  /// adjust node counts or network parameters without abandoning the fluent
  /// chain:  RunConfigBuilder(base).shards(4).topology().nodes = 64;
  /// followed by more setters via a fresh reference.  The const overload
  /// supports inspection before build().
  machine::ClusterConfig& topology() { return cfg_.cluster; }
  const machine::ClusterConfig& topology() const { return cfg_.cluster; }

  /// The issues `build()` would throw on (empty = valid).
  std::vector<ConfigIssue> issues() const { return cfg_.validate(); }

  /// Validates and returns the finished config; throws on any issue.
  RunConfig build() const;

 private:
  RunConfig cfg_;
};

}  // namespace pcd::core
