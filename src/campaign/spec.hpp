// Declarative experiment campaigns (the paper's methodology as an API).
//
// Every figure and table in the paper is a *sweep*: {workload x strategy x
// operating point} with repeated trials and median aggregation.  An
// ExperimentSpec names those dimensions explicitly — workloads plus any
// number of Axes, each axis a list of labelled RunConfig mutations — and
// expands them cartesian-style into a run matrix.  Because every simulated
// run is a pure function of its RunConfig (see DESIGN.md "Share-nothing
// runs"), the expansion is also the unit of parallelism: CampaignRunner
// executes the matrix on a work-stealing pool with results independent of
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.hpp"
#include "core/runner.hpp"

namespace pcd::campaign {

/// One point on an axis: a display label, the RunConfig mutation applied at
/// expansion time, and (for axes over numbers, e.g. MHz) the raw value so
/// downstream analysis does not have to parse labels.
struct AxisValue {
  std::string label;
  std::function<void(core::RunConfig&)> apply;  // null = label-only point
  double number = 0;
  bool numeric = false;
};

/// A named sweep dimension.  Factories cover the common axes; arbitrary
/// dimensions are built from (label, mutator) pairs.
struct Axis {
  std::string name;
  std::vector<AxisValue> values;

  /// EXTERNAL control: one point per static frequency (0 = boot default).
  static Axis static_mhz(const std::vector<int>& freqs);

  /// Base-seed axis.  Most campaigns instead keep seeds identical across
  /// cells (paired comparisons) and let trials perturb them.
  static Axis seeds(const std::vector<std::uint64_t>& seeds);

  /// Arbitrary labelled strategies or config mutations.
  static Axis strategies(
      std::string name,
      std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>>
          values);

  /// Numeric parameter axis with one mutator shared across values.
  static Axis numeric(std::string name, const std::vector<double>& values,
                      std::function<void(core::RunConfig&, double)> set);
};

/// Spec validation failure: carries the structured issue list (one entry
/// per offending cell/field) in addition to the rendered message.
class SpecError : public std::invalid_argument {
 public:
  SpecError(std::string message, std::vector<core::ConfigIssue> issues)
      : std::invalid_argument(std::move(message)), issues_(std::move(issues)) {}
  const std::vector<core::ConfigIssue>& issues() const { return issues_; }

 private:
  std::vector<core::ConfigIssue> issues_;
};

/// One fully resolved cell of the run matrix: the workload plus the
/// RunConfig with every axis mutation applied (trial seeds are derived
/// later, see trial_config).
struct CellPlan {
  std::size_t index = 0;              // row-major position
  std::size_t workload = 0;           // index into ExperimentSpec::workloads()
  std::string workload_label;
  std::vector<std::string> labels;    // one per axis, in axis order
  std::vector<double> numbers;        // numeric value per axis (0 if none)
  std::vector<bool> numeric;          // whether numbers[i] is meaningful
  core::RunConfig config;

  /// Structured validation problems for this cell (lenient expansion only;
  /// expand() throws instead).  A cell with issues is never executed: the
  /// runner synthesizes a structured failure carrying the issue text.
  std::vector<core::ConfigIssue> issues;

  bool valid() const { return issues.empty(); }
};

/// Declarative campaign: workloads x axes x trials.
class ExperimentSpec {
 public:
  /// Adds a workload (leading implicit axis).  `label` defaults to the
  /// workload's name; override it when the same code appears twice (e.g.
  /// FT at two scales).
  ExperimentSpec& workload(apps::Workload w, std::string label = "");
  ExperimentSpec& workloads(const std::vector<apps::Workload>& ws);

  /// Base configuration every cell starts from (validated at expansion).
  ExperimentSpec& base(core::RunConfig cfg);

  /// Appends a sweep dimension (applied left to right at expansion).
  ExperimentSpec& axis(Axis a);

  /// Repeated measurements per cell; trial t runs with seed + t*7919 (the
  /// historical run_trials derivation) and cells aggregate to the median.
  ExperimentSpec& trials(int n);

  /// Collect a determinism digest (RunDigest) for every trial; cells then
  /// carry a digest root and CampaignResult::fingerprint() becomes the fold
  /// of those roots (drill-down to the diverging cell/trial).  Off by
  /// default: digest-off campaigns keep the legacy tsv() fingerprint.
  ExperimentSpec& collect_digests(bool on = true);

  const std::vector<std::pair<std::string, apps::Workload>>& workload_entries() const {
    return workloads_;
  }
  const core::RunConfig& base_config() const { return base_; }
  const std::vector<Axis>& axes() const { return axes_; }
  int trial_count() const { return trials_; }
  bool digests() const { return collect_digests_; }

  std::size_t cells() const;
  std::size_t total_runs() const { return cells() * static_cast<std::size_t>(trials_); }

  /// Cartesian expansion into the run matrix, with every cell's RunConfig
  /// validated eagerly — a bad cell raises SpecError (naming the cell)
  /// before any run starts.  Requires >= 1 workload and >= 1 trial.
  std::vector<CellPlan> expand() const;

  /// Lenient expansion for servers: structural problems (no workloads, no
  /// trials, an empty axis) still raise SpecError, but a cell whose
  /// RunConfig fails validation is returned with `issues` filled instead of
  /// aborting the whole matrix — one bad cell in a client's sweep yields
  /// one structured per-cell error, not a rejected campaign.
  std::vector<CellPlan> expand_lenient() const;

 private:
  std::vector<std::pair<std::string, apps::Workload>> workloads_;
  core::RunConfig base_;
  std::vector<Axis> axes_;
  int trials_ = 1;
  bool collect_digests_ = false;
};

/// Seed derivation for repetition `trial` of a cell: identical to the
/// historical run_trials rule, so a one-axis campaign reproduces it
/// bit-for-bit.  Pure function of (cell config, trial) — execution order
/// and thread count cannot perturb it.
core::RunConfig trial_config(const core::RunConfig& cell, int trial);

}  // namespace pcd::campaign
