#include "campaign/spec.hpp"

#include <algorithm>
#include <cstdio>

namespace pcd::campaign {

Axis Axis::static_mhz(const std::vector<int>& freqs) {
  Axis a;
  a.name = "static MHz";
  for (int f : freqs) {
    AxisValue v;
    v.label = std::to_string(f);
    v.apply = [f](core::RunConfig& c) { c.static_mhz = f; };
    v.number = f;
    v.numeric = true;
    a.values.push_back(std::move(v));
  }
  return a;
}

Axis Axis::seeds(const std::vector<std::uint64_t>& seeds) {
  Axis a;
  a.name = "seed";
  for (auto s : seeds) {
    AxisValue v;
    v.label = std::to_string(s);
    v.apply = [s](core::RunConfig& c) { c.seed = s; };
    v.number = static_cast<double>(s);
    v.numeric = true;
    a.values.push_back(std::move(v));
  }
  return a;
}

Axis Axis::strategies(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> values) {
  Axis a;
  a.name = std::move(name);
  for (auto& [label, fn] : values) {
    AxisValue v;
    v.label = label;
    v.apply = std::move(fn);
    a.values.push_back(std::move(v));
  }
  return a;
}

Axis Axis::numeric(std::string name, const std::vector<double>& values,
                   std::function<void(core::RunConfig&, double)> set) {
  Axis a;
  a.name = std::move(name);
  for (double x : values) {
    AxisValue v;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", x);
    v.label = buf;
    v.apply = [set, x](core::RunConfig& c) { set(c, x); };
    v.number = x;
    v.numeric = true;
    a.values.push_back(std::move(v));
  }
  return a;
}

ExperimentSpec& ExperimentSpec::workload(apps::Workload w, std::string label) {
  if (label.empty()) label = w.name;
  workloads_.emplace_back(std::move(label), std::move(w));
  return *this;
}

ExperimentSpec& ExperimentSpec::workloads(const std::vector<apps::Workload>& ws) {
  for (const auto& w : ws) workload(w);
  return *this;
}

ExperimentSpec& ExperimentSpec::base(core::RunConfig cfg) {
  base_ = std::move(cfg);
  return *this;
}

ExperimentSpec& ExperimentSpec::axis(Axis a) {
  axes_.push_back(std::move(a));
  return *this;
}

ExperimentSpec& ExperimentSpec::trials(int n) {
  trials_ = n;
  return *this;
}

ExperimentSpec& ExperimentSpec::collect_digests(bool on) {
  collect_digests_ = on;
  return *this;
}

std::size_t ExperimentSpec::cells() const {
  std::size_t n = workloads_.size();
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

std::vector<CellPlan> ExperimentSpec::expand() const {
  auto plans = expand_lenient();
  for (auto& cell : plans) {
    if (cell.issues.empty()) continue;
    std::string message = "invalid ExperimentSpec: " + core::describe(cell.issues);
    throw SpecError(std::move(message), std::move(cell.issues));
  }
  return plans;
}

std::vector<CellPlan> ExperimentSpec::expand_lenient() const {
  std::vector<core::ConfigIssue> issues;
  if (workloads_.empty()) issues.push_back({"workloads", "campaign needs at least one workload"});
  if (trials_ < 1) issues.push_back({"trials", "need at least one trial"});
  for (const auto& a : axes_) {
    if (a.values.empty()) issues.push_back({"axis '" + a.name + "'", "axis has no values"});
  }
  if (!issues.empty()) {
    // Render before moving: argument evaluation order is unspecified.
    std::string message = "invalid ExperimentSpec: " + core::describe(issues);
    throw SpecError(std::move(message), std::move(issues));
  }

  std::vector<CellPlan> plans;
  plans.reserve(cells());
  // Row-major: workload outermost, last axis innermost.
  std::vector<std::size_t> at(axes_.size(), 0);
  for (std::size_t w = 0; w < workloads_.size(); ++w) {
    std::fill(at.begin(), at.end(), 0);
    bool done = false;
    while (!done) {
      CellPlan cell;
      cell.index = plans.size();
      cell.workload = w;
      cell.workload_label = workloads_[w].first;
      cell.config = base_;
      if (collect_digests_) cell.config.determinism.digest = true;
      for (std::size_t i = 0; i < axes_.size(); ++i) {
        const AxisValue& v = axes_[i].values[at[i]];
        cell.labels.push_back(v.label);
        cell.numbers.push_back(v.number);
        cell.numeric.push_back(v.numeric);
        if (v.apply) v.apply(cell.config);
      }
      if (auto cell_issues = cell.config.validate(); !cell_issues.empty()) {
        std::string where = "cell '" + cell.workload_label;
        for (const auto& l : cell.labels) where += " / " + l;
        where += "'";
        for (auto& i : cell_issues) i.field = where + " " + i.field;
        cell.issues = std::move(cell_issues);
      }
      plans.push_back(std::move(cell));
      // Odometer increment over the axis indices, innermost fastest.
      done = true;
      for (std::size_t i = axes_.size(); i-- > 0;) {
        if (++at[i] < axes_[i].values.size()) {
          done = false;
          break;
        }
        at[i] = 0;
      }
      if (axes_.empty()) done = true;
    }
  }
  return plans;
}

core::RunConfig trial_config(const core::RunConfig& cell, int trial) {
  core::RunConfig c = cell;
  c.seed = cell.seed + static_cast<std::uint64_t>(trial) * 7919;
  return c;
}

}  // namespace pcd::campaign
