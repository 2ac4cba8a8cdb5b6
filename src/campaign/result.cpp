#include "campaign/result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/report.hpp"
#include "sim/provenance.hpp"

namespace pcd::campaign {

namespace {

double median_of_sorted(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  // Median of the sorted half-open range [lo, hi).
  const std::size_t n = hi - lo;
  const std::size_t m = lo + n / 2;
  return n % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

Summary Summary::of(std::vector<double> values) {
  Summary s;
  s.n = static_cast<int>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = median_of_sorted(values, 0, n);
  // Tukey hinges: halves include the middle element for odd n.
  s.q1 = median_of_sorted(values, 0, n / 2 + n % 2);
  s.q3 = median_of_sorted(values, n / 2, n);
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(n);
  return s;
}

CellResult aggregate_cell(std::vector<TrialRecord> trials) {
  CellResult cell;
  cell.runs = static_cast<int>(trials.size());

  std::vector<double> delays, energies;
  std::vector<std::size_t> ok;  // indices of trials that produced a result
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const auto& rec = trials[t];
    if (rec.threw) {
      ++cell.failures;
      if (cell.thrown++ == 0) cell.first_exception = rec.error;
      if (std::find(cell.errors.begin(), cell.errors.end(), rec.error) ==
          cell.errors.end()) {
        cell.errors.push_back(rec.error);
      }
      continue;
    }
    if (rec.result.failed) {
      ++cell.failures;
      if (std::find(cell.errors.begin(), cell.errors.end(), rec.result.failure) ==
          cell.errors.end()) {
        cell.errors.push_back(rec.result.failure);
      }
    }
    ok.push_back(t);
    delays.push_back(rec.result.delay_s);
    energies.push_back(rec.result.energy_j);
  }

  cell.delay = Summary::of(delays);
  cell.energy = Summary::of(energies);

  // Digest drill-down: fold the trials' run-digest roots in trial order.
  // One trial without a digest poisons the cell (has_digest stays false)
  // rather than silently fingerprinting a partial set.
  if (!ok.empty()) {
    sim::DigestStream roots;
    bool all = true;
    for (std::size_t t : ok) {
      const auto& det = trials[t].result.determinism;
      if (!det.has_value()) {
        all = false;
        break;
      }
      roots.fold(det->digest.root());
    }
    if (all) {
      cell.digest_root = roots.hash;
      cell.has_digest = true;
    }
  }

  if (ok.empty()) {
    cell.result.failed = true;
    cell.result.failure = cell.errors.empty() ? "no trials completed" : cell.errors.front();
    return cell;
  }

  // Representative: closest delay to the delay median; ties broken by
  // closest energy to the energy median, then lowest trial index.  For odd
  // trial counts this is exactly the median-delay trial; for even counts it
  // is the nearer of the two middle trials — never an arbitrary front().
  std::size_t best = ok.front();
  double best_dd = std::abs(trials[best].result.delay_s - cell.delay.median);
  double best_de = std::abs(trials[best].result.energy_j - cell.energy.median);
  for (std::size_t t : ok) {
    const double dd = std::abs(trials[t].result.delay_s - cell.delay.median);
    const double de = std::abs(trials[t].result.energy_j - cell.energy.median);
    if (dd < best_dd || (dd == best_dd && de < best_de)) {
      best = t;
      best_dd = dd;
      best_de = de;
    }
  }
  cell.result = std::move(trials[best].result);
  cell.result.delay_s = cell.delay.median;
  cell.result.energy_j = cell.energy.median;
  return cell;
}

core::EnergyDelay CellResult::normalized_to(const CellResult& baseline) const {
  return core::EnergyDelay{energy.median / baseline.energy.median,
                           delay.median / baseline.delay.median};
}

const CellResult* CampaignResult::find(const std::string& workload,
                                       const std::vector<std::string>& labels) const {
  for (const auto& c : cells) {
    if (c.workload != workload) continue;
    if (!labels.empty() && c.labels != labels) continue;
    return &c;
  }
  return nullptr;
}

std::vector<const CellResult*> CampaignResult::select(const std::string& workload) const {
  std::vector<const CellResult*> out;
  for (const auto& c : cells) {
    if (c.workload == workload) out.push_back(&c);
  }
  return out;
}

std::string CampaignResult::table() const {
  std::vector<std::string> headers{"workload"};
  headers.insert(headers.end(), axis_names.begin(), axis_names.end());
  headers.insert(headers.end(), {"trials", "delay (s)", "energy (J)", "IQR delay",
                                 "failures"});
  analysis::TextTable t(headers);
  for (const auto& c : cells) {
    std::vector<std::string> row{c.workload};
    row.insert(row.end(), c.labels.begin(), c.labels.end());
    row.push_back(std::to_string(c.runs));
    row.push_back(analysis::fmt(c.delay.median, 3));
    row.push_back(analysis::fmt(c.energy.median, 1));
    row.push_back(analysis::fmt(c.delay.q1, 3) + ".." + analysis::fmt(c.delay.q3, 3));
    row.push_back(c.failures == 0 ? "-" : std::to_string(c.failures));
    t.add_row(row);
  }
  return t.str();
}

std::string CampaignResult::tsv() const {
  std::string out = "workload";
  for (const auto& a : axis_names) out += "\t" + a;
  out +=
      "\ttrials\tfailures\tdelay_median\tdelay_q1\tdelay_q3\tdelay_min\tdelay_max"
      "\tdelay_mean\tenergy_median\tenergy_q1\tenergy_q3\tenergy_min\tenergy_max"
      "\tenergy_mean\ttransitions\tcollisions\tmessages\tutilization\tfailed\terrors\n";
  char buf[64];
  auto hex = [&](double v) {
    std::snprintf(buf, sizeof buf, "\t%a", v);
    out += buf;
  };
  // Separate appends rather than `"\t" + std::to_string(...)`: GCC 12 at -O3
  // reports a false -Wrestrict inside that operator+.
  for (const auto& c : cells) {
    out += c.workload;
    for (const auto& l : c.labels) out += "\t" + l;
    out += '\t';
    out += std::to_string(c.runs);
    out += '\t';
    out += std::to_string(c.failures);
    for (double v : {c.delay.median, c.delay.q1, c.delay.q3, c.delay.min, c.delay.max,
                     c.delay.mean, c.energy.median, c.energy.q1, c.energy.q3,
                     c.energy.min, c.energy.max, c.energy.mean}) {
      hex(v);
    }
    out += '\t';
    out += std::to_string(c.result.dvs_transitions);
    out += '\t';
    out += std::to_string(c.result.net_collisions);
    out += '\t';
    out += std::to_string(c.result.messages);
    hex(c.result.mean_utilization);
    out += c.result.failed ? "\t1" : "\t0";
    out += "\t";
    for (std::size_t i = 0; i < c.errors.size(); ++i) {
      if (i > 0) out += " | ";
      out += c.errors[i];
    }
    out += "\n";
  }
  return out;
}

std::uint64_t CampaignResult::fingerprint() const {
  bool all_digests = !cells.empty();
  for (const auto& c : cells) {
    if (!c.has_digest) {
      all_digests = false;
      break;
    }
  }
  if (all_digests) {
    sim::DigestStream h;
    for (const auto& c : cells) h.fold(c.digest_root);
    return h.hash;
  }
  const std::string s = tsv();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pcd::campaign
