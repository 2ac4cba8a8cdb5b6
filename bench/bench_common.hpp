// Shared helpers for the per-table/per-figure bench binaries.
//
// Every bench accepts:
//   --scale <x>    workload scale factor (default 0.5; 1.0 = paper-scale
//                  minutes-long runs)
//   --trials <n>   repeated measurements per point (default 1; the paper
//                  used >= 3)
//   --seed <n>     base RNG seed
//   --threads <n>  campaign worker threads (default 0 = all cores; 1 =
//                  serial reference)
//   --progress     live progress line on stderr
//   --help         print this list and exit
// or the PCD_SCALE / PCD_TRIALS / PCD_THREADS environment variables.  Values
// are read whole (tools/parse_number.hpp): a value that is not a number, a
// scale that is not positive, zero trials or an unknown flag prints the
// usage and exits 2 instead of running a different benchmark.
//
// Sweeps and repeated trials all go through campaign::ExperimentSpec — the
// per-bench for-loops this header used to carry are gone; a bench declares
// its run matrix and post-processes the aggregated cells.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "campaign/sweeps.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "tools/parse_number.hpp"

namespace pcd::bench {

struct BenchArgs {
  double scale = 0.5;
  int trials = 1;
  std::uint64_t seed = 1;
  int threads = 0;  // 0 = hardware concurrency
  bool progress = false;

  static BenchArgs parse(int argc, char** argv) {
    const char* tool = argc > 0 ? std::strrchr(argv[0], '/') : nullptr;
    tool = tool != nullptr ? tool + 1 : (argc > 0 ? argv[0] : "bench");
    BenchArgs a;
    bool ok = true;
    const auto read = [&](const char* name, const char* v, auto* out) {
      if (!ok) return;
      if (v == nullptr) std::fprintf(stderr, "%s: %s needs a value\n", tool, name);
      ok = v != nullptr && tools::parse_number(tool, name, v, out);
    };
    if (const char* e = std::getenv("PCD_SCALE")) read("PCD_SCALE", e, &a.scale);
    if (const char* e = std::getenv("PCD_TRIALS")) read("PCD_TRIALS", e, &a.trials);
    if (const char* e = std::getenv("PCD_THREADS")) read("PCD_THREADS", e, &a.threads);
    for (int i = 1; ok && i < argc; ++i) {
      const char* flag = argv[i];
      if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0) {
        usage(stdout, tool);
        std::exit(0);
      }
      if (std::strcmp(flag, "--progress") == 0) {
        a.progress = true;
        continue;
      }
      const char* v = i + 1 < argc ? argv[++i] : nullptr;
      if (std::strcmp(flag, "--scale") == 0) {
        read(flag, v, &a.scale);
      } else if (std::strcmp(flag, "--trials") == 0) {
        read(flag, v, &a.trials);
      } else if (std::strcmp(flag, "--seed") == 0) {
        read(flag, v, &a.seed);
      } else if (std::strcmp(flag, "--threads") == 0) {
        read(flag, v, &a.threads);
      } else {
        std::fprintf(stderr, "%s: unknown option '%s'\n", tool, flag);
        ok = false;
      }
    }
    if (ok && a.scale <= 0) {
      std::fprintf(stderr, "%s: the scale must be positive\n", tool);
      ok = false;
    }
    if (ok && a.trials < 1) {
      std::fprintf(stderr, "%s: the trial count must be at least 1\n", tool);
      ok = false;
    }
    if (!ok) {
      usage(stderr, tool);
      std::exit(2);
    }
    return a;
  }

  static void usage(std::FILE* to, const char* tool) {
    std::fprintf(to,
                 "usage: %s [--scale X] [--trials N] [--seed N] [--threads N] "
                 "[--progress]\n"
                 "  (or PCD_SCALE / PCD_TRIALS / PCD_THREADS)\n",
                 tool);
  }
};

inline core::RunConfig base_config(const BenchArgs& args) {
  core::RunConfig c;
  c.seed = args.seed;
  return c;
}

inline campaign::CampaignOptions options(const BenchArgs& args) {
  campaign::CampaignOptions o;
  o.threads = args.threads;
  if (args.progress) {
    o.on_progress = [](const campaign::Progress& p) {
      std::fprintf(stderr, "\r[%zu/%zu] %-48.48s", p.completed, p.total,
                   p.cell.c_str());
      if (p.completed == p.total) std::fprintf(stderr, "\n");
    };
  }
  return o;
}

/// Declares-and-runs: every bench's run matrix goes through here.
inline campaign::CampaignResult run(const campaign::ExperimentSpec& spec,
                                    const BenchArgs& args) {
  return campaign::CampaignRunner(options(args)).run(spec);
}

/// Median energy/delay of one cell normalized to a baseline cell.
inline core::EnergyDelay normalized(const campaign::CampaignResult& r,
                                    const std::string& workload,
                                    const std::vector<std::string>& labels,
                                    const std::vector<std::string>& base_labels) {
  const auto* cell = r.find(workload, labels);
  const auto* base = r.find(workload, base_labels);
  if (cell == nullptr || base == nullptr) {
    throw std::invalid_argument("missing campaign cell for '" + workload + "'");
  }
  return cell->normalized_to(*base);
}

/// The five NEMO frequencies, ascending.
inline std::vector<int> nemo_freqs() { return {600, 800, 1000, 1200, 1400}; }

}  // namespace pcd::bench

#include <algorithm>

#include "analysis/reference.hpp"

namespace pcd::bench {

/// Shared body of Figures 6 and 7: EXTERNAL control driven by a fused
/// metric, reported next to what the paper's own Table 2 data selects.
/// One campaign covers every (code x frequency x trial) point.
inline void run_external_metric_figure(core::Metric metric, const BenchArgs& args) {
  campaign::ExperimentSpec spec;
  spec.workloads(apps::all_npb(args.scale))
      .base(base_config(args))
      .axis(campaign::Axis::static_mhz(nemo_freqs()))
      .trials(args.trials);
  const auto result = run(spec, args);

  struct Row {
    std::string code;
    int freq;
    core::EnergyDelay at;
    int paper_freq = 0;
    core::EnergyDelay paper_at;
    bool paper_known = false;
  };
  std::vector<Row> rows;

  for (const auto& [label, workload] : spec.workload_entries()) {
    const auto crescendo = campaign::sweep_of(result, label).normalized();
    const auto choice = core::select_operating_point(crescendo, metric);

    const auto* ref = analysis::table2_row(workload.name);
    Row row;
    row.code = label;
    row.freq = choice.freq_mhz;
    row.at = choice.at;
    if (ref != nullptr && ref->energy_known) {
      core::Crescendo paper_crescendo;
      for (const auto& [f, ed] : ref->at) paper_crescendo[f] = ed;
      const auto paper_choice = core::select_operating_point(paper_crescendo, metric);
      row.paper_freq = paper_choice.freq_mhz;
      row.paper_at = paper_choice.at;
      row.paper_known = true;
    }
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.at.delay < b.at.delay; });

  analysis::TextTable t({"code", "chosen f", "norm delay", "norm energy",
                         "paper choice", "paper delay/energy"});
  for (const auto& r : rows) {
    t.add_row({r.code, std::to_string(r.freq) + " MHz", analysis::fmt(r.at.delay),
               analysis::fmt(r.at.energy),
               r.paper_known ? std::to_string(r.paper_freq) + " MHz" : "n/a",
               r.paper_known ? analysis::fmt(r.paper_at.delay) + " / " +
                                   analysis::fmt(r.paper_at.energy)
                             : "n/a"});
  }
  std::printf("%s\n", t.str().c_str());
}

}  // namespace pcd::bench
