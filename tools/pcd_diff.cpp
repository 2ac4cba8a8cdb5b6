// pcd_diff: determinism digest tooling for simulated runs.
//
// Three subcommands chain into the divergence-debugging workflow
// (README.md "Debugging nondeterminism"):
//
//   pcd_diff run      --workload cg [--scale S --seed N --daemon
//                      --perturb Q --checkpoint-every K] --out FILE
//       Execute one instrumented run and write its RunDigest (text v1).
//       Exit 0 written, 2 on usage errors or a configuration the runner
//       rejects.
//
//   pcd_diff compare  FILE_A FILE_B
//       Diff two digest files.  Exit 0 identical, 1 diverged, 2 error.
//
//   pcd_diff localize --workload cg [--scale S --seed N --daemon
//                      --perturb Q --checkpoint-every K]
//                      [--expect-divergence]
//       Run the baseline config and the same config with the seq
//       perturbation applied as run B, diff their digests, and on
//       divergence re-run both with capture focused on the first diverging
//       checkpoint interval — printing the first diverging event (site
//       label, sequence number) and its full causal chain, all in one
//       invocation.  Exit 0 when the outcome matches the expectation
//       (identical by default, diverged-and-localized with
//       --expect-divergence), 1 otherwise, 2 on usage errors or a
//       configuration the runner rejects.
//
// Digests are single-engine only: a sharded run carries no observers.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "parse_number.hpp"
#include "telemetry/determinism.hpp"

namespace {

using pcd::telemetry::DeterminismOptions;
using pcd::telemetry::RunCapture;
using pcd::telemetry::RunDigest;
using pcd::tools::parse_number;

struct Options {
  std::string workload = "cg";
  double scale = 0.02;
  std::uint64_t seed = 1;
  bool daemon = false;
  std::uint64_t perturb = 0;
  std::uint64_t checkpoint_every = 4096;
  std::string out;
  bool expect_divergence = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: pcd_diff run --workload NAME [--scale S] [--seed N] "
               "[--daemon]\n"
               "                    [--perturb Q] [--checkpoint-every K] "
               "--out FILE\n"
               "       pcd_diff compare FILE_A FILE_B\n"
               "       pcd_diff localize --workload NAME [--scale S] [--seed N] "
               "[--daemon]\n"
               "                    [--perturb Q] [--checkpoint-every K] "
               "[--expect-divergence]\n"
               "workloads: ft cg ep is lu mg bt sp\n");
  return 2;
}

std::optional<pcd::apps::Workload> make_workload(const std::string& name,
                                                 double scale) {
  using namespace pcd::apps;
  if (name == "ft") return make_ft(scale);
  if (name == "cg") return make_cg(scale);
  if (name == "ep") return make_ep(scale);
  if (name == "is") return make_is(scale);
  if (name == "lu") return make_lu(scale);
  if (name == "mg") return make_mg(scale);
  if (name == "bt") return make_bt(scale);
  if (name == "sp") return make_sp(scale);
  return std::nullopt;
}

bool parse_common(int argc, char** argv, int start, Options* o) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      o->workload = v;
    } else if (a == "--scale") {
      const char* v = next();
      if (v == nullptr || !parse_number("pcd_diff", "--scale", v, &o->scale)) return false;
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr || !parse_number("pcd_diff", "--seed", v, &o->seed)) return false;
    } else if (a == "--perturb") {
      const char* v = next();
      if (v == nullptr || !parse_number("pcd_diff", "--perturb", v, &o->perturb)) return false;
    } else if (a == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr || !parse_number("pcd_diff", "--checkpoint-every", v, &o->checkpoint_every)) return false;
    } else if (a == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      o->out = v;
    } else if (a == "--daemon") {
      o->daemon = true;
    } else if (a == "--expect-divergence") {
      o->expect_divergence = true;
    } else {
      std::fprintf(stderr, "pcd_diff: unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  return o->scale > 0;
}

pcd::core::RunConfig base_config(const Options& o) {
  pcd::core::RunConfig cfg;
  cfg.seed = o.seed;
  if (o.daemon) cfg.daemon = pcd::core::CpuspeedParams::v1_2_1();
  return cfg;
}

// One instrumented run of the workload under `det`; the perturbation (if
// any) rides in `det` so the localizer can inject it on run B only.
RunCapture instrumented_run(const Options& o, std::uint64_t perturb,
                            const DeterminismOptions& det) {
  auto w = make_workload(o.workload, o.scale);
  pcd::core::RunConfig cfg = base_config(o);
  cfg.determinism = det;
  cfg.determinism.perturb_seq = perturb;
  auto result = pcd::core::run_workload(*w, cfg);
  return result.determinism.has_value() ? std::move(*result.determinism)
                                        : RunCapture{};
}

int cmd_run(const Options& o) {
  if (!make_workload(o.workload, o.scale).has_value()) {
    std::fprintf(stderr, "pcd_diff: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  DeterminismOptions det;
  det.digest = true;
  det.checkpoint_every = o.checkpoint_every;
  const RunCapture cap = instrumented_run(o, o.perturb, det);
  const std::string text = cap.digest.to_text();
  if (o.out.empty() || o.out == "-") {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(o.out, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "pcd_diff: cannot write '%s'\n", o.out.c_str());
      return 2;
    }
    f << text;
  }
  std::fprintf(stderr, "pcd_diff: %s seed=%llu root=%016llx (%llu events)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(cap.digest.root()),
               static_cast<unsigned long long>(
                   cap.digest.streams[RunDigest::kEvents].count));
  return 0;
}

std::optional<RunDigest> load_digest(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "pcd_diff: cannot read '%s'\n", path);
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  auto digest = RunDigest::parse(ss.str());
  if (!digest.has_value()) {
    std::fprintf(stderr, "pcd_diff: '%s' is not a pcd-digest v1 file\n", path);
  }
  return digest;
}

int cmd_compare(int argc, char** argv) {
  if (argc != 4) return usage();
  const auto a = load_digest(argv[2]);
  const auto b = load_digest(argv[3]);
  if (!a.has_value() || !b.has_value()) return 2;
  const auto d = pcd::telemetry::diff(*a, *b);
  std::printf("%s\n", d.summary().c_str());
  return d.diverged ? 1 : 0;
}

int cmd_localize(const Options& o) {
  if (!make_workload(o.workload, o.scale).has_value()) {
    std::fprintf(stderr, "pcd_diff: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const auto run_a = [&o](const DeterminismOptions& det) {
    return instrumented_run(o, 0, det);
  };
  const auto run_b = [&o](const DeterminismOptions& det) {
    return instrumented_run(o, o.perturb, det);
  };
  const auto r = pcd::telemetry::localize(run_a, run_b, o.checkpoint_every);
  std::fputs(r.report.c_str(), stdout);
  if (o.expect_divergence) {
    return r.diverged && (r.first_a.has_value() || r.first_b.has_value()) ? 0 : 1;
  }
  return r.diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "compare") return cmd_compare(argc, argv);
  Options o;
  if (!parse_common(argc, argv, 2, &o)) return usage();
  try {
    if (cmd == "run") return cmd_run(o);
    if (cmd == "localize") return cmd_localize(o);
  } catch (const std::exception& e) {
    // A configuration the runner rejects (std::invalid_argument with every
    // issue named) is a usage error, not a crash.
    std::fprintf(stderr, "pcd_diff: %s\n", e.what());
    return 2;
  }
  return usage();
}
