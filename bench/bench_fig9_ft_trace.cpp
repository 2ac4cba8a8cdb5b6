// Figure 9: performance trace of FT.C.8 (MPE/Jumpshot in the paper; here
// the tracer's profile + ASCII timeline), verifying the observations the
// internal-scheduling design rests on:
//   1. FT is communication-bound, comm:comp ~ 2:1;
//   2. most execution time is all-to-all communication;
//   3. iteration time >> CPU speed transition overhead;
//   4. the workload is balanced across nodes.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "trace/profile.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading("Figure 9: FT.C.8 performance trace").c_str());

  core::RunConfig cfg = bench::base_config(args);
  cfg.collect_trace = true;
  const double scale = std::min(args.scale, 0.25);  // short trace is readable
  const auto result = core::run_workload(apps::make_ft(scale), cfg);

  std::printf("%s\n", result.timeline.c_str());
  std::printf("%s\n", trace::render_profile(*result.profile).c_str());

  const auto& p = *result.profile;
  std::printf("observations (paper expectations):\n");
  std::printf("  1. comm:comp ratio = %.2f : 1 (paper ~2:1) %s\n", p.comm_to_comp(),
              p.comm_to_comp() > 1.5 && p.comm_to_comp() < 2.6 ? "[ok]" : "[off]");
  double coll = 0, comm = 0;
  for (const auto& r : p.ranks) {
    coll += r.collective_s;
    comm += r.comm_s();
  }
  std::printf("  2. all-to-all share of comm = %.0f%% (paper: dominant) %s\n",
              100 * coll / comm, coll / comm > 0.8 ? "[ok]" : "[off]");
  std::printf("  3. iteration time %.2f s >> transition cost ~25 us %s\n",
              p.mean_iteration_s, p.mean_iteration_s > 0.1 ? "[ok]" : "[off]");
  std::printf("  4. compute imbalance across ranks = %.1f%% (paper: balanced) %s\n",
              100 * p.imbalance(), p.imbalance() < 0.1 ? "[ok]" : "[off]");
  return 0;
}
