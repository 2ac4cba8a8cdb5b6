// Quickstart: build a power-aware cluster, run a workload under the three
// DVS strategies, and print measured delay/energy.
//
//   ./quickstart [code] [scale]
//
// `code` is an NPB name (FT, CG, EP, IS, LU, MG, BT, SP) or "swim";
// default FT at scale 0.5.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const std::string code = argc > 1 ? argv[1] : "FT";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  auto workload = apps::npb_by_name(code, scale);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", code.c_str());
    return 1;
  }
  std::printf("workload %s (%d ranks): %s\n\n", workload->name.c_str(),
              workload->ranks, workload->description.c_str());

  auto report = [](const char* label, const core::RunResult& r) {
    std::printf("%-22s delay %7.2f s   energy %9.0f J   util %4.2f   "
                "transitions %5lld   collisions %lld\n",
                label, r.delay_s, r.energy_j, r.mean_utilization,
                static_cast<long long>(r.dvs_transitions),
                static_cast<long long>(r.net_collisions));
  };

  // Baseline: no DVS (all nodes at the highest frequency).
  const auto baseline = core::run_workload(*workload);
  report("baseline (1400 MHz)", baseline);

  // EXTERNAL: a single static frequency on every node.
  for (int mhz : {1200, 1000, 800, 600}) {
    char label[32];
    std::snprintf(label, sizeof label, "external (%d MHz)", mhz);
    core::RunConfig cfg;
    cfg.static_mhz = mhz;
    report(label, core::run_workload(*workload, cfg));
  }

  // CPUSPEED daemon.
  core::RunConfig auto_cfg;
  auto_cfg.daemon = core::CpuspeedParams::v1_2_1();
  report("cpuspeed 1.2.1 (auto)", core::run_workload(*workload, auto_cfg));

  // INTERNAL: phase-based scheduling (the paper's FT recipe).
  core::RunConfig internal_cfg;
  internal_cfg.hooks = core::internal_phase_hooks(1400, 600);
  report("internal (1400/600)", core::run_workload(*workload, internal_cfg));

  std::printf("\nNormalize against the baseline row to compare with the paper's "
              "tables (energy < 1.0 = savings).\n");
  return 0;
}
