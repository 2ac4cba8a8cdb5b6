// The paper's FT walkthrough (§5.3.1), end to end:
//   1. profile FT with the MPE-style tracer and draw the four observations,
//   2. derive the internal schedule (low speed around the all-to-all),
//   3. verify against EXTERNAL and CPUSPEED.
#include <cstdio>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "trace/profile.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  auto ft = apps::make_ft(scale);

  // --- step 1: performance profiling (Figure 9) ---
  std::printf("step 1: profiling %s\n", ft.name.c_str());
  core::RunConfig trace_cfg;
  trace_cfg.collect_trace = true;
  const auto profiled = core::run_workload(ft, trace_cfg);
  const auto& p = *profiled.profile;
  std::printf("  comm:comp = %.2f:1, imbalance %.1f%%, iteration %.2f s\n",
              p.comm_to_comp(), 100 * p.imbalance(), p.mean_iteration_s);
  std::printf("  -> communication-bound, balanced, long phases: scale the CPU\n"
              "     down for the all-to-all, back up for compute (Figure 10).\n\n");

  // --- step 2+3: internal schedule vs alternatives ---
  const double base_delay = profiled.delay_s;
  const double base_energy = profiled.energy_j;

  auto report = [&](const char* label, const core::RunResult& r) {
    std::printf("  %-24s delay %.2f energy %.2f (normalized)\n", label,
                r.delay_s / base_delay, r.energy_j / base_energy);
  };

  std::printf("step 2: internal scheduling (set_cpuspeed 600 around mpi_alltoall)\n");
  core::RunConfig internal_cfg;
  internal_cfg.hooks = core::internal_phase_hooks(1400, 600);
  report("internal 1400/600", core::run_workload(ft, internal_cfg));

  std::printf("\nstep 3: compare against the other strategies\n");
  core::RunConfig external_cfg;
  external_cfg.static_mhz = 600;
  report("external 600 MHz", core::run_workload(ft, external_cfg));
  core::RunConfig daemon_cfg;
  daemon_cfg.daemon = core::CpuspeedParams::v1_2_1();
  report("cpuspeed daemon", core::run_workload(ft, daemon_cfg));

  std::printf("\npaper: internal saves 36%% with no noticeable delay; external@600 "
              "saves 38%% but costs 13%% delay; cpuspeed saves 24%% at 4%%.\n");
  return 0;
}
