// CPUSPEED daemon behaviour across versions and thresholds, watching one
// node's operating-point residency — why history-based scheduling works
// for phase-heavy codes (FT) and fails for blended ones (MG).
//
//   ./cpuspeed_daemon_demo [code] [scale]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/npb.hpp"
#include "core/runner.hpp"

using namespace pcd;

namespace {

// Runs the daemon configuration and prints per-operating-point residency.
void run_and_report(const apps::Workload& workload, const char* label,
                    core::CpuspeedParams params, const core::RunResult& base) {
  // Build the run manually so the node stats stay inspectable.
  core::RunConfig cfg;
  cfg.daemon = params;
  const auto r = core::run_workload(workload, cfg);
  std::printf("%-28s delay %.2f energy %.2f, %lld speed changes, mean util %.2f\n",
              label, r.delay_s / base.delay_s, r.energy_j / base.energy_j,
              static_cast<long long>(r.dvs_transitions), r.mean_utilization);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string code = argc > 1 ? argv[1] : "FT";
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  auto workload = apps::npb_by_name(code, scale);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", code.c_str());
    return 1;
  }

  core::RunConfig base_cfg;
  base_cfg.static_mhz = 1400;
  const auto base = core::run_workload(*workload, base_cfg);
  std::printf("%s baseline: %.1f s, %.0f J\n\n", workload->name.c_str(), base.delay_s,
              base.energy_j);

  run_and_report(*workload, "cpuspeed 1.1 (0.1 s)", core::CpuspeedParams::v1_1(), base);
  run_and_report(*workload, "cpuspeed 1.2.1 (2 s)", core::CpuspeedParams::v1_2_1(),
                 base);

  std::printf("\nthreshold variations (interval 2 s):\n");
  for (double usage : {0.6, 0.75, 0.85, 0.95}) {
    core::CpuspeedParams p = core::CpuspeedParams::v1_2_1();
    p.usage_threshold = usage;
    if (p.max_threshold <= usage) p.max_threshold = usage + 0.04;
    char label[64];
    std::snprintf(label, sizeof label, "  usage threshold %.2f", usage);
    run_and_report(*workload, label, p, base);
  }
  std::printf("\npaper: v1.1's 0.1 s interval is 'equivalent to no DVS'; v1.2.1 "
              "saves energy but costs 10%%+ delay whenever savings exceed 25%%.\n");
  return 0;
}
