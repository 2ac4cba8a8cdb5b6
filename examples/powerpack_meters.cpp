// PowerPack measurement walkthrough: the paper's §4.2 ACPI battery
// protocol and the Baytech cross-check, applied to one measured FT run.
#include <cstdio>
#include <cstdlib>

#include "apps/npb.hpp"
#include "core/runner.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  auto ft = apps::make_ft(scale);

  std::printf("measurement protocol (paper section 4.2):\n"
              "  1. fully charge all batteries\n"
              "  2. disconnect building power via the Baytech strip\n"
              "  3. discharge ~5 minutes for stable readings\n"
              "  4. run the application, difference the reported capacities\n\n");

  core::RunConfig cfg;
  cfg.use_meters = true;
  const auto r = core::run_workload(ft, cfg);

  std::printf("%s: %.1f s\n", ft.name.c_str(), r.delay_s);
  std::printf("  exact integrator : %8.0f J\n", r.energy_j);
  std::printf("  ACPI batteries   : %8.0f J  (%+.1f%% — 15-20 s refresh, 1 mWh "
              "quanta)\n",
              r.energy_acpi_j, 100 * (r.energy_acpi_j - r.energy_j) / r.energy_j);
  std::printf("  Baytech estimate : %8.0f J  (%+.1f%% — per-minute averages)\n",
              r.energy_baytech_j,
              100 * (r.energy_baytech_j - r.energy_j) / r.energy_j);
  std::printf("\nthe two independent instruments agree within a few percent for "
              "minutes-long runs — the redundancy the paper used to validate "
              "its ACPI numbers.\n");
  return 0;
}
