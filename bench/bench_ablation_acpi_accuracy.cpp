// Ablation (§4.2/§5): accuracy of the ACPI battery measurement protocol vs
// run length, and the Baytech cross-check.  The paper runs applications
// for minutes (or iterates them) specifically so the 15-20 s ACPI refresh
// and 1 mWh quantization do not distort the energy numbers.
//
// The run-length sweep is a campaign whose only axis is the workload list:
// the same FT kernel instantiated at six problem scales.
#include <cmath>
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Ablation: ACPI/Baytech measurement error vs run length").c_str());

  core::RunConfig cfg = bench::base_config(args);
  cfg.use_meters = true;
  campaign::ExperimentSpec spec;
  for (double scale : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    spec.workload(apps::make_ft(scale), "FT scale " + analysis::fmt(scale, 2));
  }
  spec.base(cfg).trials(1);
  const auto result = bench::run(spec, args);

  analysis::TextTable t({"run length", "true J", "ACPI J", "ACPI err %",
                         "Baytech J", "Baytech err %"});
  for (const auto& cell : result.cells) {
    const auto& r = cell.result;
    const double acpi_err = 100 * (r.energy_acpi_j - r.energy_j) / r.energy_j;
    const double bay_err = 100 * (r.energy_baytech_j - r.energy_j) / r.energy_j;
    t.add_row({analysis::fmt(r.delay_s, 0) + " s", analysis::fmt(r.energy_j, 0),
               analysis::fmt(r.energy_acpi_j, 0), analysis::fmt(acpi_err, 1),
               analysis::fmt(r.energy_baytech_j, 0), analysis::fmt(bay_err, 1)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Short runs suffer from the stale 15-20 s ACPI refresh and 1 mWh "
              "quantization; minutes-long runs converge — reproducing why the "
              "paper sized problems 'measured in minutes' and repeated trials.\n");
  return 0;
}
