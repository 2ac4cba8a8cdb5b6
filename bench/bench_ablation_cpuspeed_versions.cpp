// Ablation (§5.1): CPUSPEED 1.1 (0.1 s interval) vs 1.2.1 (2 s interval),
// plus a threshold sweep — the paper's planned future work on tuning the
// daemon for codes that perform poorly.
//
// Paper: "CPUSPEED version 1.1 always chooses the highest CPU speed for
// most NPB codes without significant energy savings" — the short interval
// makes any compute spike jump straight back to full speed.
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Ablation: CPUSPEED version (polling interval) and thresholds").c_str());

  campaign::ExperimentSpec spec;
  for (const auto& name : {"FT", "CG", "MG", "EP"}) {
    spec.workload(*apps::npb_by_name(name, args.scale));
  }
  spec.base(bench::base_config(args))
      .axis(campaign::Axis::strategies(
          "daemon",
          {{"1400", [](core::RunConfig& c) { c.static_mhz = 1400; }},
           {"v1.1",
            [](core::RunConfig& c) { c.daemon = core::CpuspeedParams::v1_1(); }},
           {"v1.2.1",
            [](core::RunConfig& c) { c.daemon = core::CpuspeedParams::v1_2_1(); }}}))
      .trials(args.trials);
  const auto result = bench::run(spec, args);

  analysis::TextTable t({"code", "v1.1 (0.1s) delay/energy", "v1.2.1 (2s) delay/energy",
                         "v1.2.1 mean f (MHz)"});
  for (const auto& [label, workload] : spec.workload_entries()) {
    const auto v11 = bench::normalized(result, label, {"v1.1"}, {"1400"});
    const auto v121 = bench::normalized(result, label, {"v1.2.1"}, {"1400"});
    const auto* v121_cell = result.find(label, {"v1.2.1"});
    t.add_row({workload.name,
               analysis::fmt(v11.delay) + " / " + analysis::fmt(v11.energy),
               analysis::fmt(v121.delay) + " / " + analysis::fmt(v121.energy),
               std::to_string(static_cast<int>(v121_cell->result.dvs_transitions)) +
                   " transitions"});
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("Threshold sweep for MG (usage_threshold; v1.2.1 interval):\n");
  campaign::ExperimentSpec sweep;
  core::RunConfig daemon_base = bench::base_config(args);
  daemon_base.daemon = core::CpuspeedParams::v1_2_1();
  sweep.workload(*apps::npb_by_name("MG", args.scale))
      .base(daemon_base)
      .axis(campaign::Axis::numeric("usage threshold", {0.60, 0.75, 0.85, 0.95},
                                    [](core::RunConfig& c, double usage) {
                                      auto& d = std::get<core::CpuspeedParams>(*c.daemon);
                                      d.usage_threshold = usage;
                                      if (d.max_threshold <= usage) {
                                        d.max_threshold = usage + 0.04;
                                      }
                                    }))
      .trials(args.trials);
  const auto sweep_result = bench::run(sweep, args);

  core::RunConfig base_cfg = bench::base_config(args);
  base_cfg.static_mhz = 1400;
  const auto base = campaign::run_trials(*apps::npb_by_name("MG", args.scale),
                                         base_cfg, args.trials, args.threads);
  for (const auto& cell : sweep_result.cells) {
    std::printf("  usage<%.2f: delay %.2f energy %.2f\n", cell.numbers.front(),
                cell.result.delay_s / base.delay_s,
                cell.result.energy_j / base.energy_j);
  }
  std::printf("\nLower thresholds keep MG fast (no savings); higher thresholds "
              "trade large delay for energy — the paper's MG/BT pathology.\n");
  return 0;
}
