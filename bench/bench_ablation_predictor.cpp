// Ablation (paper §7 future work): the phase-predictor daemon vs CPUSPEED
// 1.2.1 across all NPB codes — does better prediction fix the MG/BT
// pathology while keeping the FT/IS savings?
#include <cstdio>

#include "bench/bench_common.hpp"
#include "core/daemon.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Ablation: phase-predictor daemon (future work) vs CPUSPEED 1.2.1").c_str());

  campaign::ExperimentSpec spec;
  spec.workloads(apps::all_npb(args.scale))
      .base(bench::base_config(args))
      .axis(campaign::Axis::strategies(
          "scheduler",
          {{"1400", [](core::RunConfig& c) { c.static_mhz = 1400; }},
           {"cpuspeed",
            [](core::RunConfig& c) { c.daemon = core::CpuspeedParams::v1_2_1(); }},
           {"predictor",
            [](core::RunConfig& c) { c.daemon = core::PhasePredictorParams{}; }}}))
      .trials(args.trials);
  const auto result = bench::run(spec, args);

  analysis::TextTable t({"code", "cpuspeed delay/energy", "predictor delay/energy",
                         "predictor wins ED2P?"});
  for (const auto& [label, workload] : spec.workload_entries()) {
    const auto cs_n = bench::normalized(result, label, {"cpuspeed"}, {"1400"});
    const auto pred_n = bench::normalized(result, label, {"predictor"}, {"1400"});
    const bool wins = core::fused_value(core::Metric::ED2P, pred_n) <
                      core::fused_value(core::Metric::ED2P, cs_n);
    t.add_row({workload.name,
               analysis::fmt(cs_n.delay) + " / " + analysis::fmt(cs_n.energy),
               analysis::fmt(pred_n.delay) + " / " + analysis::fmt(pred_n.energy),
               wins ? "yes" : "no"});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("The predictor classifies windows (compute / slack / mixed) and "
              "jumps directly instead of stepping — removing CPUSPEED's lag on "
              "phase boundaries and its drift on blended codes.\n");
  return 0;
}
