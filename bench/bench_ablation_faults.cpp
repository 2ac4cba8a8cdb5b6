// Ablation: what each resilience mechanism buys under escalating faults.
//
// Runs CG under the CPUSPEED daemon while sweeping fault severity
// (healthy, straggler hazard, cluster-wide stuck DVS, node crash) crossed
// with the armed resilience (none / watchdog / checkpoint-restart), and
// reports delay and energy vs. the fault-free daemon run plus the
// detect/recover counters.  The whole sweep is one campaign over a
// "scenario" strategy axis; the zero-cost claim is visible in the first
// two rows: arming resilience with no faults reproduces the healthy run
// bit-for-bit.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto workload = apps::make_cg(args.scale);
  const int ranks = workload.ranks;

  core::CpuspeedParams daemon;
  daemon.interval_s = 0.2;
  const core::RunConfig base = core::RunConfigBuilder()
                                   .seed(args.seed)
                                   .daemon(daemon)
                                   .build();

  // Each scenario edits the base config.  The list is built in one
  // initializer (no growth by emplace_back): GCC 12 reports a false
  // -Warray-bounds on the inlined reallocation of the empty vector.
  const auto stuck_dvs = [ranks](bool watchdog) {
    return [watchdog, ranks](core::RunConfig& c) {
      for (int n = 0; n < ranks; ++n) {
        c.faults.events.push_back(fault::stuck_dvs(0.3, n, 1.0));
      }
      c.faults.resilience.watchdog = watchdog;
      c.faults.resilience.watchdog_params.check_interval_s = 0.25;
      c.faults.resilience.watchdog_params.stuck_checks_before_fallback = 2;
    };
  };
  const auto node_crash = [](bool ckpt) {
    return [ckpt](core::RunConfig& c) {
      c.faults.events.push_back(fault::node_crash(0.6, 0, /*boot_delay_s=*/0.5));
      c.faults.resilience.mpi_timeout_s = 5;
      if (ckpt) {
        c.faults.resilience.checkpoint_interval_s = 0.5;
        c.faults.resilience.checkpoint_cost_s = 0.05;
      }
    };
  };
  const std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> scenarios = {
      {"daemon, healthy", [](core::RunConfig&) {}},
      {"daemon, armed, no faults",
       [](core::RunConfig& c) {
         c.faults.resilience.watchdog = true;
         c.faults.resilience.mpi_timeout_s = 120;
       }},
      {"straggler hazard",
       [](core::RunConfig& c) {
         fault::HazardModel hazard;
         hazard.kind = fault::FaultKind::Straggler;
         hazard.mtbf_s = 2.0;
         hazard.duration_s = 0.5;
         hazard.magnitude = 0.5;
         c.faults.hazards.push_back(hazard);
         c.faults.horizon_s = 60;
       }},
      {"stuck DVS, unguarded", stuck_dvs(false)},
      {"stuck DVS + watchdog", stuck_dvs(true)},
      {"node crash, no C/R", node_crash(false)},
      {"node crash + C/R", node_crash(true)},
  };

  campaign::ExperimentSpec spec;
  spec.workload(workload)
      .base(base)
      .axis(campaign::Axis::strategies("scenario", scenarios))
      .trials(1);
  const auto result = bench::run(spec, args);

  const auto& healthy = result.cells.front().result;
  const double base_delay = healthy.delay_s;
  const double base_energy = healthy.energy_j;
  analysis::TextTable table({"scenario", "delay (s)", "d vs healthy", "energy (J)",
                             "detected", "recovered", "outcome"});
  for (const auto& cell : result.cells) {
    const auto& r = cell.result;
    char delta[32];
    std::snprintf(delta, sizeof delta, "%+.1f%%",
                  100.0 * (r.delay_s / base_delay - 1.0));
    const auto* rep = r.fault_report.has_value() ? &*r.fault_report : nullptr;
    table.add_row({cell.labels.front(), analysis::fmt(r.delay_s, 3), delta,
                   analysis::fmt(r.energy_j, 1),
                   rep ? std::to_string(rep->detections) : "-",
                   rep ? std::to_string(rep->recoveries) : "-",
                   r.failed ? "FAILED (detected)" : "completed"});
  }
  std::printf("CG scale %.2f, %d ranks: fault/resilience ablation\n%s", args.scale,
              ranks, table.str().c_str());
  std::printf("healthy daemon reference: delay %.3f s, energy %.1f J\n", base_delay,
              base_energy);

  // The zero-cost property, asserted rather than eyeballed.
  const auto& armed = result.cells[1].result;
  if (armed.delay_s != base_delay || armed.energy_j != base_energy) {
    std::fprintf(stderr, "zero-cost violation: armed run diverged from healthy run\n");
    return 1;
  }
  return 0;
}
