// Fault injection and resilient DVS: three scenarios on a CG run.
//
//   1. The DVS driver wedges on every node mid-run.  The per-node watchdog
//      notices that requested and actual frequency diverge, restarts
//      nothing (the hardware is stuck, not the daemon), and degrades
//      gracefully to full speed: the paper's performance constraint
//      survives, only the energy saving is lost.
//   2. A node crashes with no checkpointing armed.  The MPI progress
//      watchdog turns the hang into a structured failure instead of an
//      infinite simulation.
//   3. The same crash with coordinated checkpoint/restart: the node
//      reboots, redoes the work since the last checkpoint, and the run
//      completes.
//
//   ./fault_injection_demo [scale]   (default 0.15)
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "analysis/report.hpp"
#include "apps/npb.hpp"
#include "core/runner.hpp"

using namespace pcd;

namespace {

void print_outcome(const char* label, const core::RunResult& r,
                   const core::RunResult& baseline) {
  std::printf("%-28s delay %7.3f s (%+5.1f%% vs no-DVS)   energy %8.1f J%s\n",
              label, r.delay_s, 100.0 * (r.delay_s / baseline.delay_s - 1.0),
              r.energy_j, r.failed ? "   ** FAILED **" : "");
  if (r.failed) std::printf("  failure: %s\n", r.failure.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.15;
  const auto workload = apps::make_cg(scale);

  const auto baseline = core::run_workload(workload);
  print_outcome("no DVS", baseline, baseline);

  core::CpuspeedParams daemon_params;
  daemon_params.interval_s = 0.2;
  core::RunConfig daemon_cfg;
  daemon_cfg.daemon = daemon_params;
  const auto healthy = core::run_workload(workload, daemon_cfg);
  print_outcome("CPUSPEED daemon, healthy", healthy, baseline);

  // -- Scenario 1: every DVS driver wedges for 1 s at t = 0.3 s ------------
  fault::FaultPlan stuck_plan;
  for (int n = 0; n < workload.ranks; ++n) {
    stuck_plan.events.push_back(fault::stuck_dvs(0.3, n, 1.0));
  }
  // Each scenario is the daemon config plus a fault plan.
  const auto with_faults = [&](fault::FaultPlan plan) {
    core::RunConfig c = daemon_cfg;
    c.faults = std::move(plan);
    return c;
  };
  const auto unguarded = core::run_workload(workload, with_faults(stuck_plan));
  print_outcome("stuck DVS, no watchdog", unguarded, baseline);

  fault::FaultPlan guarded_plan = stuck_plan;
  guarded_plan.resilience.watchdog = true;
  guarded_plan.resilience.watchdog_params.check_interval_s = 0.25;
  guarded_plan.resilience.watchdog_params.stuck_checks_before_fallback = 2;
  telemetry::TelemetryOptions watchdog_telemetry;
  watchdog_telemetry.enabled = true;
  core::RunConfig guarded_cfg = with_faults(guarded_plan);
  guarded_cfg.telemetry = watchdog_telemetry;
  const auto guarded = core::run_workload(workload, guarded_cfg);
  print_outcome("stuck DVS + watchdog", guarded, baseline);
  if (guarded.fault_report) {
    std::printf("\n%s\n", guarded.fault_report->summary().c_str());
  }

  // -- Scenario 2: node 0 crashes, nothing armed ---------------------------
  fault::FaultPlan crash_plan;
  crash_plan.events.push_back(fault::node_crash(0.6, 0));
  crash_plan.resilience.mpi_timeout_s = 5;
  const auto lost = core::run_workload(workload, with_faults(crash_plan));
  print_outcome("node crash, no C/R", lost, baseline);

  // -- Scenario 3: same crash with checkpoint/restart ----------------------
  fault::FaultPlan ckpt_plan = crash_plan;
  ckpt_plan.events.back() = fault::node_crash(0.6, 0, /*boot_delay_s=*/0.5);
  ckpt_plan.resilience.checkpoint_interval_s = 0.5;
  ckpt_plan.resilience.checkpoint_cost_s = 0.05;
  const auto survived = core::run_workload(workload, with_faults(ckpt_plan));
  print_outcome("node crash + checkpoint/restart", survived, baseline);
  if (survived.fault_report) {
    std::printf("\n%s\n", survived.fault_report->summary().c_str());
  }
  return (guarded.failed || survived.failed || !lost.failed) ? 1 : 0;
}
