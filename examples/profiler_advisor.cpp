// The profiler-advisor loop, end to end, on both paper case studies:
//   1. run the workload once with energy attribution on (RunConfig::profile),
//   2. print the attribution / critical-path / schedule report,
//   3. apply the advisor's schedule through core::hooks_for and re-run,
//   4. compare measured energy/delay against the advisor's predictions and
//      against the paper's hand-written INTERNAL insertion.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/advisor_report.hpp"
#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"

using namespace pcd;

namespace {

void advise_and_verify(const apps::Workload& workload,
                       const apps::DvsHooks& paper_hooks, const char* paper_label,
                       const char* csv_path) {
  std::printf("==== %s ====\n", workload.name.c_str());

  // Step 1: one profiled run at full speed.
  core::RunConfig profile_cfg;
  profile_cfg.profile = true;
  const auto baseline = core::run_workload(workload, profile_cfg);
  const auto& prof = *baseline.profiler;

  // Step 2: derive and report.
  const auto schedule = profiler::advise(prof);
  std::fputs(analysis::advisor_report_text(prof, schedule).c_str(), stdout);
  if (csv_path != nullptr) {
    if (FILE* f = std::fopen(csv_path, "w")) {
      const std::string csv = analysis::advisor_report_csv(prof, schedule);
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::printf("(csv written to %s)\n", csv_path);
    }
  }

  // Step 3: execute the derived schedule.
  core::RunConfig advised_cfg;
  advised_cfg.hooks = core::hooks_for(schedule);
  const auto advised = core::run_workload(workload, advised_cfg);

  // Step 4: predictions and the paper's hand insertion.
  core::RunConfig paper_cfg;
  paper_cfg.hooks = paper_hooks;
  const auto hand = core::run_workload(workload, paper_cfg);

  std::printf("\n%-28s %10s %10s\n", "", "delay", "energy");
  std::printf("%-28s %10.4f %10.1f\n", "baseline (profiled run)", baseline.delay_s,
              baseline.energy_j);
  std::printf("%-28s %10.4f %10.1f  (factors %.4f / %.4f)\n", "advisor schedule",
              advised.delay_s, advised.energy_j, advised.delay_s / baseline.delay_s,
              advised.energy_j / baseline.energy_j);
  std::printf("%-28s %10.4f %10.4f\n", "advisor predicted factors",
              schedule.predicted_delay_factor, schedule.predicted_energy_factor);
  std::printf("%-28s %10.4f %10.1f  (factors %.4f / %.4f)\n", paper_label,
              hand.delay_s, hand.energy_j, hand.delay_s / baseline.delay_s,
              hand.energy_j / baseline.energy_j);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  // Optional: prefix for machine-readable CSV reports ("<prefix>_ft.csv",
  // "<prefix>_cg.csv") — used by CI to archive the advisor's output.
  const std::string prefix = argc > 2 ? argv[2] : "";
  const std::string ft_csv = prefix.empty() ? "" : prefix + "_ft.csv";
  const std::string cg_csv = prefix.empty() ? "" : prefix + "_cg.csv";

  // FT (§5.3): the advisor should find the dominant MPI_Alltoall phase and
  // re-derive the paper's Figure-10 insertion (1400 high / 600 low).
  advise_and_verify(apps::make_ft(scale), core::internal_phase_hooks(1400, 600),
                    "paper internal 1400/600",
                    ft_csv.empty() ? nullptr : ft_csv.c_str());

  // CG (§5.4): the advisor should find the rank asymmetry and assign the
  // lower (busier) ranks a higher speed than the upper ones.
  advise_and_verify(apps::make_cg(scale),
                    core::internal_rank_speed_hooks(
                        [](int rank) { return rank < 4 ? 1200 : 800; }),
                    "paper internal I 1200/800",
                    cg_csv.empty() ? nullptr : cg_csv.c_str());
  return 0;
}
