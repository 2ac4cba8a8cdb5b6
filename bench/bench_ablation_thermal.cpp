// Ablation (paper §1): thermal and reliability impact of DVS scheduling.
// "Component life expectancy decreases 50% for every 10°C increase" — so a
// schedule that lowers the average CPU temperature raises expected
// component life.  Runs FT under the three strategies and reports mean /
// peak CPU temperature and the Arrhenius life factor vs the no-DVS run.
#include <cstdio>
#include <numeric>

#include "bench/bench_common.hpp"
#include "core/strategies.hpp"
#include "mpi/comm.hpp"
#include "power/thermal.hpp"

using namespace pcd;

namespace {

struct ThermalResult {
  double delay_s = 0;
  double mean_c = 0;
  double peak_c = 0;
};

ThermalResult run_with_thermal(const apps::Workload& workload,
                               const core::RunConfig& config) {
  // Mirrors core::run_workload but attaches a ThermalModel per node.
  sim::Engine engine;
  machine::ClusterConfig cc = config.cluster;
  cc.nodes = workload.ranks;
  cc.seed = config.seed;
  machine::Cluster cluster(engine, cc);

  if (config.static_mhz != 0) {
    cluster.set_all_cpuspeed(config.static_mhz);
    engine.run_until(engine.now() + sim::kMillisecond);
  }
  std::vector<std::unique_ptr<power::ThermalModel>> thermals;
  for (int i = 0; i < cluster.size(); ++i) {
    thermals.push_back(std::make_unique<power::ThermalModel>(
        engine, cluster.node(i).power(), power::ThermalParams{}));
    thermals.back()->start();
  }
  std::vector<std::unique_ptr<core::DvsDaemon>> daemons;
  if (config.daemon) {
    for (int i = 0; i < cluster.size(); ++i) {
      daemons.push_back(std::make_unique<core::DvsDaemon>(
          engine, cluster.node(i), *config.daemon));
      daemons.back()->start();
    }
  }

  std::vector<int> ids(workload.ranks);
  std::iota(ids.begin(), ids.end(), 0);
  mpi::Comm comm(cluster, ids);
  apps::AppContext ctx;
  ctx.comm = &comm;
  ctx.hooks = &config.hooks;

  std::vector<sim::Process> procs;
  for (int r = 0; r < workload.ranks; ++r) {
    procs.push_back(sim::spawn(engine, workload.make_rank(ctx, r)));
  }
  const sim::SimTime t0 = engine.now();
  // Join all ranks, then freeze the instruments at exactly t_end (a large
  // run() batch would otherwise process daemon/thermal ticks far past it).
  ThermalResult out;
  bool done = false;
  auto watcher = [&]() -> sim::Process {
    for (auto& p : procs) co_await p;
    out.delay_s = sim::to_seconds(engine.now() - t0);
    for (auto& th : thermals) {
      out.mean_c += th->mean_c() / thermals.size();
      out.peak_c = std::max(out.peak_c, th->peak_c());
      th->stop();
    }
    for (auto& d : daemons) d->stop();
    done = true;
  };
  sim::spawn(engine, watcher());
  while (!done) {
    if (engine.run(100'000) == 0) break;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Ablation: CPU temperature and Arrhenius life factor under DVS (FT.C.8)").c_str());

  auto ft = apps::make_ft(args.scale);
  analysis::TextTable t({"schedule", "delay (s)", "mean T (C)", "peak T (C)",
                         "life factor vs no-DVS"});

  const auto base = run_with_thermal(
      ft, core::RunConfigBuilder(bench::base_config(args)).static_mhz(1400).build());
  auto add = [&](const char* label, const ThermalResult& r) {
    t.add_row({label, analysis::fmt(r.delay_s, 1), analysis::fmt(r.mean_c, 1),
               analysis::fmt(r.peak_c, 1),
               analysis::fmt(power::ThermalModel::arrhenius_life_factor(
                                 r.mean_c, base.mean_c), 2) + "x"});
  };
  add("no DVS (1400)", base);

  auto builder = [&] { return core::RunConfigBuilder(bench::base_config(args)); };
  add("external 600", run_with_thermal(ft, builder().static_mhz(600).build()));
  add("internal 1400/600",
      run_with_thermal(ft,
                       builder().hooks(core::internal_phase_hooks(1400, 600)).build()));
  add("cpuspeed (auto)",
      run_with_thermal(ft, builder().daemon(core::CpuspeedParams::v1_2_1()).build()));

  std::printf("%s\n", t.str().c_str());
  std::printf("Paper §1: every 10 C of cooling doubles component life "
              "expectancy; internal scheduling gets most of external@600's "
              "thermal benefit without the delay.\n");
  return 0;
}
