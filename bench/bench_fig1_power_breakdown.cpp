// Figure 1: component breakdown of server power under load and at idle.
//
// Paper: on a Pentium III node running the memory-bound swim, the CPU is
// ~35% of total system power under load and ~15% when idle.
#include <cstdio>

#include "apps/npb.hpp"
#include "bench/bench_common.hpp"
#include "core/runner.hpp"

using namespace pcd;

namespace {

machine::NodeConfig pentium_iii_node() {
  machine::NodeConfig n;
  // Single operating point: the PIII node has no DVS; voltage/frequency
  // chosen to represent a 1 GHz Coppermine-class server part.
  n.operating_points = cpu::OperatingPointTable({{1000, 1.75}});
  n.power = power::NodePowerParams::pentium_iii_server();
  n.power.base_watts = 33.0;  // bigger PSU/fan overhead than the laptops
  n.cpu.act_idle = 0.085;
  return n;
}

void report(const char* label, const power::EnergyBreakdown& e) {
  const double total = e.total();
  std::printf("%-18s %8.1f J total | cpu %5.1f%% | memory %5.1f%% | disk %5.1f%% | "
              "nic %5.1f%% | other %5.1f%%\n",
              label, total, 100 * e.cpu / total, 100 * e.memory / total,
              100 * e.disk / total, 100 * e.nic / total, 100 * e.other / total);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Figure 1: node power breakdown (Pentium III node, swim)").c_str());

  // Idle node: integrate one minute of idle power.
  {
    sim::Engine engine;
    machine::ClusterConfig cc;
    cc.nodes = 1;
    cc.node = pentium_iii_node();
    machine::Cluster cluster(engine, cc);
    engine.run_until(60 * sim::kSecond);
    report("idle", cluster.node(0).power().energy_breakdown());
  }

  // Under load: run swim on the PIII node profile.
  {
    core::RunConfig cfg = bench::base_config(args);
    cfg.cluster.node = pentium_iii_node();
    auto swim = apps::make_swim(args.scale);
    // run_workload builds its own cluster from cfg.cluster.node.
    const auto result = core::run_workload(swim, cfg);
    std::printf("(swim run: %.1f s, %.0f J)\n", result.delay_s, result.energy_j);
  }
  {
    // Re-run manually to get the component breakdown (the runner reports
    // totals; here we integrate the node directly).
    sim::Engine engine;
    machine::ClusterConfig cc;
    cc.nodes = 1;
    cc.node = pentium_iii_node();
    machine::Cluster cluster(engine, cc);
    std::vector<int> ids{0};
    mpi::Comm comm(cluster, ids);
    apps::AppContext ctx;
    ctx.comm = &comm;
    auto swim = apps::make_swim(args.scale);
    auto p = sim::spawn(engine, swim.make_rank(ctx, 0));
    engine.run();
    report("loaded (swim)", cluster.node(0).power().energy_breakdown());
  }

  std::printf("\nPaper reference: CPU ~35%% of system power under load, ~15%% idle "
              "(Pentium III, ~45 W peak CPU).\n");
  return 0;
}
