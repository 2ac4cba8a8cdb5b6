// Tests for the extension modules: thermal/reliability model, the
// phase-predictor daemon (future work §7), automatic heterogeneous
// selection, trace export, and the additional MPI collectives.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "apps/npb.hpp"
#include "core/daemon.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "power/thermal.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace sim = pcd::sim;
using namespace pcd;

// ---- ThermalModel -----------------------------------------------------------

namespace {

struct ThermalFixture {
  sim::Engine engine;
  cpu::Cpu cpu;
  power::NodePowerModel node;
  ThermalFixture()
      : cpu(engine, cpu::OperatingPointTable::pentium_m_1400(), cpu::CpuConfig{},
            sim::Rng(1)),
        node(engine, cpu, power::NodePowerParams::nemo()) {}
};

}  // namespace

TEST(Thermal, ConvergesToSteadyStateUnderConstantPower) {
  ThermalFixture f;
  power::ThermalParams tp;
  power::ThermalModel thermal(f.engine, f.node, tp);
  thermal.start();
  // Idle node: constant CPU power; after >> tau the temperature must reach
  // T_ambient + R * P_cpu.
  f.engine.run_until(sim::from_seconds(120.0));
  const double cpu_watts = f.node.breakdown().cpu;
  const double expected = tp.ambient_c + tp.r_th_c_per_w * cpu_watts;
  EXPECT_NEAR(thermal.temperature_c(), expected, 0.2);
  thermal.stop();
}

TEST(Thermal, BusyCpuRunsHotter) {
  ThermalFixture f;
  power::ThermalModel thermal(f.engine, f.node, power::ThermalParams{});
  thermal.start();
  auto burn = [&]() -> sim::Process {
    co_await f.cpu.run_onchip_cycles(1.4e9 * 120);  // 2 minutes busy
  };
  sim::spawn(f.engine, burn());
  f.engine.run_until(sim::from_seconds(120.0));
  const double busy_temp = thermal.temperature_c();
  EXPECT_GT(busy_temp, 52.0);  // ~24 + 1.4*22 ~ 55 C steady state (approached)
  EXPECT_GT(thermal.peak_c(), 50.0);
  // Cool-down after the work ends.
  f.engine.run_until(sim::from_seconds(240.0));
  EXPECT_LT(thermal.temperature_c(), busy_temp - 10.0);
  thermal.stop();
}

TEST(Thermal, LowerFrequencyLowersTemperature) {
  auto run_at = [](int mhz) {
    ThermalFixture f;
    f.cpu.set_frequency_mhz(mhz);
    f.engine.run();
    power::ThermalModel thermal(f.engine, f.node, power::ThermalParams{});
    thermal.start();
    auto burn = [&]() -> sim::Process {
      co_await f.cpu.run_onchip_cycles(static_cast<double>(mhz) * 1e6 * 180);
    };
    sim::spawn(f.engine, burn());
    f.engine.run_until(sim::from_seconds(180.0));
    const double t = thermal.temperature_c();
    thermal.stop();
    return t;
  };
  EXPECT_LT(run_at(600), run_at(1400) - 12.0);
}

TEST(Thermal, ArrheniusFactorDoublesPerTenDegrees) {
  EXPECT_DOUBLE_EQ(power::ThermalModel::arrhenius_life_factor(50.0, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(power::ThermalModel::arrhenius_life_factor(40.0, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(power::ThermalModel::arrhenius_life_factor(60.0, 50.0), 0.5);
}

TEST(Thermal, MeanIsTimeWeighted) {
  ThermalFixture f;
  power::ThermalParams tp;
  tp.t0_c = 40.0;
  power::ThermalModel thermal(f.engine, f.node, tp);
  thermal.start();
  f.engine.run_until(sim::from_seconds(60.0));
  EXPECT_GT(thermal.mean_c(), tp.ambient_c);
  EXPECT_LT(thermal.mean_c(), std::max(40.0, thermal.peak_c()) + 1e-9);
  thermal.stop();
}

// ---- DvsDaemon: phase-predictor policy ----------------------------------------

TEST(Predictor, MixedFrequencyRespectsSlowdownBudget) {
  const auto table = cpu::OperatingPointTable::pentium_m_1400();
  // util 0.7, budget 5%: need 0.7*(1400/f - 1) <= 0.05 -> f >= 1307 -> 1400.
  EXPECT_EQ(core::DvsDaemon::mixed_frequency(table, 0.7, 0.05), 1400);
  // util 0.1: 0.1*(1400/600-1) = 0.133 > 0.05; f=800: 0.075 > 0.05;
  // f=1000: 0.04 <= 0.05 -> 1000.
  EXPECT_EQ(core::DvsDaemon::mixed_frequency(table, 0.1, 0.05), 1000);
  // Zero utilization: any frequency fits -> lowest.
  EXPECT_EQ(core::DvsDaemon::mixed_frequency(table, 0.0, 0.05), 600);
}

TEST(Predictor, JumpsToLowDuringSlackAndBackOnCompute) {
  sim::Engine engine;
  machine::NodeConfig nc;
  nc.cpu.transition_min = nc.cpu.transition_max = sim::from_micros(20);
  machine::Node node(engine, 0, nc, sim::Rng(2));
  core::PhasePredictorParams params;
  params.confirm_samples = 1;
  core::DvsDaemon daemon(engine, node, params);
  daemon.start();
  // Idle (slack) for 3 s -> lowest point.
  engine.run_until(sim::from_seconds(3.0));
  EXPECT_EQ(node.cpu().frequency_mhz(), 600);
  EXPECT_EQ(daemon.current_phase(), core::DvsDaemon::Phase::Slack);
  // Compute burst -> back to the top after one window (immediate rule).
  auto burn = [&]() -> sim::Process { co_await node.cpu().run_memstall(
      5 * sim::kSecond); };
  sim::spawn(engine, burn());
  engine.run_until(sim::from_seconds(4.1));
  EXPECT_EQ(node.cpu().frequency_mhz(), 1400);
  daemon.stop();
  engine.run();
}

TEST(Predictor, HysteresisDelaysSlackClassification) {
  sim::Engine engine;
  machine::NodeConfig nc;
  machine::Node node(engine, 0, nc, sim::Rng(3));
  core::PhasePredictorParams params;
  params.confirm_samples = 3;
  core::DvsDaemon daemon(engine, node, params);
  daemon.start();
  engine.run_until(sim::from_seconds(1.2));  // 2 windows of idle
  EXPECT_EQ(node.cpu().frequency_mhz(), 1400);  // not yet confirmed
  engine.run_until(sim::from_seconds(2.2));
  EXPECT_EQ(node.cpu().frequency_mhz(), 600);
  daemon.stop();
  engine.run();
}

TEST(Predictor, BeatsCpuspeedOnMixedCode) {
  // MG is CPUSPEED's pathology (32% delay in the paper); the predictor's
  // Mixed policy must keep delay low, winning on energy-delay efficiency.
  auto mg = apps::npb_by_name("MG", 0.5).value();
  core::RunConfig base_cfg;
  base_cfg.static_mhz = 1400;
  const auto base = core::run_workload(mg, base_cfg);

  core::RunConfig cpuspeed_cfg;
  cpuspeed_cfg.daemon = core::CpuspeedParams::v1_2_1();
  const auto cs = core::run_workload(mg, cpuspeed_cfg);

  core::RunConfig pred_cfg;
  pred_cfg.daemon = core::PhasePredictorParams{};
  const auto pred = core::run_workload(mg, pred_cfg);

  const auto ed2p = [&](const core::RunResult& r) {
    const double d = r.delay_s / base.delay_s;
    return (r.energy_j / base.energy_j) * d * d;
  };
  EXPECT_LT(pred.delay_s / base.delay_s, 1.12);
  EXPECT_GT(cs.delay_s / base.delay_s, 1.15);
  EXPECT_LT(ed2p(pred), ed2p(cs));
}

TEST(Predictor, SavesEnergyOnPhaseHeavyCode) {
  // FT's long all-to-all phases are exactly what the predictor detects.
  auto ft = apps::npb_by_name("FT", 0.4).value();
  core::RunConfig base_cfg;
  base_cfg.static_mhz = 1400;
  const auto base = core::run_workload(ft, base_cfg);
  core::RunConfig pred_cfg;
  pred_cfg.daemon = core::PhasePredictorParams{};
  const auto pred = core::run_workload(ft, pred_cfg);
  EXPECT_LT(pred.energy_j / base.energy_j, 0.85);
  EXPECT_LT(pred.delay_s / base.delay_s, 1.08);
}

// ---- select_per_rank_speeds ---------------------------------------------------

TEST(Heterogeneous, SlackyRanksGetLowerSpeeds) {
  trace::TraceProfile p;
  for (int r = 0; r < 4; ++r) {
    trace::RankProfile rp;
    rp.compute_s = 10.0;
    rp.wait_s = (r >= 2) ? 20.0 : 0.5;  // ranks 2-3 mostly wait
    p.ranks.push_back(rp);
  }
  const auto speeds = core::select_per_rank_speeds(
      p, cpu::OperatingPointTable::pentium_m_1400());
  EXPECT_EQ(speeds.size(), 4u);
  EXPECT_EQ(speeds[0], 1400);
  EXPECT_EQ(speeds[1], 1400);
  // Stretch budget 1 + 0.5*(20/10) = 2.0: lowest point with 1400/f <= 2.0
  // is 800 MHz (600 would stretch 2.33x, beyond the slack budget).
  EXPECT_EQ(speeds[2], 800);
  EXPECT_EQ(speeds[3], 800);
}

TEST(Heterogeneous, IdleRankGetsLowestSpeed) {
  trace::TraceProfile p;
  trace::RankProfile rp;  // no recorded busy time at all
  p.ranks.push_back(rp);
  const auto speeds = core::select_per_rank_speeds(
      p, cpu::OperatingPointTable::pentium_m_1400());
  EXPECT_EQ(speeds[0], 600);
}

// ---- additional MPI collectives -----------------------------------------------

namespace {

struct ExtMpiFixture {
  sim::Engine engine;
  machine::Cluster cluster;
  mpi::Comm comm;
  explicit ExtMpiFixture(int ranks)
      : cluster(engine,
                [&] {
                  machine::ClusterConfig c;
                  c.nodes = ranks;
                  c.network.collision_coeff = 0;
                  return c;
                }()),
        comm(cluster, iota(ranks)) {}
  static std::vector<int> iota(int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }
};

}  // namespace

TEST(MpiExt, SendrecvExchangesWithoutDeadlock) {
  ExtMpiFixture f(2);
  std::int64_t got0 = 0, got1 = 0;
  auto proc = [&](int rank, std::int64_t* got) -> sim::Process {
    // Symmetric large exchange: blocking send/recv would rendezvous-deadlock.
    *got = co_await f.comm.sendrecv(rank, 1 - rank, 1, 500'000, 1 - rank, 1);
  };
  sim::spawn(f.engine, proc(0, &got0));
  sim::spawn(f.engine, proc(1, &got1));
  f.engine.run();
  EXPECT_EQ(got0, 500'000);
  EXPECT_EQ(got1, 500'000);
}

TEST(MpiExt, ScatterSendsToAllNonRoots) {
  ExtMpiFixture f(6);
  int done = 0;
  auto proc = [&](int rank) -> sim::Process {
    co_await f.comm.scatter(rank, 2, 10'000);
    ++done;
  };
  for (int r = 0; r < 6; ++r) sim::spawn(f.engine, proc(r));
  f.engine.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(f.comm.stats().messages, 5);
}

TEST(MpiExt, GatherCollectsAtRoot) {
  ExtMpiFixture f(6);
  int done = 0;
  auto proc = [&](int rank) -> sim::Process {
    co_await f.comm.gather(rank, 0, 10'000);
    ++done;
  };
  for (int r = 0; r < 6; ++r) sim::spawn(f.engine, proc(r));
  f.engine.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(f.comm.stats().messages, 5);
  EXPECT_EQ(f.comm.stats().bytes, 5 * 10'000);
}

TEST(MpiExt, ReduceScatterCompletesEverywhere) {
  ExtMpiFixture f(4);
  int done = 0;
  auto proc = [&](int rank) -> sim::Process {
    co_await f.comm.reduce_scatter(rank, 1'000);
    ++done;
  };
  for (int r = 0; r < 4; ++r) sim::spawn(f.engine, proc(r));
  f.engine.run();
  EXPECT_EQ(done, 4);
  // reduce tree: 3 messages; scatter: 3 messages.
  EXPECT_EQ(f.comm.stats().messages, 6);
}

TEST(MpiExt, RunnerWithPredictorCountsTransitions) {
  auto ft = apps::npb_by_name("FT", 0.1).value();
  core::RunConfig cfg;
  cfg.daemon = core::PhasePredictorParams{};
  const auto r = core::run_workload(ft, cfg);
  EXPECT_GT(r.dvs_transitions, 0);
}
