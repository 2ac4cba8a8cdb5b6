// Unit tests for power models, energy integration, and the simulated
// ACPI battery / Baytech strip measurement instruments.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cpu/cpu.hpp"
#include "power/cpu_power.hpp"
#include "power/meters.hpp"
#include "power/node_power.hpp"
#include "power/state_arena.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/provenance.hpp"

namespace sim = pcd::sim;
using pcd::cpu::Cpu;
using pcd::cpu::CpuConfig;
using pcd::cpu::OperatingPoint;
using pcd::cpu::OperatingPointTable;
using pcd::power::AcpiBattery;
using pcd::power::AcpiBatteryParams;
using pcd::power::BaytechStrip;
using pcd::power::CpuPowerModel;
using pcd::power::CpuPowerParams;
using pcd::power::NodePowerModel;
using pcd::power::NodePowerParams;

namespace {

struct PowerFixture {
  sim::Engine engine;
  Cpu cpu;
  NodePowerModel node;
  PowerFixture()
      : cpu(engine, OperatingPointTable::pentium_m_1400(),
            [] {
              CpuConfig c;
              c.transition_min = c.transition_max = sim::from_micros(20);
              return c;
            }(),
            sim::Rng(3)),
        node(engine, cpu, NodePowerParams::nemo()) {}
};

sim::Process run_onchip(Cpu& cpu, double cycles) { co_await cpu.run_onchip_cycles(cycles); }

}  // namespace

// ---- CpuPowerModel ---------------------------------------------------------

TEST(CpuPowerModel, TopOpFullActivity) {
  const auto table = OperatingPointTable::pentium_m_1400();
  const auto params = CpuPowerParams::pentium_m();
  CpuPowerModel m(params, table);
  EXPECT_NEAR(m.watts(table.highest(), 1.0), params.busy_watts_max(), 1e-9);
}

TEST(CpuPowerModel, DynamicPartScalesWithV2FPlusClock) {
  const auto table = OperatingPointTable::pentium_m_1400();
  const auto params = CpuPowerParams::pentium_m();
  CpuPowerModel m(params, table);
  const OperatingPoint low = table.lowest();  // 600 MHz / 0.956 V
  const double dyn_lo = m.watts(low, 1.0) - m.watts(low, 0.0);
  const double vr2 = (0.956 * 0.956) / (1.484 * 1.484);
  const double fr = 600.0 / 1400.0;
  EXPECT_NEAR(dyn_lo, params.dynamic_watts_max * vr2 * fr + params.clock_watts_max * fr,
              1e-12);
}

TEST(CpuPowerModel, LeakageScalesWithV2) {
  const auto table = OperatingPointTable::pentium_m_1400();
  CpuPowerModel m(CpuPowerParams::pentium_m(), table);
  const double leak_hi = m.watts(table.highest(), 0.0);
  const double leak_lo = m.watts(table.lowest(), 0.0);
  EXPECT_NEAR(leak_lo / leak_hi, (0.956 * 0.956) / (1.484 * 1.484), 1e-12);
}

TEST(CpuPowerModel, MonotonicInFrequency) {
  const auto table = OperatingPointTable::pentium_m_1400();
  CpuPowerModel m(CpuPowerParams::pentium_m(), table);
  double prev = 0;
  for (const auto& op : table.points()) {
    const double w = m.watts(op, 1.0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

// Every power refresh prices the CPU as L[i] + a * D[i] from the model's
// per-point coefficients; that must be watts(op, a) to the last bit, or
// every energy figure would move.  Both node types' parameters, Table 1 and
// Figure 1's single server point, every state activity of CpuConfig and
// the per-phase overrides the NPB kernels pass.
TEST(CpuPowerModel, CoefficientsMatchWattsBitForBit) {
  const OperatingPointTable tables[] = {OperatingPointTable::pentium_m_1400(),
                                        OperatingPointTable({{1000, 1.75}})};
  const CpuPowerParams params[] = {NodePowerParams::nemo().cpu,
                                   NodePowerParams::pentium_iii_server().cpu};
  const CpuConfig c;
  const double activities[] = {0.0,          c.act_idle,       c.act_memstall,
                               c.act_commproc, c.act_transition, c.act_onchip,
                               c.act_waitpoll, c.act_checkpoint, 0.95,
                               0.55};
  int checked = 0;
  for (const auto& table : tables) {
    for (const auto& p : params) {
      const CpuPowerModel m(p, table);
      for (std::size_t i = 0; i < table.size(); ++i) {
        for (const double a : activities) {
          EXPECT_EQ(bits(m.watts_at(i, a)), bits(m.watts(table.get(i), a)))
              << table.get(i).freq_mhz << " MHz, activity " << a;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, (5 + 1) * 2 * 10);
}

// Mid-transition the lane is priced at the higher-voltage endpoint, in
// both directions between every pair of Table 1 points.
TEST(NodePower, TransitionRefreshPricesTheHigherVoltagePointBitForBit) {
  const auto table = OperatingPointTable::pentium_m_1400();
  const CpuPowerModel m(NodePowerParams::nemo().cpu, table);
  for (const auto& from : table.points()) {
    for (const auto& to : table.points()) {
      if (from == to) continue;
      PowerFixture f;
      f.cpu.set_frequency_mhz(from.freq_mhz);
      f.engine.run();
      ASSERT_EQ(f.cpu.frequency_mhz(), from.freq_mhz);
      f.cpu.set_frequency_mhz(to.freq_mhz);
      ASSERT_TRUE(f.cpu.transitioning());
      const OperatingPoint& high = from.voltage >= to.voltage ? from : to;
      EXPECT_EQ(f.cpu.power_op(), high);
      EXPECT_EQ(bits(f.node.breakdown().cpu),
                bits(m.watts(high, f.cpu.config().act_transition)))
          << from.freq_mhz << " -> " << to.freq_mhz;
    }
  }
}

// ---- NodePowerModel ---------------------------------------------------------

TEST(NodePower, BreakdownComponentsArePositiveAndSum) {
  PowerFixture f;
  const auto b = f.node.breakdown();
  EXPECT_GT(b.cpu, 0);
  EXPECT_GT(b.memory, 0);
  EXPECT_GT(b.disk, 0);
  EXPECT_GT(b.nic, 0);
  EXPECT_GT(b.other, 0);
  EXPECT_NEAR(b.total(), b.cpu + b.memory + b.disk + b.nic + b.other, 1e-12);
}

TEST(NodePower, ConstantIdleEnergyIntegratesExactly) {
  PowerFixture f;
  const double idle_watts = f.node.watts();
  f.engine.schedule_at(10 * sim::kSecond, [] {});
  f.engine.run();
  EXPECT_NEAR(f.node.energy_joules(), idle_watts * 10.0, 1e-9);
}

TEST(NodePower, EnergyAcrossStateChange) {
  PowerFixture f;
  const double idle_watts = f.node.watts();
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));  // 1 s busy
  f.engine.run();
  const double busy_joules_expected = [&] {
    // Busy power: query via a fresh fixture mid-work is awkward; instead
    // compute from the model directly.
    CpuPowerModel m(NodePowerParams::nemo().cpu, OperatingPointTable::pentium_m_1400());
    const auto& p = NodePowerParams::nemo();
    const double cpu_w =
        m.watts(OperatingPointTable::pentium_m_1400().highest(), f.cpu.config().act_onchip);
    const double mem_w = p.mem_idle_watts + p.mem_active_watts * 0.30;
    return cpu_w + mem_w + p.disk_watts + p.nic_idle_watts + p.base_watts;
  }();
  f.engine.schedule_at(2 * sim::kSecond, [] {});
  f.engine.run();
  EXPECT_NEAR(f.node.energy_joules(), busy_joules_expected + idle_watts, 1e-6);
}

TEST(NodePower, NicFlowsRaisePower) {
  PowerFixture f;
  const double before = f.node.watts();
  f.node.set_nic_flows(1);
  const double with_one = f.node.watts();
  f.node.set_nic_flows(3);
  EXPECT_NEAR(f.node.watts(), with_one, 1e-12);  // binary active, not per flow
  EXPECT_NEAR(with_one - before, NodePowerParams::nemo().nic_active_watts, 1e-12);
  f.node.set_nic_flows(0);
  EXPECT_NEAR(f.node.watts(), before, 1e-12);
}

TEST(NodePower, EnergyBreakdownSumsToTotal) {
  PowerFixture f;
  sim::spawn(f.engine, run_onchip(f.cpu, 7e8));
  f.engine.run();
  const auto eb = f.node.energy_breakdown();
  EXPECT_NEAR(eb.total(), f.node.energy_joules(), 1e-9);
  EXPECT_GT(eb.cpu, 0);
  EXPECT_GT(eb.other, 0);
}

TEST(NodePower, LowerFrequencyLowersBusyPower) {
  PowerFixture f;
  double busy_1400 = 0, busy_600 = 0;
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.schedule_at(sim::kMillisecond, [&] { busy_1400 = f.node.watts(); });
  f.engine.run();
  f.cpu.set_frequency_mhz(600);
  f.engine.run();
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.schedule_at(f.engine.now() + sim::kMillisecond,
                       [&] { busy_600 = f.node.watts(); });
  f.engine.run();
  EXPECT_GT(busy_1400, 25.0);
  EXPECT_LT(busy_600, busy_1400 - 10.0);  // most of the CPU's ~22 W vanishes
}

TEST(NodePower, TransitionBilledAtHigherVoltage) {
  PowerFixture f;
  f.cpu.set_frequency_mhz(600);
  const double during = f.node.breakdown().cpu;
  f.engine.run();
  const double after = f.node.breakdown().cpu;
  EXPECT_GT(during, after);  // stall at 1.484 V vs idle at 0.956 V
}

// ---- AcpiBattery ------------------------------------------------------------

namespace {

struct BatteryFixture : PowerFixture {
  AcpiBattery battery;
  BatteryFixture()
      : battery(node, AcpiBatteryParams{}, sim::Rng(17)) {}
};

}  // namespace

TEST(AcpiBattery, NoDrainOnAc) {
  BatteryFixture f;
  f.engine.schedule_at(60 * sim::kSecond, [] {});
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.battery.true_remaining_mwh(), 53000.0);
}

TEST(AcpiBattery, DrainsExactlyNodeEnergyOnDc) {
  BatteryFixture f;
  f.battery.disconnect_ac();
  const double e0 = f.node.energy_joules();
  f.engine.schedule_at(100 * sim::kSecond, [] {});
  f.engine.run();
  const double drained_j = f.node.energy_joules() - e0;
  EXPECT_NEAR(f.battery.true_remaining_mwh(), 53000.0 - drained_j / 3.6, 1e-6);
}

TEST(AcpiBattery, ReconnectStopsDrain) {
  BatteryFixture f;
  f.battery.disconnect_ac();
  f.engine.schedule_at(50 * sim::kSecond, [&] { f.battery.connect_ac(); });
  f.engine.schedule_at(200 * sim::kSecond, [] {});
  f.engine.run();
  const double after_50s = 53000.0 - f.node.watts() * 50.0 / 3.6;
  EXPECT_NEAR(f.battery.true_remaining_mwh(), after_50s, 1e-6);
}

TEST(AcpiBattery, ReportedValueIsStaleBetweenRefreshes) {
  BatteryFixture f;
  f.battery.disconnect_ac();
  f.battery.start_polling();
  // Immediately after start, reported is a quantized snapshot of "now".
  const double initial = f.battery.reported_remaining_mwh();
  EXPECT_DOUBLE_EQ(initial, 53000.0);
  // Advance 5 s (< first refresh phase may or may not have hit; compare to
  // truth: reported must lag truth by design within a refresh period).
  f.engine.run_until(5 * sim::kSecond);
  EXPECT_GE(f.battery.reported_remaining_mwh(), f.battery.true_remaining_mwh());
  f.battery.stop_polling();
}

TEST(AcpiBattery, RefreshPeriodWithinPaperBounds) {
  for (int seed = 0; seed < 10; ++seed) {
    sim::Engine e;
    Cpu cpu(e, OperatingPointTable::pentium_m_1400(), CpuConfig{}, sim::Rng(seed));
    NodePowerModel node(e, cpu, NodePowerParams::nemo());
    AcpiBattery b(node, AcpiBatteryParams{}, sim::Rng(seed * 7 + 1));
    EXPECT_GE(b.refresh_period(), sim::from_seconds(15.0));
    EXPECT_LE(b.refresh_period(), sim::from_seconds(20.0));
  }
}

TEST(AcpiBattery, ReportedIsQuantizedToWholeMwh) {
  BatteryFixture f;
  f.battery.disconnect_ac();
  f.battery.start_polling();
  f.engine.run_until(120 * sim::kSecond);
  const double reported = f.battery.reported_remaining_mwh();
  EXPECT_DOUBLE_EQ(reported, std::floor(reported));
  EXPECT_LT(reported, 53000.0);
  f.battery.stop_polling();
}

TEST(AcpiBattery, RechargeRestoresFullCapacity) {
  BatteryFixture f;
  f.battery.disconnect_ac();
  f.engine.schedule_at(100 * sim::kSecond, [] {});
  f.engine.run();
  EXPECT_LT(f.battery.true_remaining_mwh(), 53000.0);
  f.battery.connect_ac();
  f.battery.recharge_full();
  EXPECT_DOUBLE_EQ(f.battery.true_remaining_mwh(), 53000.0);
}

TEST(AcpiBattery, MeasurementProtocolRoundTrip) {
  // The paper's §4.2 protocol: charge, disconnect, discharge, run, read.
  BatteryFixture f;
  f.battery.recharge_full();
  f.battery.disconnect_ac();
  f.battery.start_polling();
  f.engine.run_until(300 * sim::kSecond);  // 5-minute pre-discharge
  const double begin = f.battery.reported_remaining_mwh();
  const double true_begin_j = f.node.energy_joules();
  const sim::SimTime t0 = f.engine.now();
  // ~4-minute busy run (polling stays active, so bound the clock instead
  // of draining the queue).
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9 * 240));
  f.engine.run_until(t0 + 240 * sim::kSecond);
  const double end = f.battery.reported_remaining_mwh();
  const double true_j = f.node.energy_joules() - true_begin_j;
  f.battery.stop_polling();
  const double measured_j = (begin - end) * 3.6;
  // Metered energy within ~12% of truth for a minutes-long run (refresh
  // staleness at both ends partially cancels).
  EXPECT_NEAR(measured_j, true_j, 0.12 * true_j);
}

// ---- BaytechStrip -----------------------------------------------------------

TEST(Baytech, RecordsOncePerMinute) {
  BatteryFixture f;
  BaytechStrip strip(f.engine, {&f.node});
  strip.start_polling();
  f.engine.run_until(305 * sim::kSecond);
  strip.stop_polling();
  EXPECT_EQ(strip.records().size(), 5u);
  EXPECT_EQ(strip.records()[0].window_end, 60 * sim::kSecond);
}

TEST(Baytech, AverageMatchesConstantPower) {
  BatteryFixture f;
  BaytechStrip strip(f.engine, {&f.node});
  const double idle_watts = f.node.watts();
  strip.start_polling();
  f.engine.run_until(61 * sim::kSecond);
  strip.stop_polling();
  ASSERT_EQ(strip.records().size(), 1u);
  EXPECT_NEAR(strip.records()[0].avg_watts[0], idle_watts, 1e-9);
}

TEST(Baytech, EnergyEstimateOverAlignedWindow) {
  BatteryFixture f;
  BaytechStrip strip(f.engine, {&f.node});
  const double idle_watts = f.node.watts();
  strip.start_polling();
  f.engine.run_until(300 * sim::kSecond);
  strip.stop_polling();
  const double est = strip.estimate_energy_joules(0, 300 * sim::kSecond);
  EXPECT_NEAR(est, idle_watts * 300.0, 1e-6);
}

TEST(Baytech, PartialWindowOverlapIsProrated) {
  BatteryFixture f;
  BaytechStrip strip(f.engine, {&f.node});
  const double idle_watts = f.node.watts();
  strip.start_polling();
  f.engine.run_until(120 * sim::kSecond);
  strip.stop_polling();
  const double est = strip.estimate_energy_joules(30 * sim::kSecond, 90 * sim::kSecond);
  EXPECT_NEAR(est, idle_watts * 60.0, 1e-6);
}

// ---- NodeStateArena equivalence (DESIGN.md §3.15) ---------------------------
//
// The SoA arena claims the batched kernels (accrue_all / refresh_all) and
// the per-view read path are the *same* integrator: identical arithmetic,
// identical addition order, and pure on the read side.  These tests run a
// fig1/fig9-shaped multi-node scenario — phased compute with mid-segment
// DVS transitions (the cpuspeed daemon's signature move in Figure 9) and
// NIC flow churn (Figure 1's network phase) — under three observation
// modes and require bit-identical energies and digest streams.

namespace {

enum class Observe { None, PerNode, BatchSweep };

struct ArenaRunResult {
  // Cumulative per-node joules captured at each mid-run sample point.
  std::vector<std::vector<double>> samples;
  std::vector<pcd::power::EnergyBreakdown> final_breakdown;
  double arena_total = 0;
  double summed_views = 0;
  std::uint64_t digest_hash = 0;
  std::uint64_t digest_count = 0;
};

sim::Process arena_phases(Cpu& cpu) {
  // ~1.5 ms on-chip at 1.4 GHz, a memory-bound stall, then a short tail
  // segment — the Figure 1 breakdown shape compressed to test scale.
  co_await cpu.run_onchip_cycles(2.1e6);
  co_await cpu.run_memstall(3 * sim::kMillisecond);
  co_await cpu.run_onchip_cycles(1.3e6);
}

ArenaRunResult run_arena_scenario(Observe mode) {
  constexpr int kNodes = 4;
  sim::Engine engine;
  pcd::power::NodeStateArena arena(kNodes);
  std::vector<std::unique_ptr<Cpu>> cpus;
  std::vector<std::unique_ptr<NodePowerModel>> models;
  sim::DigestStream digest;
  for (int i = 0; i < kNodes; ++i) {
    cpus.push_back(std::make_unique<Cpu>(engine,
                                         OperatingPointTable::pentium_m_1400(),
                                         CpuConfig{}, sim::Rng(100 + i)));
    models.push_back(std::make_unique<NodePowerModel>(
        engine, *cpus[i], NodePowerParams::nemo(), &arena, i));
    models.back()->set_digest(&digest, i);
  }

  for (auto& c : cpus) sim::spawn(engine, arena_phases(*c));

  // Mid-segment DVS transitions: 0.5 ms lands inside every node's first
  // on-chip segment, 4 ms inside the memory stall.  Node 3 stays at 1400
  // so the sweep always covers heterogeneous frequencies.
  engine.schedule_at(sim::kMillisecond / 2, [&] {
    cpus[0]->set_frequency_mhz(600);
    cpus[1]->set_frequency_mhz(800);
    cpus[2]->set_frequency_mhz(1000);
  });
  engine.schedule_at(4 * sim::kMillisecond, [&] {
    cpus[0]->set_frequency_mhz(1200);
    cpus[1]->set_frequency_mhz(600);
  });
  // NIC flow churn on a different grid than the DVS events.
  for (int k = 0; k < 6; ++k) {
    engine.schedule_at((3 * k + 1) * sim::kMillisecond, [&, k] {
      for (int i = 0; i < kNodes; ++i) {
        models[static_cast<std::size_t>(i)]->set_nic_flows((k + i) % 3);
      }
    });
  }

  ArenaRunResult out;
  // Observation grid: same times in every mode so the event horizon (and
  // therefore the final now()) is mode-independent.
  for (int s = 1; s <= 8; ++s) {
    engine.schedule_at(2 * s * sim::kMillisecond, [&, mode] {
      std::vector<double> row;
      switch (mode) {
        case Observe::None:
          return;  // the marker event still fires; nothing is read
        case Observe::PerNode:
          for (auto& m : models) row.push_back(m->energy_joules());
          break;
        case Observe::BatchSweep: {
          arena.accrue_all(engine.now());
          arena.refresh_all();
          for (int i = 0; i < kNodes; ++i) {
            const double* j = arena.joules(i);
            double t = 0;
            for (int c = 0; c < pcd::power::NodeStateArena::kComponents; ++c) {
              t += j[c];
            }
            row.push_back(t);
          }
          break;
        }
      }
      out.samples.push_back(std::move(row));
    });
  }
  engine.schedule_at(20 * sim::kMillisecond, [] {});
  engine.run();

  for (auto& m : models) out.final_breakdown.push_back(m->energy_breakdown());
  arena.accrue_all(engine.now());
  out.arena_total = arena.total_joules();
  for (auto& m : models) out.summed_views += m->energy_joules();
  out.digest_hash = digest.hash;
  out.digest_count = digest.count;
  return out;
}

}  // namespace

TEST(NodeStateArena, ViewAndBatchObservationAreBitIdentical) {
  // Under the *same* observation grid, the per-view read path and the
  // batched accrue_all sweep are the same integrator: final energies and
  // the digest stream must match bit for bit.  (An observation itself
  // materializes the lazy accrual at the read time — splitting one
  // constant-draw interval into two float additions — so runs with
  // *different* read schedules agree only to ULPs.  That was equally true
  // of the per-object model, which accrued on every read; what the arena
  // must guarantee is that *how* you observe never changes the bits.)
  const auto per_node = run_arena_scenario(Observe::PerNode);
  const auto sweep = run_arena_scenario(Observe::BatchSweep);

  ASSERT_EQ(per_node.final_breakdown.size(), sweep.final_breakdown.size());
  for (std::size_t i = 0; i < per_node.final_breakdown.size(); ++i) {
    const auto& a = per_node.final_breakdown[i];
    const auto& b = sweep.final_breakdown[i];
    EXPECT_EQ(a.cpu, b.cpu) << "node " << i;
    EXPECT_EQ(a.memory, b.memory) << "node " << i;
    EXPECT_EQ(a.disk, b.disk) << "node " << i;
    EXPECT_EQ(a.nic, b.nic) << "node " << i;
    EXPECT_EQ(a.other, b.other) << "node " << i;
  }
  EXPECT_EQ(per_node.digest_hash, sweep.digest_hash);
  EXPECT_EQ(per_node.digest_count, sweep.digest_count);
  EXPECT_GT(per_node.digest_count, 0u);  // the scenario did fold real steps
}

TEST(NodeStateArena, ObservationNeverFoldsDigestRecords) {
  // The digest is a function of the simulation, not of who observed it:
  // reads accrue but never fold, so the record *count* is identical across
  // all observation modes — including none at all.
  const auto none = run_arena_scenario(Observe::None);
  const auto per_node = run_arena_scenario(Observe::PerNode);
  const auto sweep = run_arena_scenario(Observe::BatchSweep);
  EXPECT_EQ(none.digest_count, per_node.digest_count);
  EXPECT_EQ(none.digest_count, sweep.digest_count);
  EXPECT_GT(none.digest_count, 0u);
}

TEST(NodeStateArena, RepeatedRunsAreDeterministic) {
  // Same scenario, same observation schedule: every bit reproduces,
  // including the transition-latency RNG draws and the digest hash.
  const auto a = run_arena_scenario(Observe::None);
  const auto b = run_arena_scenario(Observe::None);
  EXPECT_EQ(a.digest_hash, b.digest_hash);
  EXPECT_EQ(a.digest_count, b.digest_count);
  ASSERT_EQ(a.final_breakdown.size(), b.final_breakdown.size());
  for (std::size_t i = 0; i < a.final_breakdown.size(); ++i) {
    EXPECT_EQ(a.final_breakdown[i].cpu, b.final_breakdown[i].cpu);
    EXPECT_EQ(a.final_breakdown[i].memory, b.final_breakdown[i].memory);
    EXPECT_EQ(a.final_breakdown[i].nic, b.final_breakdown[i].nic);
  }
  EXPECT_EQ(a.arena_total, b.arena_total);
}

TEST(NodeStateArena, PerNodeReadsMatchBatchSweepsMidRun) {
  const auto per_node = run_arena_scenario(Observe::PerNode);
  const auto sweep = run_arena_scenario(Observe::BatchSweep);
  // The view read path (accrue_lane at read time) and the batch kernel
  // (accrue_all + refresh_all) must agree bitwise at every sample point,
  // including samples taken mid-transition and mid-NIC-burst.
  ASSERT_EQ(per_node.samples.size(), sweep.samples.size());
  ASSERT_FALSE(per_node.samples.empty());
  for (std::size_t s = 0; s < per_node.samples.size(); ++s) {
    ASSERT_EQ(per_node.samples[s].size(), sweep.samples[s].size());
    for (std::size_t i = 0; i < per_node.samples[s].size(); ++i) {
      EXPECT_EQ(per_node.samples[s][i], sweep.samples[s][i])
          << "sample " << s << " node " << i;
    }
  }
}

TEST(NodeStateArena, TotalJoulesMatchesViewSumBitwise) {
  // total_joules accumulates per lane in component order, then sums lanes
  // in node order — the exact addition order of summing energy_joules()
  // node by node, so the cluster-level total is bitwise-stable against
  // the per-node path.
  const auto r = run_arena_scenario(Observe::None);
  EXPECT_EQ(r.arena_total, r.summed_views);
}

TEST(NodeStateArena, LanesShareOnePowerConfiguration) {
  sim::Engine engine;
  pcd::power::NodeStateArena arena(2);
  Cpu a(engine, OperatingPointTable::pentium_m_1400(), CpuConfig{}, sim::Rng(1));
  Cpu b(engine, OperatingPointTable::pentium_m_1400(), CpuConfig{}, sim::Rng(2));
  NodePowerModel first(engine, a, NodePowerParams::nemo(), &arena, 0);
  EXPECT_EQ(&first.params(), &arena.params());
  EXPECT_THROW(NodePowerModel(engine, b, NodePowerParams::pentium_iii_server(), &arena, 1),
               std::invalid_argument);
  NodePowerModel second(engine, b, NodePowerParams::nemo(), &arena, 1);
  EXPECT_EQ(&second.params(), &first.params());
}
