// Unit tests for the CPU model: operating points, DVS transitions,
// preemptible work execution, utilization accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "cpu/cpu.hpp"
#include "cpu/operating_point.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace sim = pcd::sim;
using pcd::cpu::Cpu;
using pcd::cpu::CpuConfig;
using pcd::cpu::CpuState;
using pcd::cpu::OperatingPoint;
using pcd::cpu::OperatingPointTable;

namespace {

CpuConfig fixed_transition(sim::SimDuration ns) {
  CpuConfig c;
  c.transition_min = ns;
  c.transition_max = ns;
  return c;
}

struct CpuFixture {
  sim::Engine engine;
  Cpu cpu;
  explicit CpuFixture(CpuConfig cfg = fixed_transition(sim::from_micros(20)))
      : cpu(engine, OperatingPointTable::pentium_m_1400(), cfg, sim::Rng(1)) {}
};

sim::Process run_onchip(Cpu& cpu, double cycles) { co_await cpu.run_onchip_cycles(cycles); }
sim::Process run_mem(Cpu& cpu, sim::SimDuration ns) { co_await cpu.run_memstall(ns); }

}  // namespace

// ---- OperatingPointTable ----------------------------------------------------

TEST(OperatingPointTable, PaperTable1) {
  auto t = OperatingPointTable::pentium_m_1400();
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t.lowest().freq_mhz, 600);
  EXPECT_DOUBLE_EQ(t.lowest().voltage, 0.956);
  EXPECT_EQ(t.highest().freq_mhz, 1400);
  EXPECT_DOUBLE_EQ(t.highest().voltage, 1.484);
  EXPECT_EQ(t.at(2).freq_mhz, 1000);
  EXPECT_DOUBLE_EQ(t.at(2).voltage, 1.308);
}

TEST(OperatingPointTable, SortsByFrequency) {
  OperatingPointTable t({{1400, 1.484}, {600, 0.956}, {1000, 1.308}});
  EXPECT_EQ(t.at(0).freq_mhz, 600);
  EXPECT_EQ(t.at(1).freq_mhz, 1000);
  EXPECT_EQ(t.at(2).freq_mhz, 1400);
}

TEST(OperatingPointTable, IndexOfAndContains) {
  auto t = OperatingPointTable::pentium_m_1400();
  EXPECT_EQ(t.index_of(800), 1u);
  EXPECT_TRUE(t.contains(1200));
  EXPECT_FALSE(t.contains(900));
  EXPECT_THROW(t.index_of(900), std::invalid_argument);
}

TEST(OperatingPointTable, IndexAtLeastClampsHigh) {
  auto t = OperatingPointTable::pentium_m_1400();
  EXPECT_EQ(t.index_at_least(600), 0u);
  EXPECT_EQ(t.index_at_least(700), 1u);
  EXPECT_EQ(t.index_at_least(1400), 4u);
  EXPECT_EQ(t.index_at_least(2000), 4u);
}

TEST(OperatingPointTable, RejectsInvalidTables) {
  EXPECT_THROW(OperatingPointTable(std::vector<OperatingPoint>{}), std::invalid_argument);
  EXPECT_THROW(OperatingPointTable({{600, 1.0}, {600, 1.1}}), std::invalid_argument);
  EXPECT_THROW(OperatingPointTable({{600, 1.2}, {800, 1.0}}), std::invalid_argument);
}

TEST(Cpu, RejectsAnEmptyOperatingPointTable) {
  // A Cpu keeps its residency counters in its record: a table must have 1
  // to kMaxOperatingPoints (8) points.
  sim::Engine e;
  EXPECT_THROW(Cpu(e, OperatingPointTable{}, CpuConfig{}, sim::Rng(1)), std::invalid_argument);
}

TEST(Cpu, RejectsATableLargerThanItsResidencyCounters) {
  sim::Engine e;
  std::vector<OperatingPoint> points;
  for (int i = 0; i < 9; ++i) points.push_back({600 + 100 * i, 0.9 + 0.05 * i});
  EXPECT_THROW(Cpu(e, OperatingPointTable(points), CpuConfig{}, sim::Rng(1)),
               std::invalid_argument);
  points.pop_back();
  Cpu eight(e, OperatingPointTable(points), CpuConfig{}, sim::Rng(1));
  EXPECT_EQ(eight.frequency_mhz(), 1300);
}

TEST(OperatingPointTable, CopiesShareStorageAndCompareEqual) {
  const OperatingPointTable t({{1400, 1.484}, {600, 0.956}, {1000, 1.308}});
  OperatingPointTable copy = t;
  EXPECT_EQ(&copy.get(0), &t.get(0));  // one storage block
  EXPECT_EQ(copy.points(), t.points());
  EXPECT_EQ(copy.at(1).freq_mhz, 1000);

  // Separately built tables with the same points compare equal without
  // sharing; the paper's table is one process-wide block.
  const OperatingPointTable twin({{600, 0.956}, {1000, 1.308}, {1400, 1.484}});
  EXPECT_EQ(twin.points(), t.points());
  EXPECT_NE(&twin.get(0), &t.get(0));
  EXPECT_EQ(&OperatingPointTable::pentium_m_1400().get(0),
            &OperatingPointTable::pentium_m_1400().get(0));

  // Moving is a copy: the source stays valid.
  OperatingPointTable moved = std::move(copy);
  EXPECT_EQ(copy.size(), 3u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.highest().freq_mhz, 1400);
  EXPECT_EQ(moved.points(), t.points());

  // Validation still runs on every table built from points.
  EXPECT_THROW(OperatingPointTable({{800, 1.1}, {800, 1.2}}), std::invalid_argument);
}

TEST(OperatingPointTable, CpusOfOneConfigShareTheTable) {
  sim::Engine e;
  const auto table = OperatingPointTable::pentium_m_1400();
  Cpu a(e, table, CpuConfig{}, sim::Rng(1));
  Cpu b(e, table, CpuConfig{}, sim::Rng(2));
  EXPECT_EQ(&a.table().get(0), &b.table().get(0));
}

// ---- Execution timing -------------------------------------------------------

TEST(Cpu, BootsAtHighestFrequencyIdle) {
  CpuFixture f;
  EXPECT_EQ(f.cpu.frequency_mhz(), 1400);
  EXPECT_EQ(f.cpu.state(), CpuState::Idle);
  EXPECT_FALSE(f.cpu.transitioning());
}

TEST(Cpu, OnChipDurationScalesWithFrequency) {
  // 1.4e9 cycles at 1400 MHz = exactly 1 s.
  CpuFixture f;
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.run();
  EXPECT_EQ(f.engine.now(), sim::kSecond);
}

TEST(Cpu, OnChipSlowsAtLowFrequency) {
  CpuFixture f(fixed_transition(0));
  f.cpu.set_frequency_mhz(600);
  f.engine.run();
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.run();
  // 1.4e9 cycles / 600 MHz = 2.3333... s
  EXPECT_NEAR(sim::to_seconds(f.engine.now()), 1400.0 / 600.0, 1e-6);
}

TEST(Cpu, SecondsAtMaxHelper) {
  CpuFixture f;
  auto work = [](Cpu& c) -> sim::Process { co_await c.run_onchip_seconds_at_max(0.25); };
  sim::spawn(f.engine, work(f.cpu));
  f.engine.run();
  EXPECT_EQ(f.engine.now(), sim::kSecond / 4);
}

TEST(Cpu, MemStallIsFrequencyInsensitive) {
  for (int mhz : {600, 1000, 1400}) {
    CpuFixture f(fixed_transition(0));
    f.cpu.set_frequency_mhz(mhz);
    f.engine.run();
    const sim::SimTime start = f.engine.now();
    sim::spawn(f.engine, run_mem(f.cpu, 123 * sim::kMillisecond));
    f.engine.run();
    EXPECT_EQ(f.engine.now() - start, 123 * sim::kMillisecond) << mhz;
  }
}

TEST(Cpu, StateDuringWorkAndAfter) {
  CpuFixture f;
  std::vector<CpuState> observed;
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.schedule_at(sim::kMillisecond, [&] { observed.push_back(f.cpu.state()); });
  f.engine.run();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0], CpuState::OnChip);
  EXPECT_EQ(f.cpu.state(), CpuState::Idle);
}

// ---- DVS transitions --------------------------------------------------------

TEST(Cpu, TransitionTakesConfiguredLatency) {
  CpuFixture f(fixed_transition(sim::from_micros(25)));
  f.cpu.set_frequency_mhz(600);
  EXPECT_TRUE(f.cpu.transitioning());
  EXPECT_EQ(f.cpu.frequency_mhz(), 1400);  // not applied yet
  f.engine.run();
  EXPECT_EQ(f.engine.now(), sim::from_micros(25));
  EXPECT_EQ(f.cpu.frequency_mhz(), 600);
  EXPECT_EQ(f.cpu.stats().transitions, 1);
  EXPECT_EQ(f.cpu.stats().transition_stall_ns, sim::from_micros(25));
}

TEST(Cpu, TransitionLatencyWithinBounds) {
  CpuConfig cfg;
  cfg.transition_min = sim::from_micros(10);
  cfg.transition_max = sim::from_micros(30);
  for (int seed = 0; seed < 20; ++seed) {
    sim::Engine e;
    Cpu cpu(e, OperatingPointTable::pentium_m_1400(), cfg, sim::Rng(seed));
    cpu.set_frequency_mhz(800);
    e.run();
    EXPECT_GE(e.now(), sim::from_micros(10));
    EXPECT_LE(e.now(), sim::from_micros(30));
  }
}

TEST(Cpu, SettingSameFrequencyIsFree) {
  CpuFixture f;
  f.cpu.set_frequency_mhz(1400);
  EXPECT_FALSE(f.cpu.transitioning());
  f.engine.run();
  EXPECT_EQ(f.cpu.stats().transitions, 0);
  EXPECT_EQ(f.engine.now(), 0);
}

TEST(Cpu, TransitionStateAndPowerOpUseHigherVoltage) {
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  f.cpu.set_frequency_mhz(600);
  EXPECT_EQ(f.cpu.state(), CpuState::Transition);
  EXPECT_EQ(f.cpu.power_op().freq_mhz, 1400);  // higher-voltage endpoint
  f.engine.run();
  f.cpu.set_frequency_mhz(1200);  // upward: higher-voltage endpoint is target
  EXPECT_EQ(f.cpu.power_op().freq_mhz, 1200);
  f.engine.run();
}

TEST(Cpu, MidWorkPreemptionRepricesRemainingCycles) {
  // 1.4e9 cycles at 1400 MHz; at t=0.5 s switch to 600 MHz (20 us stall).
  // Remaining 0.7e9 cycles take 0.7e9/600e6 s; total = 0.5 + 20us + 1.1666… s.
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  f.engine.schedule_at(sim::kSecond / 2, [&] { f.cpu.set_frequency_mhz(600); });
  f.engine.run();
  const double expected = 0.5 + 20e-6 + 0.7e9 / 600e6;
  EXPECT_NEAR(sim::to_seconds(f.engine.now()), expected, 1e-6);
}

TEST(Cpu, MemStallPausedDuringTransition) {
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  sim::spawn(f.engine, run_mem(f.cpu, 100 * sim::kMillisecond));
  f.engine.schedule_at(50 * sim::kMillisecond, [&] { f.cpu.set_frequency_mhz(600); });
  f.engine.run();
  EXPECT_EQ(f.engine.now(), 100 * sim::kMillisecond + sim::from_micros(20));
}

TEST(Cpu, CoalescesTransitionRequests) {
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  f.cpu.set_frequency_mhz(600);
  f.cpu.set_frequency_mhz(800);
  f.cpu.set_frequency_mhz(1000);  // latest wins
  f.engine.run();
  EXPECT_EQ(f.cpu.frequency_mhz(), 1000);
  EXPECT_EQ(f.cpu.stats().transitions, 2);  // 1400->600, then 600->1000
}

TEST(Cpu, PendingTargetEqualToResultIsDropped) {
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  f.cpu.set_frequency_mhz(600);
  f.cpu.set_frequency_mhz(600);
  f.engine.run();
  EXPECT_EQ(f.cpu.frequency_mhz(), 600);
  EXPECT_EQ(f.cpu.stats().transitions, 1);
}

TEST(Cpu, WorkRequestedDuringTransitionStartsAfterIt) {
  CpuFixture f(fixed_transition(sim::from_micros(20)));
  f.cpu.set_frequency_mhz(600);
  sim::spawn(f.engine, run_onchip(f.cpu, 600e6));  // 1 s at 600 MHz
  f.engine.run();
  EXPECT_NEAR(sim::to_seconds(f.engine.now()), 20e-6 + 1.0, 1e-7);
}

// ---- Work queue -------------------------------------------------------------

TEST(Cpu, ConcurrentWorkQueuesFifo) {
  CpuFixture f;
  std::vector<int> order;
  auto work = [&](int tag, double cycles) -> sim::Process {
    co_await f.cpu.run_onchip_cycles(cycles);
    order.push_back(tag);
  };
  sim::spawn(f.engine, work(1, 1.4e8));  // 0.1 s
  sim::spawn(f.engine, work(2, 1.4e8));  // queued behind
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_NEAR(sim::to_seconds(f.engine.now()), 0.2, 1e-9);
}

// ---- Wait scope and utilization accounting ---------------------------------

TEST(Cpu, WaitScopeSetsWaitPoll) {
  CpuFixture f;
  auto waiter = [&](sim::Event& ev) -> sim::Process {
    auto ws = f.cpu.wait_scope();
    co_await ev.wait();
  };
  sim::Event ev(f.engine);
  sim::spawn(f.engine, waiter(ev));
  std::vector<CpuState> states;
  f.engine.schedule_at(sim::kMillisecond, [&] { states.push_back(f.cpu.state()); });
  f.engine.schedule_at(2 * sim::kMillisecond, [&] { ev.set(); });
  f.engine.run();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0], CpuState::WaitPoll);
  EXPECT_EQ(f.cpu.state(), CpuState::Idle);
}

TEST(Cpu, BusyAccountingWeightsStates) {
  CpuConfig cfg = fixed_transition(0);
  cfg.waitpoll_busy_fraction = 0.25;
  CpuFixture f(cfg);
  // 1 s busy, then 1 s waiting, then 1 s idle.
  auto script = [&](sim::Event& ev) -> sim::Process {
    co_await f.cpu.run_onchip_cycles(1.4e9);
    {
      auto ws = f.cpu.wait_scope();
      co_await ev.wait();
    }
  };
  sim::Event ev(f.engine);
  sim::spawn(f.engine, script(ev));
  f.engine.schedule_at(2 * sim::kSecond, [&] { ev.set(); });
  f.engine.schedule_at(3 * sim::kSecond, [] {});
  f.engine.run();
  EXPECT_NEAR(f.cpu.busy_weighted_ns(), (1.0 + 0.25) * 1e9, 1e3);
}

TEST(Cpu, OpResidencyAccumulates) {
  CpuFixture f(fixed_transition(0));
  f.engine.schedule_at(sim::kSecond, [&] { f.cpu.set_frequency_mhz(600); });
  f.engine.schedule_at(3 * sim::kSecond, [] {});
  f.engine.run();
  f.cpu.set_frequency_mhz(600);  // force accounting flush via no-op? (no) —
  // query through busy_weighted_ns path instead: residency updates lazily on
  // state/op changes, so check the recorded split after the 1400->600 change.
  const auto& res = f.cpu.stats().op_residency_ns;
  const auto table = f.cpu.table();
  EXPECT_EQ(res[table.index_of(1400)], sim::kSecond);
  EXPECT_GE(res[table.index_of(600)], 0);
}

// ---- Activity factors -------------------------------------------------------

TEST(Cpu, ActivityFactorsFollowState) {
  CpuConfig cfg = fixed_transition(0);
  CpuFixture f(cfg);
  EXPECT_DOUBLE_EQ(f.cpu.activity(), cfg.act_idle);
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));
  CpuState seen_state{};
  double seen_act = -1;
  f.engine.schedule_at(sim::kMillisecond, [&] {
    seen_state = f.cpu.state();
    seen_act = f.cpu.activity();
  });
  f.engine.run();
  EXPECT_EQ(seen_state, CpuState::OnChip);
  EXPECT_DOUBLE_EQ(seen_act, cfg.act_onchip);
}

TEST(Cpu, WaitPollActivityIsSpinPower) {
  CpuConfig cfg = fixed_transition(0);
  CpuFixture f(cfg);
  auto waiter = [&](sim::Event& ev) -> sim::Process {
    auto ws = f.cpu.wait_scope();
    co_await ev.wait();
  };
  sim::Event ev(f.engine);
  sim::spawn(f.engine, waiter(ev));
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.cpu.activity(), cfg.act_waitpoll);
  ev.set();
  f.engine.run();
}

TEST(Cpu, MemStallActivityOverride) {
  CpuFixture f;
  auto work = [&]() -> sim::Process {
    co_await f.cpu.run_memstall(sim::kSecond, 0.95);
  };
  sim::spawn(f.engine, work());
  double seen_act = -1;
  pcd::cpu::CpuState seen_state{};
  f.engine.schedule_at(sim::kMillisecond, [&] {
    seen_state = f.cpu.state();
    seen_act = f.cpu.activity();
  });
  f.engine.run();
  EXPECT_EQ(seen_state, CpuState::MemStall);
  EXPECT_DOUBLE_EQ(seen_act, 0.95);
  EXPECT_DOUBLE_EQ(f.cpu.activity(), f.cpu.config().act_idle);
}

TEST(Cpu, MemActivityHighestDuringStall) {
  CpuFixture f;
  sim::spawn(f.engine, run_mem(f.cpu, sim::kSecond));
  double seen_mem_act = -1;
  CpuState seen_state{};
  f.engine.schedule_at(sim::kMillisecond, [&] {
    seen_state = f.cpu.state();
    seen_mem_act = f.cpu.mem_activity();
  });
  f.engine.run();
  EXPECT_EQ(seen_state, CpuState::MemStall);
  EXPECT_DOUBLE_EQ(seen_mem_act, 1.0);
  EXPECT_LT(f.cpu.mem_activity(), 0.1);
}
