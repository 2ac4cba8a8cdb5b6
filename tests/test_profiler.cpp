// Tests for the energy-attribution profiler: capture, per-scope energy,
// cross-rank critical path / slack, the DVS advisor, and the
// zero-perturbation guarantee of profiled runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "profiler/profiler.hpp"
#include "sim/provenance.hpp"
#include "sim/time.hpp"

using namespace pcd;

namespace {

trace::Record rec(trace::Cat cat, double begin_s, double end_s,
                  const char* label = "") {
  trace::Record r;
  r.cat = cat;
  r.begin = sim::from_seconds(begin_s);
  r.end = sim::from_seconds(end_s);
  r.label = label;
  return r;
}

/// Hand-scripted two-rank trace:
///   rank 0: Compute [0,1], Send [1,1.1]         (then idle)
///   rank 1: Compute [0,0.5], Recv [0.5,1.2], Compute [1.2,1.5]
///   message rank0 -> rank1: sent at 1.0, received at 1.2
/// Critical path: r0 Compute -> message -> r1 trailing Compute.
/// r0's Send has 0.4 s slack (its local end is not downstream of anything);
/// r1's early Compute has 0.7 s (the Recv absorbs upstream movement).
profiler::RunTrace scripted_trace() {
  profiler::RunTrace run;
  run.records.resize(2);
  run.records[0].push_back(rec(trace::Cat::Compute, 0.0, 1.0));
  run.records[0].push_back(rec(trace::Cat::Send, 1.0, 1.1));
  run.records[1].push_back(rec(trace::Cat::Compute, 0.0, 0.5));
  run.records[1].push_back(rec(trace::Cat::Recv, 0.5, 1.2));
  run.records[1].push_back(rec(trace::Cat::Compute, 1.2, 1.5));
  trace::MessageEvent m;
  m.src = 0;
  m.dst = 1;
  m.bytes = 1024;
  m.t_send = sim::from_seconds(1.0);
  m.t_delivered = sim::from_seconds(1.15);
  m.t_recv_done = sim::from_seconds(1.2);
  run.messages.push_back(m);
  run.t_end = sim::from_seconds(1.5);
  run.table = cpu::OperatingPointTable::pentium_m_1400();
  run.profile_mhz = 1400;
  return run;
}

core::RunResult profiled_run(const apps::Workload& w, std::uint64_t seed = 1) {
  core::RunConfig cfg;
  cfg.seed = seed;
  cfg.profile = true;
  return core::run_workload(w, cfg);
}

}  // namespace

// ---- critical path and slack on a scripted trace ----------------------------

TEST(CriticalPath, ScriptedTraceSlackMatchesHandDerivation) {
  const auto run = scripted_trace();
  const auto slack = profiler::analyze_slack(run);

  EXPECT_DOUBLE_EQ(slack.makespan_s, 1.5);
  ASSERT_EQ(slack.record_slack_s.size(), 2u);
  ASSERT_EQ(slack.record_slack_s[0].size(), 2u);
  ASSERT_EQ(slack.record_slack_s[1].size(), 3u);

  // rank 0: the Compute feeding the message is critical; the Send's own
  // completion is not downstream of anything (slack = 1.5 - 1.1 = 0.4).
  EXPECT_NEAR(slack.record_slack_s[0][0], 0.0, 1e-9);
  EXPECT_NEAR(slack.record_slack_s[0][1], 0.4, 1e-9);
  // rank 1: early Compute ends 0.7 s before the elastic Recv would need it;
  // the Recv and the trailing Compute are critical.
  EXPECT_NEAR(slack.record_slack_s[1][0], 0.7, 1e-9);
  EXPECT_NEAR(slack.record_slack_s[1][1], 0.0, 1e-9);
  EXPECT_NEAR(slack.record_slack_s[1][2], 0.0, 1e-9);

  // Elastic seconds = Recv duration on rank 1, none on rank 0.
  EXPECT_NEAR(slack.rank_elastic_s[0], 0.0, 1e-9);
  EXPECT_NEAR(slack.rank_elastic_s[1], 0.7, 1e-9);
}

TEST(CriticalPath, SlackIsNonNegativeOnRealTraces) {
  for (const auto& w : {apps::make_ft(0.2), apps::make_cg(0.2)}) {
    const auto r = profiled_run(w);
    ASSERT_TRUE(r.profiler.has_value()) << w.name;
    const auto& slack = r.profiler->slack;
    EXPECT_GT(slack.makespan_s, 0.0);
    for (const auto& rank_slack : slack.record_slack_s) {
      for (double s : rank_slack) EXPECT_GE(s, 0.0) << w.name;
    }
  }
}

// Every slack output of a profiled FT and CG run, folded bit for bit:
// the backward pass may visit anchors of one instant in any order, but a
// change that moves any slack, critical or elastic second shows here.
std::uint64_t slack_bits(const profiler::SlackAnalysis& s) {
  sim::DigestStream h;
  auto fold = [&h](double v) { h.fold(std::bit_cast<std::uint64_t>(v)); };
  for (const auto& rank : s.record_slack_s) {
    h.fold(rank.size());
    for (double v : rank) fold(v);
  }
  for (double v : s.rank_critical_s) fold(v);
  for (double v : s.rank_elastic_s) fold(v);
  for (double v : s.critical_by_cat_s) fold(v);
  return h.hash;
}

TEST(CriticalPath, SlackPinnedOnProfiledFtAndCgRuns) {
  const auto ft = profiled_run(apps::make_ft(0.2));
  const auto cg = profiled_run(apps::make_cg(0.2));
  ASSERT_TRUE(ft.profiler.has_value() && cg.profiler.has_value());
  EXPECT_EQ(slack_bits(ft.profiler->slack), 0x7f6d0ab4b6e8b372ULL);
  EXPECT_EQ(slack_bits(cg.profiler->slack), 0xc23b582b8f342c03ULL);
}

TEST(CriticalPath, RigidityClassification) {
  EXPECT_TRUE(profiler::is_rigid(trace::Cat::Compute));
  EXPECT_TRUE(profiler::is_rigid(trace::Cat::MemStall));
  EXPECT_TRUE(profiler::is_rigid(trace::Cat::Send));
  EXPECT_TRUE(profiler::is_rigid(trace::Cat::Collective));
  EXPECT_FALSE(profiler::is_rigid(trace::Cat::Wait));
  EXPECT_FALSE(profiler::is_rigid(trace::Cat::Recv));
}

// ---- energy attribution -----------------------------------------------------

TEST(Attribution, ScopedEnergyAccountsForTheWholeRun) {
  const auto r = profiled_run(apps::make_ft(0.2));
  ASSERT_TRUE(r.profiler.has_value());
  const auto& attr = r.profiler->attribution;

  // Per-rank sums add up to the total scoped energy, and scoped energy
  // accounts for (almost) all measured energy: FT ranks live inside trace
  // scopes nearly wall-to-wall.
  double rank_sum = 0;
  for (const auto& ra : attr.ranks) rank_sum += ra.joules;
  EXPECT_NEAR(rank_sum, attr.scoped_j, 1e-6 * attr.scoped_j);
  EXPECT_LE(attr.scoped_j, r.energy_j * (1 + 1e-9));
  EXPECT_GT(attr.scoped_j, 0.95 * r.energy_j);

  // Label aggregation: the FT all-to-all dominates energy.
  ASSERT_FALSE(attr.labels.empty());
  EXPECT_EQ(std::string(attr.labels.front().label), "mpi_alltoall");
  EXPECT_GT(attr.labels.front().joules, 0.5 * attr.scoped_j);

  // Cycles are only attributed where the CPU is frequency-sensitive:
  // memory stalls retire none.
  for (const auto& ra : attr.ranks) {
    EXPECT_DOUBLE_EQ(ra.at(trace::Cat::MemStall).cycles, 0.0);
    EXPECT_GT(ra.at(trace::Cat::Compute).cycles, 0.0);
  }
}

TEST(Attribution, MessageLogMatchesTransferCounters) {
  const auto r = profiled_run(apps::make_cg(0.1));
  ASSERT_TRUE(r.profiler.has_value());
  const auto& msgs = r.profiler->run.messages;
  ASSERT_FALSE(msgs.empty());
  for (const auto& m : msgs) {
    EXPECT_TRUE(m.complete());
    EXPECT_GE(m.t_delivered, m.t_send);
    EXPECT_GE(m.t_recv_done, m.t_delivered);
    EXPECT_GE(m.src, 0);
    EXPECT_GE(m.dst, 0);
    EXPECT_NE(m.src, m.dst);
  }
  EXPECT_EQ(static_cast<std::int64_t>(msgs.size()), r.messages);
}

// ---- the advisor ------------------------------------------------------------

TEST(Advisor, FtRederivesThePaperPhaseSchedule) {
  const auto r = profiled_run(apps::make_ft(0.2));
  ASSERT_TRUE(r.profiler.has_value());
  const auto schedule = profiler::advise(*r.profiler);

  // §5.3: gear down to 600 MHz around the MPI_Alltoall, 1400 elsewhere.
  EXPECT_EQ(schedule.mode, profiler::InternalSchedule::Mode::Phase);
  EXPECT_EQ(schedule.phase_label, "mpi_alltoall");
  EXPECT_EQ(schedule.high_mhz, 1400);
  EXPECT_EQ(schedule.low_mhz, 600);
  EXPECT_LE(schedule.predicted_delay_factor, 1.02);
  EXPECT_LT(schedule.predicted_energy_factor, 0.8);
  EXPECT_FALSE(schedule.rationale.empty());
}

TEST(Advisor, CgReproducesTheRankAsymmetry) {
  const auto r = profiled_run(apps::make_cg(0.2));
  ASSERT_TRUE(r.profiler.has_value());
  const auto schedule = profiler::advise(*r.profiler);

  // §5.4: the lower half waits less and must run faster than the upper half.
  ASSERT_EQ(schedule.mode, profiler::InternalSchedule::Mode::PerRank);
  ASSERT_EQ(schedule.rank_mhz.size(), 8u);
  const int lower_min = *std::min_element(schedule.rank_mhz.begin(),
                                          schedule.rank_mhz.begin() + 4);
  const int upper_max = *std::max_element(schedule.rank_mhz.begin() + 4,
                                          schedule.rank_mhz.end());
  EXPECT_GT(lower_min, upper_max);
}

TEST(Advisor, ScheduleExecutesThroughInternalHooks) {
  const auto w = apps::make_ft(0.2);
  const auto baseline = profiled_run(w);
  ASSERT_TRUE(baseline.profiler.has_value());
  const auto schedule = profiler::advise(*baseline.profiler);

  core::RunConfig advised_cfg;
  advised_cfg.seed = 1;
  advised_cfg.hooks = core::hooks_for(schedule);
  const auto advised = core::run_workload(w, advised_cfg);

  // The derived schedule must actually save energy within its delay bound.
  EXPECT_LT(advised.energy_j, 0.8 * baseline.energy_j);
  EXPECT_LT(advised.delay_s, baseline.delay_s * 1.02);

  // And the advisor's first-order predictions are in the right ballpark.
  EXPECT_NEAR(advised.energy_j / baseline.energy_j,
              schedule.predicted_energy_factor, 0.10);
  EXPECT_NEAR(advised.delay_s / baseline.delay_s, schedule.predicted_delay_factor,
              0.02);
}

TEST(Advisor, NoneScheduleYieldsEmptyHooks) {
  profiler::InternalSchedule schedule;  // Mode::None
  const auto hooks = core::hooks_for(schedule);
  EXPECT_FALSE(hooks.at_start);
  EXPECT_FALSE(hooks.before_marked_comm);
  EXPECT_FALSE(hooks.after_marked_comm);
}

// ---- zero perturbation ------------------------------------------------------

TEST(Profiler, ProfilingDoesNotPerturbTheRun) {
  core::RunConfig off;
  off.seed = 17;
  core::RunConfig on = off;
  on.profile = true;
  for (const auto& w : {apps::make_ft(0.2), apps::make_cg(0.1)}) {
    const auto a = core::run_workload(w, off);
    const auto b = core::run_workload(w, on);
    EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s) << w.name;
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j) << w.name;
    EXPECT_EQ(a.dvs_transitions, b.dvs_transitions) << w.name;
    EXPECT_EQ(a.messages, b.messages) << w.name;
  }
}

TEST(Profiler, CollectionOnlySkipsBatchAnalysis) {
  core::RunConfig cfg;
  cfg.seed = 1;
  cfg.profile = true;
  cfg.profile_analysis = false;
  const auto r = core::run_workload(apps::make_cg(0.1), cfg);

  // No ProfileResult — the DAG pass was skipped — but attribution still
  // happened during collection: the flat profile carries per-rank joules.
  EXPECT_FALSE(r.profiler.has_value());
  ASSERT_TRUE(r.profile.has_value());
  double scoped = 0;
  for (const auto& rp : r.profile->ranks) scoped += rp.energy_j;
  EXPECT_GT(scoped, 0.95 * r.energy_j);

  // And the run itself is still bit-identical to an unprofiled one.
  core::RunConfig off;
  off.seed = 1;
  const auto plain = core::run_workload(apps::make_cg(0.1), off);
  EXPECT_DOUBLE_EQ(plain.delay_s, r.delay_s);
  EXPECT_DOUBLE_EQ(plain.energy_j, r.energy_j);
}

// Sequence id -1 marks a message no tracer logged: updates to it no-op.
TEST(Profiler, UnloggedMessageUpdatesAreNoOps) {
  sim::Engine e;
  trace::Tracer tracer(e, 2);
  tracer.log_delivered(-1);  // must no-op, not crash
  tracer.log_recv_done(-1);
  EXPECT_TRUE(tracer.messages().empty());
  EXPECT_EQ(tracer.log_send(0, 1, 7, 64), 0);
}
