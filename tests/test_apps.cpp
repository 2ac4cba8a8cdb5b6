// Tests for the workload framework and the NPB replicas' structural
// properties (the trace observations the paper's scheduling relies on).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "run_pin.hpp"
#include "trace/profile.hpp"

using namespace pcd;

TEST(Workloads, RegistryHasAllEightNpbCodes) {
  const auto all = apps::all_npb(0.1);
  ASSERT_EQ(all.size(), 8u);
  const char* expected[] = {"BT.C.9", "CG.C.8", "EP.C.8", "FT.C.8",
                            "IS.C.8", "LU.C.8", "MG.C.8", "SP.C.9"};
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_TRUE(all[i].make_rank != nullptr);
    EXPECT_FALSE(all[i].description.empty());
  }
}

TEST(Workloads, PaperRankCounts) {
  EXPECT_EQ(apps::make_bt(1).ranks, 9);   // BT.C.9
  EXPECT_EQ(apps::make_sp(1).ranks, 9);   // SP.C.9
  EXPECT_EQ(apps::make_ft(1).ranks, 8);
  EXPECT_EQ(apps::make_cg(1).ranks, 8);
  EXPECT_EQ(apps::make_swim(1).ranks, 1);
  EXPECT_EQ(apps::make_micro_comm_bound(1).ranks, 2);
}

TEST(Workloads, LookupByNameIsCaseInsensitiveAndPrefixed) {
  EXPECT_TRUE(apps::npb_by_name("FT").has_value());
  EXPECT_TRUE(apps::npb_by_name("ft").has_value());
  EXPECT_TRUE(apps::npb_by_name("Ft.C.8").has_value());
  EXPECT_TRUE(apps::npb_by_name("swim").has_value());
  EXPECT_FALSE(apps::npb_by_name("ZZ").has_value());
  EXPECT_EQ(apps::npb_by_name("cg")->name, "CG.C.8");
}

namespace {

core::RunResult run_traced(const apps::Workload& w, double /*scale_unused*/ = 0) {
  core::RunConfig cfg;
  cfg.collect_trace = true;
  return core::run_workload(w, cfg);
}

}  // namespace

TEST(Workloads, AllCodesRunToCompletionAtTinyScale) {
  for (const auto& w : apps::all_npb(0.02)) {
    core::RunConfig cfg;
    const auto r = core::run_workload(w, cfg);
    EXPECT_GT(r.delay_s, 0) << w.name;
    EXPECT_GT(r.energy_j, 0) << w.name;
  }
}

TEST(Workloads, FtMatchesFigure9Observations) {
  const auto r = run_traced(apps::make_ft(0.15));
  const auto& p = *r.profile;
  // 1. communication bound, comm:comp about 2:1.
  EXPECT_GT(p.comm_to_comp(), 1.3);
  EXPECT_LT(p.comm_to_comp(), 2.8);
  // 2. alltoall dominates communication.
  double coll = 0, comm = 0;
  for (const auto& rp : p.ranks) {
    coll += rp.collective_s;
    comm += rp.comm_s();
  }
  EXPECT_GT(coll / comm, 0.8);
  // 4. balanced across ranks.
  EXPECT_LT(p.imbalance(), 0.1);
}

TEST(Workloads, CgMatchesFigure12Observations) {
  const auto r = run_traced(apps::make_cg(0.05));
  const auto& p = *r.profile;
  // Wait dominates communication.
  double wait = 0, comm = 0;
  for (const auto& rp : p.ranks) {
    wait += rp.wait_s;
    comm += rp.comm_s();
  }
  EXPECT_GT(wait / comm, 0.5);
  // Ranks 4-7 have larger comm-to-comp ratios than ranks 0-3.
  for (int lower = 0; lower < 4; ++lower) {
    for (int upper = 4; upper < 8; ++upper) {
      EXPECT_GT(p.ranks[upper].comm_to_comp(),
                p.ranks[lower].comm_to_comp()) << lower << "," << upper;
    }
  }
}

TEST(Workloads, EpIsComputeDominated) {
  const auto r = run_traced(apps::make_ep(0.1));
  const auto& p = *r.profile;
  EXPECT_LT(p.comm_to_comp(), 0.05);
}

TEST(Workloads, SwimIsMemoryBound) {
  const auto r = run_traced(apps::make_swim(0.2));
  const auto& p = *r.profile;
  EXPECT_GT(p.ranks[0].memstall_s, 2.0 * p.ranks[0].compute_s);
  EXPECT_DOUBLE_EQ(p.ranks[0].comm_s(), 0.0);
}

TEST(Workloads, MicrobenchmarkCharacters) {
  const auto cpu = run_traced(apps::make_micro_cpu_bound(0.2));
  EXPECT_DOUBLE_EQ(cpu.profile->ranks[0].memstall_s, 0.0);

  const auto mem = run_traced(apps::make_micro_memory_bound(0.2));
  EXPECT_GT(mem.profile->ranks[0].memstall_s, 5.0 * mem.profile->ranks[0].compute_s);

  const auto comm = run_traced(apps::make_micro_comm_bound(0.2));
  double total_comm = 0, total_comp = 0;
  for (const auto& rp : comm.profile->ranks) {
    total_comm += rp.comm_s();
    total_comp += rp.comp_s();
  }
  EXPECT_GT(total_comm, total_comp);
}

TEST(Workloads, ScaleShortensRuns) {
  core::RunConfig cfg;
  const auto small = core::run_workload(apps::make_ft(0.1), cfg);
  const auto large = core::run_workload(apps::make_ft(0.3), cfg);
  EXPECT_GT(large.delay_s, 2.0 * small.delay_s);
}

TEST(Workloads, InternalHooksFireAtPaperInsertionPoints) {
  // FT: before/after the marked all-to-all, once per iteration per rank.
  int before = 0, after = 0, at_start = 0;
  apps::DvsHooks hooks;
  hooks.at_start = [&](mpi::CommBase&, int) { ++at_start; };
  hooks.before_marked_comm = [&](mpi::CommBase&, int) { ++before; };
  hooks.after_marked_comm = [&](mpi::CommBase&, int) { ++after; };
  core::RunConfig cfg;
  cfg.hooks = hooks;
  auto ft = apps::make_ft(0.1);  // 2 iterations
  core::run_workload(ft, cfg);
  EXPECT_EQ(at_start, ft.ranks);
  EXPECT_EQ(before, after);
  EXPECT_EQ(before % ft.ranks, 0);
  EXPECT_GE(before / ft.ranks, 2);
}

TEST(Workloads, WaitHooksFireForCg) {
  int waits = 0;
  apps::DvsHooks hooks;
  hooks.before_wait = [&](mpi::CommBase&, int) { ++waits; };
  core::RunConfig cfg;
  cfg.hooks = hooks;
  core::run_workload(apps::make_cg(0.01), cfg);
  EXPECT_GT(waits, 0);
}

// ---- Compute phases, pinned --------------------------------------------------
//
// The exact events, CPU states, energy and trace records of
// apps::compute_phase on each of its branches.  Any change to when a
// slice's work starts or from where, or to when a trace scope opens or
// closes, moves them; re-pin only on an intended change of the simulated
// behaviour.

namespace {

using pins::RunPin;

machine::ClusterConfig phase_cluster() {
  machine::ClusterConfig c;
  c.nodes = 2;
  c.network.collision_coeff = 0.0;
  c.node.cpu.transition_min = c.node.cpu.transition_max = sim::from_micros(20);
  return c;
}

// Runs body(ctx, rank) as both ranks' processes to completion (setup(engine,
// cluster) runs first) and returns the run's fingerprint.
template <typename Body, typename Setup>
RunPin run_phase_pinned(bool traced, Body body, Setup setup) {
  sim::Engine engine;
  machine::Cluster cluster(engine, phase_cluster());
  pins::PinProbe probe(engine, cluster);
  std::optional<trace::Tracer> tracer;
  if (traced) tracer.emplace(engine, 2);
  mpi::Comm comm(cluster, {0, 1}, {}, tracer ? &*tracer : nullptr);
  apps::AppContext ctx;
  ctx.comm = &comm;
  ctx.tracer = tracer ? &*tracer : nullptr;
  setup(engine, cluster);
  for (int r = 0; r < 2; ++r) sim::spawn(engine, body(ctx, r));
  engine.run();
  return probe.pin(ctx.tracer);
}

template <typename Body>
RunPin run_phase_pinned(bool traced, Body body) {
  return run_phase_pinned(traced, body, [](sim::Engine&, machine::Cluster&) {});
}

}  // namespace

TEST(ComputePinned, OnChipOnly) {
  auto body = [](apps::AppContext& ctx, int r) -> sim::Process {
    co_await apps::compute_phase(ctx, r, 0.12 + 0.01 * r, 0.0);
  };
  EXPECT_EQ(run_phase_pinned(false, body),
            (RunPin{7, 0x78bbae5ff6d9cfbc, 0xff955e577dd7f41a, 0x4020bddc1cd94ab5,
                    0xe87a65fd15247299, 0}));
  EXPECT_EQ(run_phase_pinned(true, body),
            (RunPin{7, 0x78bbae5ff6d9cfbc, 0xff955e577dd7f41a, 0x4020bddc1cd94ab5,
                    0xe87a65fd15247299, 0x4fec531d7dd3853f}));
}

TEST(ComputePinned, MemStallOnly) {
  auto body = [](apps::AppContext& ctx, int r) -> sim::Process {
    co_await apps::compute_phase(ctx, r, 0.0, 0.08 + 0.02 * r);
  };
  EXPECT_EQ(run_phase_pinned(false, body),
            (RunPin{6, 0xd708d62308f85554, 0x8bcf02f0deac1d2d, 0x400f7746887a8d66,
                    0xfc8578ab9dce13f5, 0}));
  EXPECT_EQ(run_phase_pinned(true, body),
            (RunPin{6, 0xd708d62308f85554, 0x8bcf02f0deac1d2d, 0x400f7746887a8d66,
                    0xfc8578ab9dce13f5, 0x6b1f863553b3bfd7}));
}

TEST(ComputePinned, MemActOverride) {
  auto body = [](apps::AppContext& ctx, int r) -> sim::Process {
    co_await apps::compute_phase(ctx, r, 0.03, 0.05, r == 0 ? 0.95 : 0.1);
    co_await apps::compute_phase(ctx, r, 0.02, 0.01);
  };
  EXPECT_EQ(run_phase_pinned(false, body),
            (RunPin{14, 0xdcab87a9bc75046c, 0x7656cec03adb1e3f, 0x4018a339c0ebedfa,
                    0xd940dfd39dce13f5, 0}));
  EXPECT_EQ(run_phase_pinned(true, body),
            (RunPin{14, 0xdcab87a9bc75046c, 0x7656cec03adb1e3f, 0x4018a339c0ebedfa,
                    0xd940dfd39dce13f5, 0x41cb2eba71b4980b}));
}

TEST(ComputePinned, ZeroLengthAndSubTickPhases) {
  // Empty phases finish without suspending; a stall that rounds to 0 ns
  // opens and closes its trace scope at one instant.
  auto body = [](apps::AppContext& ctx, int r) -> sim::Process {
    co_await apps::compute_phase(ctx, r, 0.0, 0.0);
    co_await apps::compute_phase(ctx, r, -1.0, 0.5);
    co_await apps::compute_phase(ctx, r, 0.0, 1e-10);
    co_await sim::delay(sim::kMillisecond);
    co_await apps::compute_phase(ctx, r, 0.001 * (r + 1), 1e-10);
  };
  EXPECT_EQ(run_phase_pinned(false, body),
            (RunPin{6, 0xac361d11b41d44be, 0x8a1dafb74bca7bdb, 0x3fc29a0ad8a11666,
                    0xa01af6ff9dce13f5, 0}));
  EXPECT_EQ(run_phase_pinned(true, body),
            (RunPin{6, 0xac361d11b41d44be, 0x8a1dafb74bca7bdb, 0x3fc29a0ad8a11666,
                    0xa01af6ff9dce13f5, 0xb433d3eccec0d1a4}));
}

TEST(ComputePinned, QueuedBehindProtocolWorkAcrossADvsTransition) {
  // Rank 0's first slice queues behind its send's protocol work, and a
  // frequency change lands mid-slice (the work is paused and re-priced);
  // rank 1 waits for the message, then computes.
  auto body = [](apps::AppContext& ctx, int r) -> sim::Process {
    if (r == 0) {
      auto req = ctx.comm->isend(0, 1, 1, 4096);
      co_await apps::compute_phase(ctx, 0, 0.06, 0.04);
      co_await ctx.comm->wait(0, req);
    } else {
      co_await ctx.comm->recv(1, 0, 1);
      co_await apps::compute_phase(ctx, 1, 0.02, 0.03, 0.5);
    }
  };
  auto dvs = [](sim::Engine& e, machine::Cluster& c) {
    e.schedule_at(sim::from_millis(30), [&c] { c.node(0).cpu().set_frequency_mhz(600); });
    e.schedule_at(sim::from_millis(75), [&c] { c.node(0).cpu().set_frequency_mhz(1400); });
  };
  EXPECT_EQ(run_phase_pinned(false, body, dvs),
            (RunPin{22, 0x086bd8de522d581c, 0x435bb4bacd2a0d8a, 0x4017e2039e46f274,
                    0x5bcaa5322963da41, 0}));
  EXPECT_EQ(run_phase_pinned(true, body, dvs),
            (RunPin{22, 0x086bd8de522d581c, 0x435bb4bacd2a0d8a, 0x4017e2039e46f274,
                    0x5bcaa5322963da41, 0x06b1a906effb9a33}));
}

// ---- Teardown ---------------------------------------------------------------

TEST(ComputeTeardown, RankDestroyedMidPhaseClosesItsTraceScope) {
  sim::Engine engine;
  std::optional<machine::Cluster> cluster(std::in_place, engine, phase_cluster());
  trace::Tracer tracer(engine, 2);
  std::optional<mpi::Comm> comm(std::in_place, *cluster, std::vector<int>{0, 1},
                                mpi::CostParams{}, &tracer);
  apps::AppContext ctx;
  ctx.comm = &*comm;
  ctx.tracer = &tracer;
  auto rank = [&]() -> sim::Process {
    co_await apps::compute_phase(ctx, 0, 0.05, 0.05);  // two slices of 25 + 25 ms
  };
  sim::spawn(engine, rank());
  engine.run_until(sim::from_millis(35));  // inside the first slice's stall
  EXPECT_EQ(cluster->node(0).cpu().state(), cpu::CpuState::MemStall);
  ASSERT_EQ(tracer.records(0).size(), 1u);  // the on-chip half closed
  engine.destroy_suspended_frames();
  ASSERT_EQ(tracer.records(0).size(), 2u);
  EXPECT_EQ(tracer.records(0)[1].cat, trace::Cat::MemStall);
  EXPECT_EQ(tracer.records(0)[1].end, sim::from_millis(35));
  comm.reset();
  cluster.reset();
}
