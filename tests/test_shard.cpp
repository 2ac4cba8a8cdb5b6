// Sharded parallel event engine (DESIGN.md §3.14): ShardPlan arithmetic,
// ShardedEngine window/barrier mechanics, the cross-shard MPI transport,
// digest merging, the sharded run_workload path, and the determinism
// guarantees the acceptance criteria name — repeat-identical multi-shard
// runs, a 1-shard path bit-identical to the classic engine, and campaign
// fingerprints that stay reproducible with shards in the base config.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "machine/partition.hpp"
#include "mpi/sharded_comm.hpp"
#include "sim/process.hpp"
#include "sim/sharded.hpp"
#include "telemetry/determinism.hpp"
#include "telemetry/export.hpp"

namespace pcd {
namespace {

constexpr double kScale = 0.02;

// --- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, ContiguousSpreadsRemainderOverLeadingShards) {
  const auto plan = machine::ShardPlan::contiguous(10, 4);
  ASSERT_EQ(plan.shards(), 4);
  EXPECT_EQ(plan.total(), 10);
  EXPECT_EQ(plan.count(0), 3);
  EXPECT_EQ(plan.count(1), 3);
  EXPECT_EQ(plan.count(2), 2);
  EXPECT_EQ(plan.count(3), 2);
  for (int g = 0; g < plan.total(); ++g) {
    EXPECT_EQ(plan.global_of(plan.shard_of(g), plan.local_of(g)), g);
  }
  EXPECT_EQ(plan.shard_of(0), 0);
  EXPECT_EQ(plan.shard_of(9), 3);
  EXPECT_EQ(plan.local_of(6), 0);  // first rank of shard 2
}

TEST(ShardPlan, ClampsShardsToTotalAndRejectsNonPositive) {
  const auto plan = machine::ShardPlan::contiguous(3, 8);
  EXPECT_EQ(plan.shards(), 3);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(plan.count(s), 1);
  EXPECT_THROW(machine::ShardPlan::contiguous(0, 2), std::invalid_argument);
  EXPECT_THROW(machine::ShardPlan::contiguous(4, 0), std::invalid_argument);
}

TEST(ShardPlan, ShardSeedsAreDecorrelatedAndStable) {
  EXPECT_EQ(machine::shard_seed(7, 0), machine::shard_seed(7, 0));
  EXPECT_NE(machine::shard_seed(7, 0), machine::shard_seed(7, 1));
  EXPECT_NE(machine::shard_seed(7, 0), machine::shard_seed(8, 0));
}

// --- ShardedEngine ----------------------------------------------------------

TEST(ShardedEngine, RejectsBadConstructionAndShortPosts) {
  EXPECT_THROW(sim::ShardedEngine(0, 1000), std::invalid_argument);
  EXPECT_THROW(sim::ShardedEngine(2, 0), std::invalid_argument);

  sim::ShardedEngine se(2, 1000);
  // Driver-side seeding at >= lookahead is fine; anything shorter is a
  // protocol bug and must throw instead of silently breaking determinism.
  EXPECT_NO_THROW(se.post(0, 1, 1000, [] {}));
  EXPECT_THROW(se.post(0, 1, 999, [] {}), std::logic_error);
}

TEST(ShardedEngine, DeliversCrossShardPostsAtTheStampedTime) {
  sim::ShardedEngine se(2, 1000);
  sim::SimTime delivered_at = 0;
  se.shard(0).schedule_at(500, [&] {
    se.post(0, 1, 500 + 1000, [&] { delivered_at = se.shard(1).now(); });
  });
  const auto stats = se.run();
  EXPECT_EQ(delivered_at, 1500);
  EXPECT_EQ(stats.posts, 1u);
  EXPECT_GE(stats.windows, 1u);
}

TEST(ShardedEngine, ParallelAndSerialExecutionAreIdentical) {
  // A little cross-shard ping-pong, run once on worker threads and once on
  // the calling thread: both orderings must match event-for-event.
  auto run_pingpong = [](bool parallel) {
    sim::ShardedEngineOptions opt;
    opt.parallel = parallel;
    sim::ShardedEngine se(4, 100, opt);
    // One log per shard: each is written only from its own shard's events,
    // so the comparison checks the real guarantee — every shard's event
    // sequence is identical regardless of how windows are executed.
    std::array<std::vector<sim::SimTime>, 4> logs;
    struct Hop {
      sim::ShardedEngine* se;
      std::array<std::vector<sim::SimTime>, 4>* logs;
      void operator()(int from, int hops) const {
        (*logs)[from].push_back(se->shard(from).now() * 10 + from);
        if (hops == 0) return;
        const int to = (from + 1) % 4;
        auto self = *this;
        se->post(from, to, se->shard(from).now() + 100,
                 [self, to, hops] { self(to, hops - 1); });
      }
    };
    for (int s = 0; s < 4; ++s) {
      se.shard(s).schedule_at(s * 7, [&se, &logs, s] {
        Hop{&se, &logs}(s, 6);
      });
    }
    se.run();
    return logs;
  };
  EXPECT_EQ(run_pingpong(false), run_pingpong(true));
}

TEST(ShardedEngine, BarrierCallbackCanStopTheRun) {
  sim::ShardedEngine se(2, 1000);
  int fired = 0;
  for (sim::SimTime t = 0; t < 10000; t += 1000) {
    se.shard(0).schedule_at(t, [&] { ++fired; });
  }
  int barriers = 0;
  se.run(sim::ShardedEngine::kNoLimit, [&](sim::SimTime) {
    return ++barriers < 2;  // stop after the second barrier
  });
  EXPECT_LT(fired, 10);
  EXPECT_EQ(barriers, 2);
}

// --- merge_digests ----------------------------------------------------------

TEST(MergeDigests, SinglePartIsIdentity) {
  telemetry::RunDigest d;
  d.streams[0].fold(1);
  d.streams[3].fold(2);
  d.checkpoints.push_back({});
  const auto m = telemetry::merge_digests({d});
  EXPECT_EQ(m.root(), d.root());
  EXPECT_EQ(m.checkpoints.size(), 1u);
}

TEST(MergeDigests, MultiPartFoldsInShardOrder) {
  telemetry::RunDigest a, b;
  a.streams[0].fold(1);
  b.streams[0].fold(2);
  const auto ab = telemetry::merge_digests({a, b});
  const auto ba = telemetry::merge_digests({b, a});
  EXPECT_NE(ab.root(), ba.root());  // order-sensitive
  EXPECT_EQ(ab.root(), telemetry::merge_digests({a, b}).root());
  EXPECT_EQ(ab.streams[0].count, a.streams[0].count + b.streams[0].count);
}

// --- cross-shard MPI transport ----------------------------------------------

struct ShardedMpiFixture {
  sim::ShardedEngine engines;
  machine::ShardPlan plan;
  std::vector<std::unique_ptr<machine::Cluster>> clusters;
  std::unique_ptr<mpi::ShardedComm> comm;

  explicit ShardedMpiFixture(int ranks, int shards)
      : engines(shards, /*lookahead=*/machine::ClusterConfig{}.network.latency),
        plan(machine::ShardPlan::contiguous(ranks, shards)) {
    machine::ClusterConfig cc;
    cc.network.collision_coeff = 0.0;
    clusters = machine::build_shard_clusters(engines, cc, plan);
    std::vector<machine::Cluster*> ptrs;
    for (auto& c : clusters) ptrs.push_back(c.get());
    comm = std::make_unique<mpi::ShardedComm>(engines, ptrs, plan);
  }

  // Parked coroutine frames reference the comm and clusters; destroy them
  // while those members are still alive (mirroring the sharded runner).
  ~ShardedMpiFixture() {
    for (int s = 0; s < engines.shards(); ++s) {
      engines.shard(s).destroy_suspended_frames();
    }
  }
};

TEST(ShardedComm, CrossShardSendRecvDeliversBytes) {
  ShardedMpiFixture f(4, 2);  // ranks 0,1 on shard 0; ranks 2,3 on shard 1
  std::int64_t got = 0;
  auto sender = [&]() -> sim::Process { co_await f.comm->send(0, 3, 5, 4096); };
  auto receiver = [&]() -> sim::Process { got = co_await f.comm->recv(3, 0, 5); };
  sim::spawn(f.engines.shard(0), sender());
  sim::spawn(f.engines.shard(1), receiver());
  f.engines.run();
  EXPECT_EQ(got, 4096);
  EXPECT_EQ(f.comm->stats().messages, 1);
  EXPECT_EQ(f.comm->stats().bytes, 4096);
}

TEST(ShardedComm, IntraShardTrafficUsesTheInnerTransport) {
  ShardedMpiFixture f(4, 2);
  std::int64_t got = 0;
  auto sender = [&]() -> sim::Process { co_await f.comm->send(0, 1, 9, 512); };
  auto receiver = [&]() -> sim::Process { got = co_await f.comm->recv(1, 0, 9); };
  sim::spawn(f.engines.shard(0), sender());
  sim::spawn(f.engines.shard(0), receiver());
  f.engines.run();
  EXPECT_EQ(got, 512);
  EXPECT_EQ(f.comm->inner(0).stats().messages, 1);
}

TEST(ShardedComm, RendezvousMessagesCrossShardsToo) {
  ShardedMpiFixture f(2, 2);
  const std::int64_t big = 4 * 1024 * 1024;  // far past the eager limit
  std::int64_t got = 0;
  auto sender = [&]() -> sim::Process { co_await f.comm->send(0, 1, 1, big); };
  auto receiver = [&]() -> sim::Process { got = co_await f.comm->recv(1, 0, 1); };
  sim::spawn(f.engines.shard(0), sender());
  sim::spawn(f.engines.shard(1), receiver());
  f.engines.run();
  EXPECT_EQ(got, big);
}

// Rank bodies for the collective tests live at namespace scope: a coroutine
// spawned from a loop-local lambda would outlive its closure (the captures
// die with the lambda object, not with the frame).
// Each rank counts into its own slot: ranks on different shards finish on
// different worker threads, so a shared counter would be a data race.
sim::Process collective_rank(mpi::ShardedComm& comm, int r, int* done) {
  co_await comm.barrier(r);
  co_await comm.allreduce(r, 1024);
  co_await comm.alltoall(r, 256);
  ++*done;
}

sim::Process burst_rank(mpi::ShardedComm& comm, int r) {
  co_await comm.allreduce(r, 4096);
  co_await comm.alltoallv_burst(r, std::vector<std::int64_t>(8, 100000));
}

TEST(ShardedComm, CollectivesRunAcrossShardBoundaries) {
  ShardedMpiFixture f(8, 4);
  std::vector<int> done(8, 0);
  std::vector<sim::Process> procs;
  for (int r = 0; r < 8; ++r) {
    procs.push_back(sim::spawn(f.engines.shard(f.plan.shard_of(r)),
                               collective_rank(*f.comm, r, &done[r])));
  }
  f.engines.run();
  for (std::size_t r = 0; r < procs.size(); ++r) {
    EXPECT_FALSE(procs[r].failed()) << "rank " << r << " died";
  }
  EXPECT_EQ(done, std::vector<int>(8, 1));
}

TEST(ShardedComm, RepeatedRunsAreIdentical) {
  auto run_once = [] {
    ShardedMpiFixture f(8, 4);
    std::vector<sim::Process> procs;
    for (int r = 0; r < 8; ++r) {
      procs.push_back(
          sim::spawn(f.engines.shard(f.plan.shard_of(r)), burst_rank(*f.comm, r)));
    }
    const auto stats = f.engines.run();
    for (const auto& p : procs) EXPECT_TRUE(p.done());
    return std::tuple{stats.events, stats.posts, stats.horizon};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ShardedComm, RejectsWildcardReceives) {
  ShardedMpiFixture f(4, 2);
  EXPECT_THROW(f.comm->irecv(0), std::invalid_argument);
  EXPECT_THROW(f.comm->irecv(0, mpi::CommBase::kAnySource, 3),
               std::invalid_argument);
  EXPECT_THROW(f.comm->irecv(0, 2, mpi::CommBase::kAnyTag),
               std::invalid_argument);
}

// --- validate() -------------------------------------------------------------

TEST(ShardConfig, ValidateRejectsNonPositiveAndSingleEngineLayers) {
  core::RunConfig cfg;
  cfg.shards = 0;
  EXPECT_FALSE(cfg.validate().empty());
  EXPECT_THROW(core::RunConfigBuilder(cfg).build(), std::invalid_argument);

  // Every observation layer shards: trace, profile, meters, telemetry,
  // faults, digests, and the flight recorder are all accepted at shards > 1
  // (collected per shard, merged deterministically — DESIGN.md §3.14).
  cfg.shards = 2;
  EXPECT_TRUE(cfg.validate().empty());
  cfg.collect_trace = true;
  cfg.profile = true;
  cfg.use_meters = true;
  cfg.telemetry.enabled = true;
  cfg.faults.events.push_back(fault::node_crash(1.0, 0));
  cfg.faults.resilience.checkpoint_interval_s = 5.0;
  cfg.determinism.digest = true;
  cfg.determinism.flight_recorder = true;
  EXPECT_TRUE(cfg.validate().empty()) << core::describe(cfg.validate());

  // The one residual single-engine assumption: focused per-event capture and
  // seq perturbation key off machine-wide dispatch ordinals, which a sharded
  // run does not have.
  cfg.determinism.capture_begin = 100;
  cfg.determinism.capture_end = 200;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.determinism.capture_begin = cfg.determinism.capture_end = 0;
  cfg.determinism.perturb_seq = 7;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.determinism.perturb_seq = 0;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ShardConfig, BuilderSetsShardsAndExposesTopology) {
  core::RunConfigBuilder b;
  b.shards(4).topology().network.latency = sim::from_micros(20);
  const auto cfg = b.seed(9).build();
  EXPECT_EQ(cfg.shards, 4);
  EXPECT_EQ(cfg.cluster.network.latency, sim::from_micros(20));
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(ShardConfig, NetworkValidationFlagsNonPositiveLatency) {
  core::RunConfig cfg;
  cfg.cluster.network.latency = 0;
  const auto issues = cfg.validate();
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& i : issues) {
    found = found || i.field.find("latency") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

// --- sharded run_workload ---------------------------------------------------

core::RunResult sharded_ft(int shards, core::RunConfig cfg = {}) {
  cfg.shards = shards;
  cfg.determinism.digest = true;
  return core::run_workload(apps::make_ft(kScale), cfg);
}

TEST(ShardedRunner, MultiShardRunsRepeatBitIdentically) {
  for (int shards : {2, 4, 8}) {
    const auto a = sharded_ft(shards);
    const auto b = sharded_ft(shards);
    EXPECT_EQ(a.delay_s, b.delay_s) << shards << " shards";
    EXPECT_EQ(a.energy_j, b.energy_j) << shards << " shards";
    EXPECT_EQ(a.messages, b.messages) << shards << " shards";
    ASSERT_TRUE(a.determinism.has_value());
    ASSERT_TRUE(b.determinism.has_value());
    EXPECT_EQ(a.determinism->digest.root(), b.determinism->digest.root())
        << shards << " shards";
  }
}

TEST(ShardedRunner, OneShardTakesTheClassicPathBitIdentically) {
  core::RunConfig plain;
  plain.determinism.digest = true;
  const auto classic = core::run_workload(apps::make_ft(kScale), plain);
  const auto one = sharded_ft(1);
  EXPECT_EQ(classic.delay_s, one.delay_s);
  EXPECT_EQ(classic.energy_j, one.energy_j);
  EXPECT_EQ(classic.determinism->digest.root(), one.determinism->digest.root());
}

TEST(ShardedRunner, ShardCountClampsToTheRankCount) {
  // FT has 8 ranks; 64 shards must clamp to 8 and still repeat exactly.
  const auto a = sharded_ft(64);
  const auto b = sharded_ft(8);
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.determinism->digest.root(), b.determinism->digest.root());
}

TEST(ShardedRunner, ResultsStayPhysicallyCloseToTheClassicEngine) {
  // Different shard counts are different (deterministic) interleavings with
  // an uncontended cross-shard uplink, so results differ in detail — but
  // delay and energy must remain the same physics, not drift wildly.
  const auto classic = core::run_workload(apps::make_ft(kScale), {});
  const auto sharded = sharded_ft(4);
  EXPECT_FALSE(sharded.failed);
  EXPECT_GT(sharded.delay_s, 0);
  EXPECT_GT(sharded.energy_j, 0);
  EXPECT_NEAR(sharded.delay_s / classic.delay_s, 1.0, 0.5);
  EXPECT_NEAR(sharded.energy_j / classic.energy_j, 1.0, 0.5);
}

TEST(ShardedRunner, Fig1ShapedStaticFrequencyRunsRepeatAcrossShardCounts) {
  // Figure 1 shape: FT at a fixed external frequency.
  for (int shards : {2, 4}) {
    core::RunConfig cfg;
    cfg.static_mhz = 600;
    const auto a = sharded_ft(shards, cfg);
    const auto b = sharded_ft(shards, cfg);
    EXPECT_EQ(a.delay_s, b.delay_s) << shards << " shards";
    EXPECT_EQ(a.determinism->digest.root(), b.determinism->digest.root())
        << shards << " shards";
    EXPECT_GT(a.dvs_transitions, 0) << shards << " shards";
  }
}

TEST(ShardedRunner, Fig9ShapedInternalScheduleRunsRepeatAcrossShardCounts) {
  // Figure 9 shape: FT with the INTERNAL per-phase schedule.
  for (int shards : {2, 8}) {
    core::RunConfig cfg;
    cfg.hooks = core::internal_phase_hooks(1400, 600);
    const auto a = sharded_ft(shards, cfg);
    const auto b = sharded_ft(shards, cfg);
    EXPECT_EQ(a.delay_s, b.delay_s) << shards << " shards";
    EXPECT_EQ(a.energy_j, b.energy_j) << shards << " shards";
    EXPECT_EQ(a.determinism->digest.root(), b.determinism->digest.root())
        << shards << " shards";
  }
}

TEST(ShardedRunner, CpuspeedDaemonRunsUnderSharding) {
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams::v1_2_1();
  const auto a = sharded_ft(2, cfg);
  const auto b = sharded_ft(2, cfg);
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.determinism->digest.root(), b.determinism->digest.root());
}

// --- sharded observability ---------------------------------------------------

// Comp-only rank: identical work on every rank and no communication.  The
// simulation is then bit-identical at every shard count — messages crossing a
// shard boundary pick up lookahead-quantized timing, which is why the FT
// tests above compare repeats only at a fixed count.
sim::Process comp_only_rank(apps::AppContext& ctx, int rank, int steps) {
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  for (int s = 0; s < steps; ++s) {
    if (ctx.tracer != nullptr) ctx.tracer->mark_iteration(rank);
    co_await apps::compute_phase(ctx, rank, /*onchip_s=*/0.06, /*mem_s=*/0.03);
  }
}

apps::Workload make_comp_only(int ranks, int steps) {
  apps::Workload w;
  w.name = "comp." + std::to_string(ranks);
  w.ranks = ranks;
  w.iterations = steps;
  w.make_rank = [steps](apps::AppContext& ctx, int rank) {
    return comp_only_rank(ctx, rank, steps);
  };
  return w;
}

// Pin the DVS transition stall: it is drawn from the node RNG, and shard
// clusters seed their nodes differently per shard, so a [min, max] interval
// would make transition-completion timestamps shard-count-dependent.
void pin_transition_latency(core::RunConfig& cfg) {
  cfg.cluster.node.cpu.transition_min = sim::from_micros(20.0);
  cfg.cluster.node.cpu.transition_max = sim::from_micros(20.0);
}

TEST(ShardedObservability, OutputsAreBitIdenticalAcrossShardCounts) {
  const auto app = make_comp_only(8, 20);
  auto run_at = [&](int shards) {
    core::RunConfig cfg;
    cfg.shards = shards;
    cfg.static_mhz = 600;
    pin_transition_latency(cfg);
    cfg.telemetry.enabled = true;
    cfg.profile = true;
    cfg.determinism.digest = true;
    // Node-targeted fault in an upper shard plus a cluster-wide one (the
    // latter is replicated silently to every shard; only shard 0 records).
    cfg.faults.events.push_back(fault::stuck_dvs(1.0, 5, 2.0));
    cfg.faults.events.push_back(
        fault::sensor_dropout(1.5, -1, fault::SensorMode::Stale, 1.0));
    return core::run_workload(app, cfg);
  };
  const auto one = run_at(1);
  ASSERT_TRUE(one.telemetry.has_value());
  ASSERT_TRUE(one.fault_report.has_value());
  ASSERT_TRUE(one.profiler.has_value());
  for (int shards : {2, 4}) {
    const auto s = run_at(shards);
    ASSERT_TRUE(s.telemetry.has_value()) << shards << " shards";
    // Merged exports carry no shard label/process, so every rendering must
    // be byte-identical to the single-engine run's.
    EXPECT_EQ(telemetry::to_prometheus(one.telemetry->metrics),
              telemetry::to_prometheus(s.telemetry->metrics))
        << shards << " shards";
    EXPECT_EQ(one.telemetry->chrome_trace_json, s.telemetry->chrome_trace_json)
        << shards << " shards";
    EXPECT_EQ(telemetry::series_csv(*one.telemetry),
              telemetry::series_csv(*s.telemetry))
        << shards << " shards";
    EXPECT_EQ(telemetry::decisions_csv(*one.telemetry),
              telemetry::decisions_csv(*s.telemetry))
        << shards << " shards";
    EXPECT_EQ(telemetry::faults_csv(*one.telemetry),
              telemetry::faults_csv(*s.telemetry))
        << shards << " shards";
    EXPECT_EQ(one.timeline, s.timeline) << shards << " shards";
    ASSERT_TRUE(s.fault_report.has_value()) << shards << " shards";
    EXPECT_EQ(one.fault_report->summary(), s.fault_report->summary())
        << shards << " shards";
    ASSERT_TRUE(s.profiler.has_value()) << shards << " shards";
    EXPECT_EQ(one.profiler->attribution.scoped_j, s.profiler->attribution.scoped_j)
        << shards << " shards";
    EXPECT_EQ(one.profiler->slack.makespan_s, s.profiler->slack.makespan_s)
        << shards << " shards";
    EXPECT_EQ(one.profiler->slack.rank_elastic_s, s.profiler->slack.rank_elastic_s)
        << shards << " shards";
    // Per-shard provenance views exist only on the sharded run, and the
    // per-shard Prometheus view is the only place the shard label appears.
    EXPECT_EQ(static_cast<int>(s.telemetry->shard_metrics.size()), shards);
    EXPECT_TRUE(one.telemetry->shard_metrics.empty());
    const auto per_shard = telemetry::to_prometheus_sharded(*s.telemetry);
    EXPECT_NE(per_shard.find("shard=\"0\""), std::string::npos);
    EXPECT_EQ(telemetry::to_prometheus(one.telemetry->metrics).find("shard=\""),
              std::string::npos);
  }
}

TEST(ShardedObservability, CrashInAnUpperShardMatchesTheSingleEngineFaultReport) {
  const auto app = make_comp_only(8, 20);
  auto run_at = [&](int shards) {
    core::RunConfig cfg;
    cfg.shards = shards;
    cfg.static_mhz = 600;
    pin_transition_latency(cfg);
    // Crash node 5 — shard 2's second node under contiguous(8, 4) — with
    // coordinated checkpoint/restart armed.
    cfg.faults.events.push_back(fault::node_crash(2.3, 5, /*boot_delay_s=*/5.0));
    cfg.faults.resilience.checkpoint_interval_s = 1.7;
    cfg.faults.resilience.checkpoint_cost_s = 0.2;
    return core::run_workload(app, cfg);
  };
  const auto one = run_at(1);
  const auto four = run_at(4);
  ASSERT_TRUE(one.fault_report.has_value());
  ASSERT_TRUE(four.fault_report.has_value());
  EXPECT_FALSE(four.failed) << four.failure;
  EXPECT_EQ(one.fault_report->node_reboots, 1);
  EXPECT_EQ(one.fault_report->summary(), four.fault_report->summary());
}

// --- pinned outputs ------------------------------------------------------------

// The tests above compare one path with another; these pin absolute outputs
// (bit patterns, digest roots, export hashes) so a drift that moves the
// 1-shard and N-shard paths together is still caught.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "0x%016llxULL", static_cast<unsigned long long>(v));
  return std::string(b);
}

std::string hex(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

struct Pinned {
  std::uint64_t delay_s, energy_j, energy_acpi_j, energy_baytech_j;
  std::uint64_t digest_root;
  std::int64_t dvs_transitions, messages;
  std::uint64_t prometheus, chrome_trace, fault_report;
};

// FT with every layer on: CPUSPEED daemon, ACPI/Baytech meters, a fault plan
// with checkpoint/restart, daemon watchdog and a scripted daemon wedge,
// telemetry with the sampler, profiling, and digests + flight recorder.
void expect_pinned(int shards, const Pinned& want) {
  core::RunConfig cfg;
  cfg.shards = shards;
  cfg.daemon = core::CpuspeedParams::v1_2_1();
  cfg.use_meters = true;
  cfg.faults.events.push_back(fault::daemon_wedge(0.5, 5));
  cfg.faults.resilience.checkpoint_interval_s = 0.7;
  cfg.faults.resilience.checkpoint_cost_s = 0.05;
  cfg.faults.resilience.watchdog = true;
  // Detect the wedge after 4 s, so the restart lands inside the ~6.3 s run.
  cfg.faults.resilience.watchdog_params.missed_checks_before_restart = 2;
  cfg.telemetry.enabled = true;
  cfg.profile = true;
  cfg.determinism.digest = true;
  cfg.determinism.flight_recorder = true;
  const auto r = core::run_workload(apps::make_ft(kScale), cfg);
  ASSERT_FALSE(r.failed) << r.failure;
  ASSERT_TRUE(r.telemetry.has_value());
  ASSERT_TRUE(r.fault_report.has_value());
  ASSERT_TRUE(r.determinism.has_value());
  std::string fault_text = r.fault_report->summary();
  for (const auto& f : r.fault_report->flight_recordings) fault_text += f;
  const Pinned got = {
      std::bit_cast<std::uint64_t>(r.delay_s),
      std::bit_cast<std::uint64_t>(r.energy_j),
      std::bit_cast<std::uint64_t>(r.energy_acpi_j),
      std::bit_cast<std::uint64_t>(r.energy_baytech_j),
      r.determinism->digest.root(),
      r.dvs_transitions,
      r.messages,
      fnv1a(telemetry::to_prometheus(r.telemetry->metrics)),
      fnv1a(r.telemetry->chrome_trace_json),
      fnv1a(fault_text)};
  EXPECT_EQ(hex(got.delay_s), hex(want.delay_s)) << "delay_s = " << r.delay_s;
  EXPECT_EQ(hex(got.energy_j), hex(want.energy_j)) << "energy_j = " << r.energy_j;
  EXPECT_EQ(hex(got.energy_acpi_j), hex(want.energy_acpi_j))
      << "energy_acpi_j = " << r.energy_acpi_j;
  EXPECT_EQ(hex(got.energy_baytech_j), hex(want.energy_baytech_j))
      << "energy_baytech_j = " << r.energy_baytech_j;
  EXPECT_EQ(hex(got.digest_root), hex(want.digest_root));
  EXPECT_EQ(got.dvs_transitions, want.dvs_transitions);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(hex(got.prometheus), hex(want.prometheus));
  EXPECT_EQ(hex(got.chrome_trace), hex(want.chrome_trace));
  EXPECT_EQ(hex(got.fault_report), hex(want.fault_report));
}

TEST(PinnedOutputs, EveryLayerOnOneShard) {
  expect_pinned(1, {0x40192926802d9e05ULL, 0x4095d82d8bd79ac0ULL,
                     0x4071c66666666667ULL, 0x4089355204402644ULL,
                     0x15cb57c4f617ddfeULL,
                     9, 126,
                     0x0520080866ab2843ULL, 0xa11e526af4685274ULL,
                     0x1fe19a9110bb292cULL});
}

TEST(PinnedOutputs, EveryLayerOnTwoShards) {
  expect_pinned(2, {0x40192976b68d11c4ULL, 0x409543d562411860ULL,
                     0x408aa9999999999aULL, 0x4088b5935542fc10ULL,
                     0x11ed2ac724202377ULL,
                     11, 126,
                     0xae0aa55d65411b07ULL, 0x1bf84e2242a633d4ULL,
                     0x1fe19a9110bb292cULL});
}

// The phase-predictor policy with its fault hooks driven: a scripted wedge
// of node 5's daemon, which the watchdog detects through the daemon's poll
// counter and restarts.  Pins the absolute outputs on one shard.
TEST(PinnedOutputs, PredictorWithWatchdogOneShard) {
  core::RunConfig cfg;
  cfg.predictor = core::PhasePredictorParams{};
  cfg.faults.events.push_back(fault::daemon_wedge(0.5, 5));
  cfg.faults.resilience.watchdog = true;
  cfg.determinism.digest = true;
  const auto r = core::run_workload(apps::make_ft(kScale), cfg);
  ASSERT_FALSE(r.failed) << r.failure;
  ASSERT_TRUE(r.fault_report.has_value());
  ASSERT_TRUE(r.determinism.has_value());
  EXPECT_GE(r.fault_report->daemon_restarts, 1);
  EXPECT_EQ(hex(r.delay_s), "0x40196939ab2da6e9ULL") << r.delay_s;
  EXPECT_EQ(hex(r.energy_j), "0x4092ed9f1d65ced0ULL") << r.energy_j;
  EXPECT_EQ(hex(r.determinism->digest.root()), "0xf080d49ff0f8572bULL");
  EXPECT_EQ(r.dvs_transitions, 22);
}

// Every run stops dispatching at its completion instant, on one engine as
// on shards: after the last rank finishes only the meters' grace run to
// t_end + 61 s remains, so each engine completes at most the Baytech
// windows of the 300 s discharge, the run and the grace.  Ending the run
// at completion must not move the measurements: the 1-shard constants
// were recorded with the batch tail still running.
double baytech_windows(const std::vector<telemetry::MetricSample>& metrics) {
  for (const auto& m : metrics) {
    if (m.name == "baytech_windows_total") return m.value;
  }
  ADD_FAILURE() << "no baytech_windows_total";
  return 0;
}

TEST(ShardedRunner, MeteredRunsEndAtCompletionOnAnyShardCount) {
  for (int shards : {1, 2}) {
    core::RunConfig cfg;
    cfg.shards = shards;
    cfg.use_meters = true;
    cfg.telemetry.enabled = true;
    const auto r = core::run_workload(apps::make_ft(kScale), cfg);
    ASSERT_FALSE(r.failed) << r.failure;
    ASSERT_TRUE(r.telemetry.has_value());
    const double bound = std::ceil((300 + r.delay_s + 61) / 60);
    if (shards == 1) {
      EXPECT_LE(baytech_windows(r.telemetry->metrics), bound);
      EXPECT_EQ(hex(r.delay_s), "0x40186b3f19231a3fULL") << r.delay_s;
      EXPECT_EQ(hex(r.energy_j), "0x40961326c31df800ULL") << r.energy_j;
      EXPECT_EQ(hex(r.energy_acpi_j), "0x4072000000000000ULL") << r.energy_acpi_j;
      EXPECT_EQ(hex(r.energy_baytech_j), "0x4089da78bbaf5234ULL")
          << r.energy_baytech_j;
    } else {
      ASSERT_EQ(r.telemetry->shard_metrics.size(), 2u);
      for (const auto& part : r.telemetry->shard_metrics) {
        EXPECT_LE(baytech_windows(part), bound);
      }
    }
  }
}

sim::Process return_at_launch(apps::AppContext&, int) { co_return; }

// A run whose ranks all return at launch lasts no time at all; its mean
// utilization is 0, not 0/0.
TEST(ShardedRunner, ZeroDelayRunReportsZeroUtilization) {
  for (int ranks : {1, 4}) {
    for (int shards : {1, 2}) {
      apps::Workload w;
      w.name = "empty";
      w.ranks = ranks;
      w.make_rank = return_at_launch;
      core::RunConfig cfg;
      cfg.shards = shards;
      const auto r = core::run_workload(w, cfg);
      ASSERT_FALSE(r.failed) << r.failure;
      EXPECT_EQ(r.delay_s, 0) << ranks << " ranks, " << shards << " shards";
      EXPECT_EQ(r.mean_utilization, 0) << ranks << " ranks, " << shards << " shards";
    }
  }
}

// A watchdog restart still pending when the last rank finishes is dropped
// when the watchdog stops at completion, on any shard count: it never
// restarts the stopped daemon or records a recovery after the report is
// assembled.
TEST(ShardedRunner, WatchdogRestartPendingAtCompletionIsHarmless) {
  for (int shards : {1, 2}) {
    core::RunConfig cfg;
    cfg.shards = shards;
    cfg.daemon = core::CpuspeedParams::v1_2_1();
    cfg.use_meters = true;
    cfg.faults.events.push_back(fault::daemon_wedge(0.5, 5));
    cfg.faults.resilience.watchdog = true;  // detects at 6.0 s, restarts at 6.5 s
    const auto r = core::run_workload(apps::make_ft(kScale), cfg);
    EXPECT_FALSE(r.failed) << r.failure;
    EXPECT_LT(r.delay_s, 6.5);
    ASSERT_TRUE(r.fault_report.has_value());
    EXPECT_EQ(r.fault_report->detections, 1) << shards << " shards";
    EXPECT_EQ(r.fault_report->daemon_restarts, 1) << shards << " shards";
    EXPECT_EQ(r.fault_report->recoveries, 0) << shards << " shards";
  }
}

TEST(ShardedRunner, CampaignFingerprintIsReproducibleWithShardsInTheBase) {
  core::RunConfig base;
  base.shards = 2;
  campaign::ExperimentSpec spec;
  spec.base(base)
      .workload(apps::make_ft(kScale))
      .axis(campaign::Axis::static_mhz({600, 1400}))
      .trials(2)
      .collect_digests();
  const auto a = campaign::CampaignRunner(campaign::CampaignOptions{}).run(spec);
  const auto b = campaign::CampaignRunner(campaign::CampaignOptions{}).run(spec);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i].has_digest);
    EXPECT_EQ(a.cells[i].digest_root, b.cells[i].digest_root) << "cell " << i;
  }
}

}  // namespace
}  // namespace pcd
