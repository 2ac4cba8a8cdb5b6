// google-benchmark microbenchmarks for the simulator substrate itself:
// event-queue throughput, coroutine process overhead, MPI message cost,
// and end-to-end workload simulation rate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

using namespace pcd;

static void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    int count = 0;
    for (int i = 0; i < n; ++i) {
      e.schedule_at(i, [&count] { ++count; });
    }
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(65536);

static void BM_EngineScheduleRunDigest(benchmark::State& state) {
  // Same hot loop with the determinism digest collecting: one rolling-hash
  // fold per dispatch (the cheap tier).  CI gates the overhead vs
  // BM_EngineScheduleRun at 3% (tools/check_bench_regression.py).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    sim::DigestStream digest;
    sim::Engine::DeterminismHooks hooks;
    hooks.event_digest = &digest;
    e.set_determinism(hooks);
    int count = 0;
    for (int i = 0; i < n; ++i) {
      e.schedule_at(i, [&count] { ++count; });
    }
    e.run();
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(digest.hash);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRunDigest)->Arg(1024)->Arg(65536);

static void BM_EnginePeriodicTimers(benchmark::State& state) {
  // Steady-state cost of pooled periodic timers (cpuspeed daemons, samplers,
  // battery polls): n wheel-parked timers re-arming in place, no heap churn.
  const int n = static_cast<int>(state.range(0));
  sim::Engine e;
  std::int64_t fires = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) {
    ids.push_back(e.schedule_every(sim::from_millis(1.0 + i % 7), [&fires] { ++fires; }));
  }
  for (auto _ : state) {
    const std::int64_t before = fires;
    e.run_until(e.now() + sim::from_millis(64.0));
    benchmark::DoNotOptimize(fires - before);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  for (auto id : ids) e.cancel(id);
}
BENCHMARK(BM_EnginePeriodicTimers)->Arg(16)->Arg(256);

static void BM_EngineScheduleCancel(benchmark::State& state) {
  // Schedule + O(1) cancel churn (MPI timeout guards armed and disarmed per
  // message): slots recycle through the free list, dead entries are skipped
  // lazily, and nothing allocates in steady state.
  const int n = static_cast<int>(state.range(0));
  sim::Engine e;
  std::vector<sim::EventId> ids;
  ids.reserve(n);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < n; ++i) {
      ids.push_back(e.schedule_in(sim::from_millis(5.0) + i, [] {}));
    }
    for (auto id : ids) benchmark::DoNotOptimize(e.cancel(id));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleCancel)->Arg(1024);

static void BM_CoroutineDelayChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    auto proc = [](int hops) -> sim::Process {
      for (int i = 0; i < hops; ++i) co_await sim::delay(1);
    };
    sim::spawn(e, proc(n));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoroutineDelayChain)->Arg(1024)->Arg(16384);

static void BM_MpiPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    machine::ClusterConfig cc;
    cc.nodes = 2;
    machine::Cluster cluster(e, cc);
    mpi::Comm comm(cluster, {0, 1});
    auto a = [&]() -> sim::Process {
      for (int i = 0; i < 100; ++i) {
        co_await comm.send(0, 1, 1, 1024);
        co_await comm.recv(0, 1, 2);
      }
    };
    auto b = [&]() -> sim::Process {
      for (int i = 0; i < 100; ++i) {
        co_await comm.recv(1, 0, 1);
        co_await comm.send(1, 0, 2, 1024);
      }
    };
    sim::spawn(e, a());
    sim::spawn(e, b());
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_MpiPingPong);

static void BM_MpiPairExchange(benchmark::State& state) {
  // The CG shape at full width: every rank swaps 64 KB with a hypercube
  // partner per round (isend/irecv/waitall).  With thousands of ranks the
  // per-message state no longer stays in cache — the cost the 2-rank
  // ping-pong above cannot show.
  const int ranks = static_cast<int>(state.range(0));
  constexpr int kRounds = 4;
  std::vector<int> ids(static_cast<std::size_t>(ranks));
  std::iota(ids.begin(), ids.end(), 0);
  for (auto _ : state) {
    sim::Engine e;
    machine::ClusterConfig cc;
    cc.nodes = ranks;
    machine::Cluster cluster(e, cc);
    mpi::Comm comm(cluster, ids);
    auto rank = [&comm](int r) -> sim::Process {
      for (int k = 0; k < kRounds; ++k) {
        const int peer = r ^ (1 << k);
        std::vector<mpi::Comm::Request> reqs;
        reqs.push_back(comm.irecv(r, peer, k));
        reqs.push_back(comm.isend(r, peer, k, 64 * 1024));
        co_await comm.waitall(r, std::move(reqs));
      }
    };
    for (int r = 0; r < ranks; ++r) sim::spawn(e, rank(r));
    e.run();
    benchmark::DoNotOptimize(comm.stats().messages);
  }
  state.SetItemsProcessed(state.iterations() * ranks * kRounds);  // messages
}
BENCHMARK(BM_MpiPairExchange)->Arg(4096)->Unit(benchmark::kMillisecond);

static void BM_NetFanIn(benchmark::State& state) {
  // The all-to-all hot spot: 64 senders post 64 KB each into one receiver
  // at the same instant, so 63 of them wait at its ingress port and are
  // handed it one by one.  Callback deliveries: no coroutine per message.
  constexpr int kSenders = 64;
  sim::Engine e;
  net::Network network(e, kSenders + 1, net::NetworkParams{}, sim::Rng(1));
  std::int64_t delivered = 0;
  const sim::Continuation count{[](void* n) { ++*static_cast<std::int64_t*>(n); }, &delivered};
  for (auto _ : state) {
    for (int s = 1; s <= kSenders; ++s) network.start_transfer(s, 0, 64 * 1024, 1.0, count);
    e.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kSenders);  // messages
}
BENCHMARK(BM_NetFanIn);

static void BM_FullWorkloadRun(benchmark::State& state) {
  for (auto _ : state) {
    auto cg = apps::make_cg(0.05);
    core::RunConfig cfg;
    const auto r = core::run_workload(cg, cfg);
    benchmark::DoNotOptimize(r.energy_j);
  }
}
BENCHMARK(BM_FullWorkloadRun)->Unit(benchmark::kMillisecond);

#ifndef PCD_BUILD_TYPE
#define PCD_BUILD_TYPE "unknown"
#endif

// Expanded BENCHMARK_MAIN() plus a context entry recording how *this* binary
// was compiled.  The library's own "library_build_type" reflects the system
// google-benchmark package, not our flags; tools/check_bench_regression.py
// reads "build_type" to refuse comparisons against unoptimized builds.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", PCD_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
