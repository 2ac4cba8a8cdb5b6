// Shard-scaling gate for the sharded parallel event engine (DESIGN.md
// §3.14): measures aggregate events/s and nodes-simulated against shard
// count on a synthetic power-aware-cluster workload, and demonstrates a
// >= 100k-node run completing.  Emits google-benchmark-style JSON (one
// entry per shard count plus the huge run) consumed by
// tools/check_bench_regression.py in the shard-smoke CI job.
//
// The synthetic workload models the event mix a sharded DVS campaign
// produces: every node runs a periodic daemon-style tick (utilization
// poll / power integration), and every 8th tick sends a ring message to a
// node on the next shard through the conservative cross-shard post path —
// so the measurement covers both the per-shard hot loop and the barrier
// protocol, not an embarrassingly parallel best case.
//
// A second section measures the *observability overhead* of the runner:
// the same compute-bound workload is run through core::run_workload on one
// engine with telemetry off and on (registry + decision log + transition
// stream + sampler + exports), emitting BM_ShardObsOff/shards:1 and
// BM_ShardObsOn/shards:1 entries whose items_per_second is useful-work
// throughput (rank-iterations per CPU second).  Only one shard: a sharded
// run carries no observers (RunConfig::validate()).  CI gates obs-on at
// >= 95% of obs-off from the same file via check_bench_regression.py
// --candidate-prefix, so machine speed cancels out of the comparison.
// Tracing/profiling is deliberately *not* part of the gated config: its
// cost is per-trace-record and therefore proportional to useful work —
// a constant-factor tax measured by bench_micro_profiler's own gate —
// whereas this gate checks that passive telemetry stays in the noise.
//
// Usage:
//   bench_shard_scaling [--nodes N] [--horizon-ms T] [--big-nodes N]
//                       [--obs-steps N] [--obs-reps N]
//                       [--out FILE] [--no-check] [--help]
//
// Every numeric flag is read whole (tools/parse_number.hpp); a bad value
// or an unknown flag prints the usage and exits 2, and --help prints it
// and exits 0 without running anything.
//
// When the host has >= 8 hardware threads, the run *asserts* >= 3x
// aggregate events/s at 8 shards over 1 shard (the acceptance criterion)
// and exits non-zero on failure; on smaller hosts the assertion is skipped
// (the engine falls back to whatever parallelism exists) unless --no-check
// already disabled it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "apps/workload.hpp"
#include "core/runner.hpp"
#include "machine/partition.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"
#include "tools/parse_number.hpp"

#ifndef PCD_BUILD_TYPE
#define PCD_BUILD_TYPE "unknown"
#endif

namespace {

constexpr pcd::sim::SimDuration kLookahead = 10 * pcd::sim::kMicrosecond;
constexpr pcd::sim::SimDuration kTickPeriod = 50 * pcd::sim::kMicrosecond;

struct NodeState {
  int shard = 0;
  std::uint64_t ticks = 0;
  std::uint64_t received = 0;
};

struct Synth {
  pcd::sim::ShardedEngine* se;
  const pcd::machine::ShardPlan* plan;
  std::vector<NodeState>* nodes;
  pcd::sim::SimTime horizon;
};

// One daemon-style node tick; reschedules itself until the horizon and
// rings a peer on the next shard every 8th firing.
void tick(Synth* c, int g) {
  NodeState& st = (*c->nodes)[static_cast<std::size_t>(g)];
  ++st.ticks;
  pcd::sim::Engine& e = c->se->shard(st.shard);
  if (st.ticks % 8 == 0 && c->plan->shards() > 1) {
    const int ps = (st.shard + 1) % c->plan->shards();
    const int pg =
        c->plan->global_of(ps, c->plan->local_of(g) % c->plan->count(ps));
    c->se->post(st.shard, ps, e.now() + c->se->lookahead(),
                [c, pg] { ++(*c->nodes)[static_cast<std::size_t>(pg)].received; },
                "bench.ring");
  }
  const pcd::sim::SimTime next = e.now() + kTickPeriod;
  if (next <= c->horizon) {
    e.schedule_at(next, [c, g] { tick(c, g); }, "bench.tick");
  }
}

struct Measurement {
  int shards = 0;
  int nodes = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
};

Measurement run_synth(int shards, int total_nodes, pcd::sim::SimTime horizon) {
  pcd::sim::ShardedEngine se(shards, kLookahead);
  const auto plan = pcd::machine::ShardPlan::contiguous(total_nodes, shards);
  std::vector<NodeState> nodes(static_cast<std::size_t>(total_nodes));
  for (int g = 0; g < total_nodes; ++g) {
    nodes[static_cast<std::size_t>(g)].shard = plan.shard_of(g);
  }
  Synth ctx{&se, &plan, &nodes, horizon};
  for (int g = 0; g < total_nodes; ++g) {
    // Stagger first firings inside one tick period so windows carry work
    // from every node instead of one synchronized burst.
    const pcd::sim::SimTime first =
        (static_cast<pcd::sim::SimTime>(g) * 7919) % kTickPeriod;
    se.shard(plan.shard_of(g)).schedule_at(first, [c = &ctx, g] { tick(c, g); },
                                           "bench.tick");
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = se.run();
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.shards = shards;
  m.nodes = total_nodes;
  m.events = stats.events;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_s = m.wall_s > 0 ? static_cast<double>(m.events) / m.wall_s : 0;
  return m;
}

// --- observability overhead section -----------------------------------
//
// A compute-bound workload through the full runner (core::run_workload),
// not the raw engine: the point is to price what the per-shard collectors
// and the deterministic merge add to a real run.  Compute-only so every
// shard count executes the identical simulation.

pcd::sim::Process obs_rank(pcd::apps::AppContext& ctx, int rank, int steps) {
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  for (int s = 0; s < steps; ++s) {
    if (ctx.tracer != nullptr) ctx.tracer->mark_iteration(rank);
    // Sub-millisecond phases keep the simulated span short relative to the
    // iteration count, so sampler ticks (proportional to simulated time)
    // amortize over the per-event work being priced.
    co_await pcd::apps::compute_phase(ctx, rank, /*onchip_s=*/0.0002,
                                      /*mem_s=*/0.0001);
  }
}

// Process CPU time: the overhead gate compares obs-on/obs-off work, and
// wall clock on a shared runner is far too noisy for a 5% bound — a
// background process stretches one side of the comparison by 10%+.  CPU
// time charges the run for the cycles it actually used (all threads), so
// the ratio survives co-tenancy; only the off/on *ratio* is gated.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// One rep: useful-work throughput (rank-iterations / CPU second) with the
// observation stack off or on.
double obs_rep(int ranks, int steps, bool obs, std::uint64_t* events_out) {
  pcd::apps::Workload app;
  app.name = "bench.obs";
  app.ranks = ranks;
  app.iterations = steps;
  app.description = "compute-only observability-overhead workload";
  app.make_rank = [steps](pcd::apps::AppContext& ctx, int rank) {
    return obs_rank(ctx, rank, steps);
  };
  pcd::core::RunConfig cfg;
  cfg.static_mhz = 600;
  if (obs) {
    cfg.telemetry.enabled = true;
    // Coarse sampling for a throughput run: the default 50 ms period is
    // sized for wall-clock-dominated workloads; at this benchmark's
    // events-per-sim-second the series would swamp the measurement.
    cfg.telemetry.sampler.period_s = 0.5;
  }
  const double c0 = cpu_seconds();
  const auto result = pcd::core::run_workload(app, cfg);
  const double used = cpu_seconds() - c0;
  *events_out = static_cast<std::uint64_t>(result.events);
  return used > 0 ? static_cast<double>(ranks) * steps / used : 0;
}

// Off and on runs alternate within each rep (the bench_micro_profiler
// interleaving rationale: slow thermal / noisy-neighbor drift hits both
// sides of the comparison instead of one block), and the reported number
// is the *best* rep: CPU-time noise — preemption, frequency dips, cold
// caches — is strictly additive, so the fastest rep is the closest
// estimate of the true cost on both sides of the 5% gate.
void run_obs_pair(int ranks, int steps, int reps, Measurement* off, Measurement* on) {
  std::vector<double> off_ips, on_ips;
  off->shards = on->shards = 1;
  off->nodes = on->nodes = ranks;
  for (int r = 0; r < reps; ++r) {
    off_ips.push_back(obs_rep(ranks, steps, false, &off->events));
    on_ips.push_back(obs_rep(ranks, steps, true, &on->events));
  }
  off->events_per_s = best(off_ips);
  on->events_per_s = best(on_ips);
  off->wall_s = off->events_per_s > 0
                    ? static_cast<double>(ranks) * steps / off->events_per_s
                    : 0;
  on->wall_s = on->events_per_s > 0
                   ? static_cast<double>(ranks) * steps / on->events_per_s
                   : 0;
}

void append_json_entry(std::string& out, const Measurement& m,
                       const std::string& name, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\n"
                "      \"name\": \"%s\",\n"
                "      \"run_name\": \"%s\",\n"
                "      \"run_type\": \"iteration\",\n"
                "      \"iterations\": 1,\n"
                "      \"real_time\": %.6f,\n"
                "      \"cpu_time\": %.6f,\n"
                "      \"time_unit\": \"s\",\n"
                "      \"items_per_second\": %.3f,\n"
                "      \"shards\": %d,\n"
                "      \"nodes\": %d,\n"
                "      \"events\": %llu\n"
                "    }%s\n",
                name.c_str(), name.c_str(), m.wall_s, m.wall_s, m.events_per_s,
                m.shards, m.nodes, static_cast<unsigned long long>(m.events),
                last ? "" : ",");
  out += buf;
}

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_shard_scaling [--nodes N] [--horizon-ms T] [--big-nodes N]\n"
               "                           [--obs-steps N] [--obs-reps N] [--out FILE]\n"
               "                           [--no-check]\n"
               "  --nodes N       nodes of the scaling runs (default 4096)\n"
               "  --horizon-ms T  simulated horizon of each run in ms (default 20)\n"
               "  --big-nodes N   nodes of the huge run (default 131072)\n"
               "  --obs-steps N   iterations of the observability runs (default 12000)\n"
               "  --obs-reps N    interleaved observability repetitions (default 9)\n"
               "  --out FILE      benchmark JSON to write (default BENCH_shard.json)\n"
               "  --no-check      skip the >= 3x at 8 shards assertion\n");
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kTool = "bench_shard_scaling";
  int nodes = 4096;
  double horizon_ms = 20.0;
  int big_nodes = 131072;
  int obs_steps = 12000;
  int obs_reps = 9;
  std::string out_path = "BENCH_shard.json";
  bool check = true;
  bool ok = true;
  for (int i = 1; ok && i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(flag, "--no-check") == 0) {
      check = false;
      continue;
    }
    int* int_out = std::strcmp(flag, "--nodes") == 0       ? &nodes
                   : std::strcmp(flag, "--big-nodes") == 0 ? &big_nodes
                   : std::strcmp(flag, "--obs-steps") == 0 ? &obs_steps
                   : std::strcmp(flag, "--obs-reps") == 0  ? &obs_reps
                                                           : nullptr;
    const bool is_horizon = std::strcmp(flag, "--horizon-ms") == 0;
    const bool is_out = std::strcmp(flag, "--out") == 0;
    if (int_out == nullptr && !is_horizon && !is_out) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, flag);
      ok = false;
      break;
    }
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) {
      std::fprintf(stderr, "%s: %s needs a value\n", kTool, flag);
      ok = false;
    } else if (is_out) {
      out_path = v;
    } else if (is_horizon) {
      ok = pcd::tools::parse_number(kTool, flag, v, &horizon_ms);
    } else {
      ok = pcd::tools::parse_number(kTool, flag, v, int_out);
    }
  }
  if (ok && (nodes < 1 || big_nodes < 1 || obs_steps < 1 || obs_reps < 1 || horizon_ms <= 0)) {
    std::fprintf(stderr, "%s: node, step and repetition counts and the horizon must be positive\n",
                 kTool);
    ok = false;
  }
  if (!ok) {
    usage(stderr);
    return 2;
  }
  const auto horizon =
      static_cast<pcd::sim::SimTime>(horizon_ms * 1e6);  // ms -> ns
  const unsigned hw = std::thread::hardware_concurrency();

  // Observability overhead: full-runner compute workload on one engine,
  // obs stack off vs on.  Runs FIRST: the synthetic scaling runs
  // (especially the 100k-node one) leave the allocator with a grown,
  // fragmented heap that measurably penalizes the allocation-heavier
  // obs-on side of the comparison.
  const int obs_ranks = 64;
  std::printf("observability overhead: %d ranks x %d iterations, "
              "best of %d interleaved reps (CPU time)\n",
              obs_ranks, obs_steps, obs_reps);
  std::printf("%14s %14s %10s\n", "off items/s", "on items/s", "overhead");
  Measurement obs_off, obs_on;
  run_obs_pair(obs_ranks, obs_steps, obs_reps, &obs_off, &obs_on);
  const double overhead = obs_off.events_per_s > 0
                              ? 1.0 - obs_on.events_per_s / obs_off.events_per_s
                              : 0.0;
  std::printf("%14.0f %14.0f %9.1f%%\n", obs_off.events_per_s, obs_on.events_per_s,
              overhead * 100.0);

  std::printf("\nshard scaling: %d nodes, %.1f ms simulated, %u hardware threads\n",
              nodes, horizon_ms, hw);
  std::printf("%8s %12s %12s %10s %8s\n", "shards", "events", "events/s",
              "wall_s", "speedup");

  std::vector<Measurement> results;
  double base_eps = 0;
  for (int shards : {1, 2, 4, 8}) {
    const auto m = run_synth(shards, nodes, horizon);
    if (shards == 1) base_eps = m.events_per_s;
    std::printf("%8d %12llu %12.0f %10.3f %7.2fx\n", m.shards,
                static_cast<unsigned long long>(m.events), m.events_per_s,
                m.wall_s, base_eps > 0 ? m.events_per_s / base_eps : 0.0);
    results.push_back(m);
  }

  // The >= 100k-node demonstration: a shorter horizon keeps the event count
  // comparable, the point is that construction + windows handle the scale.
  const auto big = run_synth(8, big_nodes, horizon / 8);
  std::printf("%d-node run: %llu events at %.0f events/s (%.3f s wall)\n",
              big.nodes, static_cast<unsigned long long>(big.events),
              big.events_per_s, big.wall_s);
  std::vector<std::string> names;
  std::string json = "{\n  \"context\": {\n";
  {
    char buf[256];
    // hardware_threads disambiguates a skipped speedup assertion when the
    // JSON is read away from the run log: < 8 threads means the scaling
    // numbers are contention-bound, not a regression.
    std::snprintf(buf, sizeof buf,
                  "    \"executable\": \"bench_shard_scaling\",\n"
                  "    \"build_type\": \"%s\",\n"
                  "    \"num_cpus\": %u,\n"
                  "    \"hardware_threads\": %u\n  },\n  \"benchmarks\": [\n",
                  PCD_BUILD_TYPE, hw, hw);
    json += buf;
  }
  for (const auto& m : results) {
    append_json_entry(json, m,
                      "BM_ShardScaling/shards:" + std::to_string(m.shards),
                      /*last=*/false);
  }
  append_json_entry(json, big,
                    "BM_ShardHugeRun/nodes:" + std::to_string(big.nodes),
                    /*last=*/false);
  append_json_entry(json, obs_off, "BM_ShardObsOff/shards:1", /*last=*/false);
  append_json_entry(json, obs_on, "BM_ShardObsOn/shards:1", /*last=*/true);
  json += "  ]\n}\n";
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (big.events == 0) {
    std::fprintf(stderr, "FAIL: %d-node run dispatched no events\n", big_nodes);
    return 1;
  }
  if (check && hw >= 8) {
    const double speedup = results.back().events_per_s / results.front().events_per_s;
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: 8-shard speedup %.2fx < 3.0x on %u hardware threads\n",
                   speedup, hw);
      return 1;
    }
    std::printf("8-shard speedup %.2fx (>= 3.0x required): ok\n", speedup);
  } else if (check) {
    std::printf("skipped: %u hw threads (>= 8 required for the 3.0x "
                "speedup assertion)\n", hw);
  }
  return 0;
}
