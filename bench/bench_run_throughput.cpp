// Whole-run events/s gate for the simulator hot path (DESIGN.md §3.15).
//
// Unlike bench_micro_engine (substrate microbenchmarks) this measures the
// rate the *full stack* dispatches events on a production-shaped run: a
// 4096-rank CG-style workload (sliced compute + pairwise 64 KB exchanges
// half the ring away) under the CPUSPEED daemon, through core::run_workload
// — so CPU accounting, the power arena, the MPI rendezvous protocol, and
// the network model are all on the measured path.  This is the benchmark
// that gates the arena/pooling work: per-node scalar integration, malloc
// round-trips for coroutine frames / MPI message state, and per-read power
// recomputes all show up here and nowhere in the microbenches.
//
// Emits google-benchmark-shaped JSON (context + one entry per repetition
// plus a median aggregate) consumed by tools/check_bench_regression.py.
// The context records this binary's own optimization level ("build_type")
// so the checker can refuse debug-build comparisons.
//
// Usage:
//   bench_run_throughput [--nodes N] [--cycles C] [--reps R] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/workload.hpp"
#include "core/runner.hpp"
#include "tools/parse_number.hpp"
#include "mpi/comm.hpp"
#include "sim/process.hpp"

#ifndef PCD_BUILD_TYPE
#define PCD_BUILD_TYPE "unknown"
#endif

using namespace pcd;

namespace {

// CG-shaped rank at arbitrary scale: sliced compute, then two pairwise
// 64 KB exchanges with the rank half the ring away (rendezvous-sized), the
// lower half carrying an extra memory-bound phase so the halves drift and
// the waits are real.
apps::Workload make_cg_shape(int ranks, int cycles) {
  apps::Workload w;
  w.name = "CGSHAPE." + std::to_string(ranks);
  w.ranks = ranks;
  w.iterations = cycles;
  w.make_rank = [ranks, cycles](apps::AppContext& ctx, int rank) -> sim::Process {
    auto& comm = *ctx.comm;
    const int half = ranks / 2;
    const int partner = rank < half ? rank + half : rank - half;
    const bool lower = rank < half;
    for (int it = 0; it < cycles; ++it) {
      co_await apps::compute_phase(ctx, rank, 0.0035, 0.006);
      for (int tag = 7; tag <= 8; ++tag) {
        if (tag == 8 && lower) co_await apps::compute_phase(ctx, rank, 0.0, 0.013);
        auto rr = comm.irecv(rank, partner, tag);
        auto sr = comm.isend(rank, partner, tag, 64 * 1024);
        std::vector<mpi::Comm::Request> reqs;
        reqs.push_back(std::move(sr));
        reqs.push_back(std::move(rr));
        co_await comm.waitall(rank, std::move(reqs));
      }
    }
  };
  return w;
}

struct Measurement {
  std::int64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
  double delay_s = 0;
  double energy_j = 0;
};

void append_entry(std::string& out, const char* name, const char* run_type,
                  const char* aggregate_name, const Measurement& m, bool last) {
  char buf[640];
  std::string agg;
  if (aggregate_name != nullptr) {
    agg = std::string("      \"aggregate_name\": \"") + aggregate_name + "\",\n";
  }
  std::snprintf(buf, sizeof buf,
                "    {\n"
                "      \"name\": \"%s\",\n"
                "      \"run_name\": \"BM_RunThroughput_CG\",\n"
                "      \"run_type\": \"%s\",\n"
                "%s"
                "      \"iterations\": 1,\n"
                "      \"real_time\": %.6f,\n"
                "      \"cpu_time\": %.6f,\n"
                "      \"time_unit\": \"s\",\n"
                "      \"items_per_second\": %.3f,\n"
                "      \"events\": %lld,\n"
                "      \"sim_delay_s\": %.6f,\n"
                "      \"sim_energy_j\": %.3f\n"
                "    }%s\n",
                name, run_type, agg.c_str(), m.wall_s, m.wall_s, m.events_per_s,
                static_cast<long long>(m.events), m.delay_s, m.energy_j,
                last ? "" : ",");
  out += buf;
}


void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_run_throughput [--nodes N] [--cycles N] [--reps N] [--out FILE]\n"
               "  --nodes N   ranks of the CG-shaped workload (default 4096)\n"
               "  --cycles N  compute/exchange cycles per rank (default 64)\n"
               "  --reps N    repetitions (default 3)\n"
               "  --out FILE  benchmark JSON to write (default BENCH_run.json)\n");
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kTool = "bench_run_throughput";
  int nodes = 4096;
  int cycles = 64;
  int reps = 3;
  std::string out_path = "BENCH_run.json";
  bool ok = true;
  for (int i = 1; ok && i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--help") == 0 || std::strcmp(flag, "-h") == 0) {
      usage(stdout);
      return 0;
    }
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (std::strcmp(flag, "--nodes") != 0 && std::strcmp(flag, "--cycles") != 0 &&
        std::strcmp(flag, "--reps") != 0 && std::strcmp(flag, "--out") != 0) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", kTool, flag);
      ok = false;
    } else if (v == nullptr) {
      std::fprintf(stderr, "%s: %s needs a value\n", kTool, flag);
      ok = false;
    } else if (std::strcmp(flag, "--out") == 0) {
      out_path = v;
    } else {
      int* out = std::strcmp(flag, "--nodes") == 0    ? &nodes
                 : std::strcmp(flag, "--cycles") == 0 ? &cycles
                                                      : &reps;
      ok = tools::parse_number(kTool, flag, v, out);
    }
  }
  if (ok && (nodes < 2 || cycles < 1 || reps < 1)) {
    std::fprintf(stderr, "%s: --nodes must be at least 2, --cycles and --reps at least 1\n",
                 kTool);
    ok = false;
  }
  if (!ok) {
    usage(stderr);
    return 2;
  }

  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams{};  // the paper's daemon is on the hot path
  const apps::Workload w = make_cg_shape(nodes, cycles);

  std::printf("run throughput: %d nodes x %d cycles, %d repetition(s), %s build\n",
              nodes, cycles, reps, PCD_BUILD_TYPE);

  std::vector<Measurement> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::RunResult res = core::run_workload(w, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    Measurement m;
    m.wall_s = std::chrono::duration<double>(t1 - t0).count();
    m.events = res.events;
    m.events_per_s = m.wall_s > 0 ? static_cast<double>(m.events) / m.wall_s : 0;
    m.delay_s = res.delay_s;
    m.energy_j = res.energy_j;
    std::printf("  rep %d: %lld events in %.3f s wall -> %.0f events/s "
                "(delay %.3f s, energy %.1f J)\n",
                r + 1, static_cast<long long>(m.events), m.wall_s,
                m.events_per_s, m.delay_s, m.energy_j);
    if (m.events == 0) {
      std::fprintf(stderr, "FAIL: run dispatched no events\n");
      return 1;
    }
    ms.push_back(m);
  }

  // Median by events/s: the gate metric.  Simulated results (events, delay,
  // energy) are identical across reps — the run is deterministic; only wall
  // time varies.
  std::vector<Measurement> by_rate = ms;
  std::sort(by_rate.begin(), by_rate.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.events_per_s < b.events_per_s;
            });
  const Measurement median = by_rate[by_rate.size() / 2];
  std::printf("median: %.0f events/s\n", median.events_per_s);

  std::string json = "{\n  \"context\": {\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    \"executable\": \"bench_run_throughput\",\n"
                  "    \"build_type\": \"%s\",\n"
                  "    \"num_cpus\": %u,\n"
                  "    \"nodes\": %d,\n"
                  "    \"cycles\": %d\n  },\n  \"benchmarks\": [\n",
                  PCD_BUILD_TYPE, std::thread::hardware_concurrency(), nodes,
                  cycles);
    json += buf;
  }
  for (std::size_t r = 0; r < ms.size(); ++r) {
    const std::string name =
        "BM_RunThroughput_CG/repetition:" + std::to_string(r);
    append_entry(json, name.c_str(), "iteration", nullptr, ms[r],
                 /*last=*/false);
  }
  append_entry(json, "BM_RunThroughput_CG_median", "aggregate", "median",
               median, /*last=*/true);
  json += "  ]\n}\n";

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
