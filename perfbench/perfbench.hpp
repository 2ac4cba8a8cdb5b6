// Shared pieces of the repository benchmark (see run.py for the contract):
// clocks, the in-memory span recorder, the CG-shaped workload, and the
// isolated per-layer probes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "sim/time.hpp"

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + sys) of the process, or of the calling thread.
inline double cpu_now(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v);

/// Spans kept in memory and written once at exit (traced mode only).
struct Span {
  std::string name;
  double start = 0, end = 0;  // steady-clock seconds
  int parent = -1;            // index into the span list, -1 = root
  int run = 0;                // run id: the rep (or probe) the span belongs to
};

class SpanLog {
 public:
  int open(std::string name, int parent, int run) {
    spans_.push_back({std::move(name), wall_now(), 0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = wall_now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Aggregate timer around the synchronous isend/irecv calls of the CG rank
/// body: one count and one sum per run instead of millions of span records.
/// Each rank adds its totals once, when its body ends (possibly on a shard
/// worker thread).
struct PostTimer {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};

  double ns_per_call() const {
    const std::int64_t n = calls.load();
    return n > 0 ? static_cast<double>(ns.load()) / static_cast<double>(n) : 0;
  }
};

/// CG-shaped rank body at any scale: sliced compute, then two pairwise
/// 64 KB exchanges with the rank half the ring away; the lower half carries
/// an extra memory-bound phase so the halves drift and the waits are real.
/// With `posts` set, every isend/irecv call is timed into it.
pcd::apps::Workload make_cg_shape(int ranks, int cycles, PostTimer* posts = nullptr);

/// One captured event reduced to what the replay needs.
struct SliceEvent {
  std::uint64_t seq = 0, parent = 0;
  pcd::sim::SimTime t = 0;
  std::string site;
};

/// Isolated per-layer costs, each on a bare substrate (no workload).  Each
/// probe also reports the engine events it dispatched per operation, so
/// the coverage estimate can subtract dispatch it already counts once.
struct ProbeResults {
  double cpu_segment_ns = 0, cpu_segment_events = 0;
  double accrue_ns_per_lane_big = 0, accrue_ns_per_lane_small = 0;
  double net_transfer_ns = 0, net_transfer_events = 0;
  double mpi_p2p_ns = 0, mpi_p2p_events = 0;
  double mpi_p2p_segments = 0, mpi_p2p_transfers = 0;  // per exchange
  double mpi_alltoall_ns = 0;
  double cluster_build_ms_big = 0, cluster_build_ms_small = 0;
  double shard_barrier_us = 0;
};

/// `big_nodes` is the CG workload's rank count; `iters` scales every probe
/// loop (the self-check uses a small value).  `shards` is the sharded
/// workload's shard count.
ProbeResults run_probes(int big_nodes, int iters, int shards, SpanLog& spans, int parent);

/// Replays a captured slice through a bare sim::Engine with no-op work:
/// events whose parent lies outside the slice are scheduled up front, the
/// rest are scheduled by their parent's callback at their captured time,
/// so queue depth and ordering follow the original run.  Returns ns/event
/// (median over `reps` replays).
double replay_ns_per_event(const std::vector<SliceEvent>& slice, int reps);

}  // namespace perfbench
