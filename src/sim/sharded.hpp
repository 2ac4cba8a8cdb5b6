// Sharded parallel event engine: conservative-lookahead windows over N
// per-shard Engines (DESIGN.md §3.14).
//
// The cluster is partitioned into shards, each owning one single-threaded
// Engine plus every model object (nodes, network, daemons, rank processes)
// that lives on it.  Shards advance in lock-step *windows*: with L the
// lookahead (derived from Network::min_latency() — no cross-shard message
// posted at time t can demand delivery before t + L), the coordinator
// computes
//
//   E = min over shards of next-event-time + L - 1
//
// and every shard runs its own events with t <= E in parallel.  Any event
// executing inside the window sits at t >= min-next, so everything it
// posts across a shard boundary is timestamped >= min-next + L = E + 1 —
// strictly beyond the window.  Cross-shard messages therefore never need
// to interrupt a running window: they accumulate in per-source outboxes
// (each shard appends only to its own — no locks on the hot path) and are
// drained at the barrier, sorted by (time, source shard, posting order),
// and injected into the destination engines before the next window starts.
// This is the classic synchronous/barrier variant of conservative PDES
// (CMB without null messages); the window is adaptive — derived from the
// global minimum next event each round — so idle stretches are crossed in
// one hop instead of L-sized steps.
//
// Determinism: each shard's engine is single-threaded and deterministic;
// the only cross-thread interaction is the barrier injection, whose order
// is fixed by the (time, shard, order) sort.  Hence a sharded run is a
// pure function of (inputs, shard count) — bit-identical across
// repetitions and across worker placement/OS scheduling — while different
// shard counts are different (each deterministic) interleavings.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pcd::sim {

struct ShardedEngineOptions {
  /// Run windows on persistent worker threads (one per shard).  Off runs
  /// every shard on the calling thread — bit-identical results (useful for
  /// debugging and for sanitizer runs that want single-threaded repros).
  bool parallel = true;
};

class ShardedEngine {
 public:
  /// A cross-shard message's action, held in an outbox until the barrier.
  using Callback = std::function<void()>;

  static constexpr SimTime kNoLimit = std::numeric_limits<SimTime>::max();

  /// `lookahead` must be >= 1 ns (use Network::min_latency(); the Network
  /// constructor already rejects non-positive latency).
  ShardedEngine(int shards, SimDuration lookahead,
                ShardedEngineOptions options = {});
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  int shards() const { return static_cast<int>(engines_.size()); }
  SimDuration lookahead() const { return lookahead_; }
  Engine& shard(int s) { return *engines_[static_cast<std::size_t>(s)]; }

  /// The barrier time every engine currently rests at (the end of the last
  /// completed window).
  SimTime horizon() const { return horizon_; }

  /// Posts `cb` into shard `to` at absolute time `t`.  Must be called from
  /// shard `from` — either by an event executing inside a window (the
  /// cross-shard message path) or from the driver thread between runs
  /// (seeding).  Enforces the conservative bound t >= shard(from).now() +
  /// lookahead(); violations throw std::logic_error, because a short
  /// message is a protocol bug that would silently break determinism.
  /// `site` must have static storage duration (provenance label, as for
  /// Engine::schedule_at).
  void post(int from, int to, SimTime t, Callback cb,
            const char* site = "shard.post");

  struct RunStats {
    std::uint64_t events = 0;   // dispatched across all shards this run
    std::uint64_t windows = 0;  // lookahead windows executed
    std::uint64_t posts = 0;    // cross-shard messages injected
    SimTime horizon = 0;        // barrier time at exit
  };

  /// Runs windows until every shard is idle with no cross-shard message in
  /// flight, `until` is passed, or `on_barrier` returns false.  on_barrier
  /// runs on the calling thread between windows — every engine parked at
  /// horizon(), no worker running — so it may freely inspect shard state,
  /// cancel events (stop daemons), or decide termination; it is the
  /// sharded runner's control point for completion/cancel/deadline checks.
  /// Rethrows the first (lowest shard index) exception that escaped a
  /// shard's window.
  RunStats run(SimTime until = kNoLimit,
               const std::function<bool(SimTime)>& on_barrier = {});

 private:
  struct Pending {
    SimTime t;
    std::uint64_t order;  // per-source posting sequence (tie-break)
    int to;
    const char* site;
    Callback cb;
  };
  struct Outbox {
    std::vector<Pending> msgs;
    std::uint64_t next_order = 0;
  };

  void inject_outboxes(RunStats& stats);
  void advance_all(SimTime target);
  void start_workers();
  void worker_main(int s);

  SimDuration lookahead_;
  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Outbox> outboxes_;  // indexed by source shard
  std::vector<Pending> inject_scratch_;
  SimTime horizon_ = 0;

  // Worker-pool state (created lazily on the first parallel window).  The
  // mutex/condvar pair orders every window hand-off, which is also what
  // publishes each shard's engine + outbox writes to the coordinator.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  SimTime target_ = 0;
  int running_workers_ = 0;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> worker_errors_;
};

}  // namespace pcd::sim
