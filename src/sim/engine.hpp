// Deterministic discrete-event engine.
//
// The engine dispatches events in (time, sequence) order; sequence numbers
// break ties so that events scheduled for the same instant run in FIFO
// order.  All model code — CPU executors, the network, MPI processes, the
// CPUSPEED daemon — advances exclusively through this engine.
//
// Internals (DESIGN.md §3.10): event state lives in a chunked slab of
// pooled nodes addressed by generation-tagged EventIds — schedule and
// cancel never touch a hash map, and the steady state is allocation-free
// (callbacks are stored in an InlineFunction small buffer, cancelled slots
// are recycled through a free list, dead heap entries are lazily skipped
// at pop).  Node addresses are stable for the life of the engine, so a
// callback is invoked in place — it is never moved out of its node.
// One-shot ordering uses four sorted append-only run lanes (best-fit by
// horizon, capturing near-monotone streams) with a 4-ary min-heap of 24-byte
// (time, seq, slot) entries as the stray fallback; strictly periodic
// events (schedule_every) bypass all of that: they park in a hierarchical
// timer wheel and re-arm in place after every fire.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/provenance.hpp"
#include "sim/time.hpp"

namespace pcd::sim {

/// Handle to a scheduled event; can be used to cancel it before it fires.
/// A default-constructed id is never a live event (`valid()` is false and
/// `cancel` rejects it explicitly).  The generation tag makes ids
/// single-use: once the event fires or is cancelled, the slot's generation
/// advances and stale ids can no longer cancel an unrelated newer event.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  bool valid() const { return gen != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Invoked on a registered coroutine frame's handle just before the engine
/// destroys it at teardown, so external owners can drop references first.
using FrameDetachFn = void (*)(std::coroutine_handle<>);

class Engine {
 public:
  using Callback = InlineFunction<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Schedules `cb` at absolute time `t` (must be >= now()).  `site` is a
  /// scheduling-site label for determinism provenance; it must point at a
  /// string with static storage duration (the engine stores the pointer).
  EventId schedule_at(SimTime t, Callback cb, const char* site = "");

  /// Schedules `cb` at now() + dt (dt must be >= 0).
  EventId schedule_in(SimDuration dt, Callback cb, const char* site = "");

  /// Schedules `cb` to fire at now() + first_delay and then every `period`
  /// after the previous fire, until cancelled.  Each occurrence draws a
  /// fresh sequence number when the previous one completes, so a periodic
  /// event interleaves with one-shot events exactly as if the callback
  /// rescheduled itself with schedule_in as its last statement — but the
  /// steady state never touches the heap or the binary event heap.
  EventId schedule_every(SimDuration first_delay, SimDuration period, Callback cb,
                         const char* site = "");
  EventId schedule_every(SimDuration period, Callback cb, const char* site = "") {
    return schedule_every(period, period, std::move(cb), site);
  }

  /// Cancels a pending event.  Returns false for an invalid id, or if the
  /// event already ran or was already cancelled.  Cancelling a periodic
  /// event — including from inside its own callback — stops the recurrence
  /// and returns true.
  bool cancel(EventId id);

  /// Runs until no live events remain (or `max_events` have been
  /// processed).  Returns the number of events processed.  Rethrows the
  /// first exception that escaped a top-level coroutine with no joiner.
  std::size_t run(std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Runs events with time <= t, then advances now() to t.  If an event
  /// callback throws (or an orphaned coroutine exception is rethrown), the
  /// clock stays at the last dispatched event's time rather than jumping
  /// to t.
  std::size_t run_until(SimTime t);

  /// Makes the innermost active run()/run_until() return right after the
  /// event now dispatching; events not yet run stay queued for a later
  /// run.  A stopped run_until leaves the clock at that event's time.  A
  /// call made while no run is active has no effect on the next run.
  void stop() { stop_requested_ = true; }

  SimTime now() const { return now_; }
  bool empty() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::size_t events_processed() const { return processed_; }

  /// Time of the earliest live event, or no value when the engine is idle.
  /// Used by run_until and by ShardedEngine to derive the next conservative
  /// window end; also handy for drivers that interleave engines manually.
  std::optional<SimTime> next_event_time();

  /// Records an exception that escaped a detached coroutine.  The next call
  /// to run()/run_until() rethrows it.
  void post_orphan_exception(std::exception_ptr ex);

  /// Coroutine frame registry: frames register on spawn and unregister on
  /// completion (O(1) slot free, no scan); ~Engine destroys any
  /// still-suspended frames in reverse spawn order so blocked processes
  /// never leak.  `detach` (optional) is invoked on the handle just before
  /// the engine destroys the frame, so external owners can drop their
  /// references first.
  std::uint32_t register_frame(std::coroutine_handle<> h,
                               FrameDetachFn detach = nullptr);
  void unregister_frame(std::uint32_t frame_slot);

  /// Destroys all still-suspended frames now rather than in ~Engine.  Call
  /// this before tearing down model objects the frames' locals reference:
  /// a frame blocked in an MPI wait holds RAII guards over its Cpu, so on a
  /// failed/abandoned run the frames must die while the cluster is alive.
  void destroy_suspended_frames();

  // ---- determinism observability ----

  /// Hooks installed by a telemetry::DeterminismCollector.  Two cost tiers:
  /// with only `event_digest` set, dispatch folds one provenance word per
  /// event into the stream (the "always on in CI" tier the ≤3% overhead
  /// gate covers); with `per_event` also set, the observer additionally
  /// receives the full EventProvenance record after every callback (flight
  /// recorder / focused capture — a virtual call per event, debug tier).
  /// `observer->on_checkpoint` fires whenever the event digest's count
  /// crosses a multiple of (checkpoint_mask + 1), which must be a power of
  /// two.
  struct DeterminismHooks {
    DigestStream* event_digest = nullptr;
    std::uint64_t checkpoint_mask = 4095;  // checkpoint every 4096 events
    EventObserver* observer = nullptr;
    bool per_event = false;
  };
  void set_determinism(const DeterminismHooks& hooks) { det_ = hooks; }
  void clear_determinism() { det_ = DeterminismHooks{}; }

  /// Seq of the event whose callback is currently executing (0 outside any
  /// dispatch).  New events record this as their causal parent.
  std::uint64_t dispatching_seq() const { return dispatch_parent_; }

  /// Debug hook: swaps the allocation order of sequence numbers `seq` and
  /// `seq + 1` — the minimal scheduling-order perturbation, used to
  /// exercise divergence localization.  Pass 0 to disable.
  void set_seq_perturbation(std::uint64_t seq) { perturb_seq_ = seq; }

 private:
  friend struct EngineTestAccess;  // white-box tests (generation wrap)

  // ---- pooled event nodes ----

  static constexpr std::uint32_t kNil = 0xffffffffu;

  enum NodeFlags : std::uint8_t {
    kArmed = 1,   // the EventId is live (cancellable)
    kFiring = 2,  // periodic event currently running its callback
  };

  struct EventNode {
    SimTime t = 0;
    std::uint64_t seq = 0;
    SimDuration period = 0;       // > 0: periodic, parked in the wheel
    std::uint64_t parent = 0;     // seq of the scheduling event (provenance)
    const char* site = "";        // scheduling-site label (static storage)
    std::uint32_t gen = 0;        // matches EventId.gen while armed
    std::uint32_t next = kNil;    // free list / wheel bucket chain
    std::uint32_t prev = kNil;    // wheel bucket back link (O(1) unlink)
    std::uint16_t bucket = 0;     // wheel bucket index (level*kWheelSlots+slot)
    std::uint8_t flags = 0;
    Callback cb;
  };

  // Heap entry for one-shot events.  Dead entries (generation mismatch
  // after a cancel) are skipped lazily at pop.  The heap is 4-ary: half the
  // depth of a binary heap, and all four children of a node share one or
  // two cache lines, which roughly halves the sift-down cost that dominates
  // event dispatch.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // ---- hierarchical timer wheel (periodic events) ----
  //
  // kWheelLevels levels of kWheelSlots slots; level l buckets time by
  // 2^(kWheelShift + l*kWheelSlotBits) ns (level 0 ≈ 1 ms).  A timer is
  // parked in the lowest level whose slot distance from now fits, so its
  // bucket index never wraps ambiguously; timers beyond the top horizon
  // (~4.9 h) go to an overflow bucket.  There is no cascading: dispatch
  // needs only the wheel *minimum*, which is recomputed lazily from the
  // per-level occupancy bitmaps plus a scan of one short bucket per level
  // (exact, because bucket lists store full (t, seq) keys).
  static constexpr int kWheelLevels = 4;
  static constexpr int kWheelSlotBits = 6;
  static constexpr int kWheelSlots = 1 << kWheelSlotBits;  // 64
  static constexpr int kWheelShift = 20;                   // level-0 slot ≈ 1.05 ms
  static constexpr std::uint16_t kOverflowBucket =
      static_cast<std::uint16_t>(kWheelLevels * kWheelSlots);

  struct WheelLevel {
    std::uint64_t occupied = 0;  // bit per slot with a non-empty bucket
    std::array<std::uint32_t, kWheelSlots> head;
    WheelLevel() { head.fill(kNil); }
  };

  // Nodes live in fixed-size chunks: addresses never move (so callbacks run
  // in place even if the callback allocates more events), and growing the
  // pool never relocates existing nodes.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;  // 256 nodes

  EventNode& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);
  void bucket_insert(std::uint32_t slot);
  void bucket_unlink(std::uint32_t slot);
  std::uint32_t wheel_min();  // kNil if no periodic events are parked
  void prune_heap();          // pops cancelled entries off the heap top
  void prune_runs();          // skips cancelled entries at the lane fronts
  void heap_push(const HeapEntry& e);
  void heap_pop();

  void throw_pending();
  bool step();  // runs one event; returns false if no live events remain
  void dispatch_oneshot(HeapEntry e);
  void dispatch_wheel(std::uint32_t slot);
  void note_dispatch(const EventNode& n, std::uint64_t draws_before);
  void note_dispatch_slow(const EventNode& n, std::uint64_t draws_before);

  // Allocates the next sequence number, honoring the perturbation hook:
  // when next_seq_ hits perturb_seq_, seq N+1 is handed out before seq N.
  // perturb_seq_ == 0 never matches (seq allocation starts at 1).
  std::uint64_t next_seq() {
    if (pending_seq_ != 0) [[unlikely]] {
      const std::uint64_t s = pending_seq_;
      pending_seq_ = 0;
      return s;
    }
    if (next_seq_ == perturb_seq_) [[unlikely]] {
      pending_seq_ = next_seq_++;
      return next_seq_++;
    }
    return next_seq_++;
  }

  // One-shot events split between three containers (ladder-queue style).
  // Simulations overwhelmingly schedule in near-monotone time order, so an
  // event no earlier than a lane's newest entry appends to that lane — a
  // sorted FIFO popped from the front in O(1) with perfectly sequential
  // memory traffic.  Four lanes with best-fit placement: a new event goes
  // to the fitting lane whose back is *latest* (tightest horizon band), so
  // the lanes self-organize into bands — compute-segment ends, network
  // hops, MPI protocol steps, daemon ticks — and keep absorbing appends
  // even late in a run when per-node DVS divergence turns the delay
  // distribution into a continuum.  An empty lane is seeded only when no
  // lane fits; each lane stays sorted because an appended event's seq is
  // the global maximum at insert time.  Strays that fit no lane fall back
  // to the 4-ary min-heap.  Dispatch always takes the global (t, seq)
  // minimum of the lane fronts, heap top, and wheel min, so lane placement
  // never affects event order.
  struct RunLane {
    std::vector<HeapEntry> entries;  // monotone (t, seq)-ascending
    std::size_t head = 0;            // first unconsumed entry
  };
  std::array<RunLane, 4> runs_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap ordered by (t, seq)
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::uint32_t slab_size_ = 0;  // slots handed out so far (free or armed)
  std::uint32_t free_head_ = kNil;
  std::size_t live_events_ = 0;

  std::array<WheelLevel, kWheelLevels> wheel_;
  std::uint32_t overflow_head_ = kNil;
  std::size_t wheel_count_ = 0;
  std::uint32_t wheel_min_ = kNil;  // cached; kNil + wheel_count_>0 = dirty

  struct FrameSlot {
    std::coroutine_handle<> h;
    FrameDetachFn detach = nullptr;
    std::uint64_t ticket = 0;   // spawn order, for deterministic teardown
    std::uint32_t next_free = kNil;
  };
  std::vector<FrameSlot> frames_;
  std::uint32_t frame_free_head_ = kNil;
  std::uint64_t next_frame_ticket_ = 0;

  std::vector<std::exception_ptr> orphan_exceptions_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  bool stop_requested_ = false;  // stop() called during the current run

  // Determinism observability state.  dispatch_parent_ is maintained
  // unconditionally (two plain stores per dispatch); everything else hides
  // behind the det_.event_digest null check.
  DeterminismHooks det_;
  std::uint64_t dispatch_parent_ = 0;
  std::uint64_t perturb_seq_ = 0;
  std::uint64_t pending_seq_ = 0;
  const char* last_site_ = nullptr;   // single-entry site-hash cache:
  std::uint64_t last_site_hash_ = 0;  // labels are static literals, so
                                      // pointer identity ≈ value identity
};

// Folds one dispatched event into the event-order digest.  The folded word
// mixes time, sequence, parent, and site: two runs that dispatch the same
// (t, seq) pairs but hand them to different callbacks — e.g. after a
// seq-allocation swap between two same-time events — still produce
// different streams, because site and parent differ.  Inlined into the
// dispatch paths: the three multiplies are independent (ILP-friendly) and
// only the running-hash chain is serial across events, which keeps the
// digest-only tier inside the ≤3% overhead gate.  Observer work (per-event
// records, checkpoints) is the out-of-line slow path.
inline void Engine::note_dispatch(const EventNode& n, std::uint64_t draws_before) {
  std::uint64_t site_h = last_site_hash_;
  if (n.site != last_site_) {
    last_site_ = n.site;
    last_site_hash_ = site_h = digest_cstr(n.site);
  }
  const std::uint64_t w =
      (static_cast<std::uint64_t>(n.t) * 0x9e3779b97f4a7c15ULL) ^
      (n.seq * 0xff51afd7ed558ccdULL) ^ (n.parent * 0xc4ceb9fe1a85ec53ULL) ^
      site_h;
  det_.event_digest->fold(w);
  if (det_.per_event ||
      (det_.event_digest->count & det_.checkpoint_mask) == 0) [[unlikely]] {
    note_dispatch_slow(n, draws_before);
  }
}

}  // namespace pcd::sim
