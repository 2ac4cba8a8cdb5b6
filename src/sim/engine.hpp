// Deterministic discrete-event engine.
//
// The engine dispatches events in (time, sequence) order; sequence numbers
// break ties so that events scheduled for the same instant run in FIFO
// order.  All model code — CPU executors, the network, MPI processes, the
// CPUSPEED daemon — advances exclusively through this engine.
//
// Internals (DESIGN.md §3.1 "Event core internals"): event state lives in a
// chunked slab of 64-byte pooled nodes, one cache line each, addressed by
// generation-tagged EventIds — schedule and cancel never touch a hash map,
// and the steady state is allocation-free.  A node stores its callable in
// place when it is trivially copyable, trivially destructible and at most
// 16 bytes (a Continuation, a captured `this`, a coroutine handle, a
// pointer and an index): scheduling copies its bytes, dispatch calls one
// function pointer, and release runs nothing.  Any other callable is boxed
// once on the heap and the box is freed on fire, cancel, throw or
// ~Engine.  Cancelled slots are recycled through a free list and dead queue
// entries are lazily skipped at pop.  Node addresses are stable for the
// life of the engine, so a callback is invoked in place — it is never moved
// out of its node.  One-shot ordering uses five sorted run lanes, each a
// power-of-two ring of 24-byte (time, seq, slot, gen) entries: four are
// placed best-fit by horizon (capturing near-monotone streams) and one takes
// every zero-delay event, which is sorted by construction.  A 4-ary min-heap
// of the same entries is the stray fallback; strictly periodic events
// (schedule_every) keep their own instance of that heap and re-arm their
// node in place after every fire.  Popping a lane prefetches the node two
// entries ahead and the callable words of the new front.
#pragma once

#include <array>
#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Anything the engine can schedule: a callable taking no arguments.
template <typename F>
concept EventCallable = std::invocable<std::decay_t<F>&>;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Schedules `f` at absolute time `t` (must be >= now()).  `site` is a
  /// scheduling-site label for determinism provenance; it must point at a
  /// string with static storage duration (the engine stores the pointer).
  /// A trivially copyable callable of at most kInlineBytes is stored in the
  /// event node itself; anything else is moved into one heap box, freed
  /// when the event fires or is cancelled.
  template <EventCallable F>
  EventId schedule_at(SimTime t, F&& f, const char* site = "") {
    const std::uint32_t slot = alloc_slot();
    store(slot, std::forward<F>(f));
    return arm_oneshot(slot, t, site);
  }

  /// Schedules `f` at now() + dt (dt must be >= 0).
  template <EventCallable F>
  EventId schedule_in(SimDuration dt, F&& f, const char* site = "") {
    assert(dt >= 0 && "cannot schedule events in the simulated past");
    if (dt < 0) dt = 0;
    return schedule_at(now_ + dt, std::forward<F>(f), site);
  }

  /// Schedules `f` to fire at now() + first_delay and then `period` after
  /// each fire completes, until cancelled.  Each occurrence draws a fresh
  /// sequence number and its time (now() + period) when the previous one
  /// completes, so a periodic event interleaves with one-shot events
  /// exactly as if the callback rescheduled itself with schedule_in as its
  /// last statement — but the steady state allocates nothing: the node and
  /// its callable are reused.
  template <EventCallable F>
  EventId schedule_every(SimDuration first_delay, SimDuration period, F&& f,
                         const char* site = "") {
    check_period(period);
    const std::uint32_t slot = alloc_slot();
    store(slot, std::forward<F>(f));
    return arm_periodic(slot, first_delay, period, site);
  }
  template <EventCallable F>
  EventId schedule_every(SimDuration period, F&& f, const char* site = "") {
    return schedule_every(period, period, std::forward<F>(f), site);
  }

  /// Largest callable stored in an event node without a heap box.
  static constexpr std::size_t kInlineBytes = 16;

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
  /// Used by ShardedEngine to derive the next conservative window end; also
  /// handy for drivers that interleave engines manually.
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
    kBoxed = 4,   // the callable lives in a heap box owned by the node
  };

  // A boxed callable: the node owns it through the virtual destructor.
  struct BoxBase {
    virtual ~BoxBase() = default;
  };
  template <typename D>
  struct Box final : BoxBase {
    template <typename F>
    explicit Box(F&& f) : fn(std::forward<F>(f)) {}
    D fn;
  };

  // The node's callable: its bytes when it fits, else the owning box.
  union Callable {
    alignas(8) unsigned char bytes[kInlineBytes];
    BoxBase* box;
  };
  using Thunk = void (*)(Callable&);

  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(Callable) &&
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static void call_inline(Callable& c) {
    (*std::launder(reinterpret_cast<D*>(c.bytes)))();
  }
  template <typename D>
  static void call_boxed(Callable& c) {
    static_cast<Box<D>*>(c.box)->fn();
  }

  // One cache line.  The event's time and sequence number live only in its
  // queue entry, which dispatch hands over.
  struct alignas(64) EventNode {
    Thunk call = nullptr;         // runs `fn`
    Callable fn;
    SimDuration period = 0;       // > 0: periodic, queued on timers_
    std::uint64_t parent = 0;     // seq of the scheduling event (provenance)
    const char* site = "";        // scheduling-site label (static storage)
    std::uint32_t gen = 0;        // matches EventId.gen while armed
    std::uint32_t next = kNil;    // free list link
    std::uint8_t flags = 0;
  };
  static_assert(sizeof(EventNode) == 64, "an event node is one cache line");

  // Heap entry for both heaps.  Dead entries (generation mismatch after a
  // cancel) are skipped lazily at pop.  The heaps are 4-ary: half the depth
  // of a binary heap, and all four children of a node share one or two
  // cache lines, which roughly halves the sift-down cost that dominates
  // event dispatch.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
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

  // Puts `f` into the node of a freshly allocated slot.  If boxing throws,
  // the slot goes back to the free list and nothing is armed.
  template <typename F>
  void store(std::uint32_t slot, F&& f) {
    using D = std::decay_t<F>;
    EventNode& n = node(slot);
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(n.fn.bytes)) D(std::forward<F>(f));
      n.call = &call_inline<D>;
      n.flags = 0;
    } else {
      try {
        n.fn.box = new Box<D>(std::forward<F>(f));
      } catch (...) {
        release_slot(slot);
        throw;
      }
      n.call = &call_boxed<D>;
      n.flags = kBoxed;
    }
  }
  EventId arm_oneshot(std::uint32_t slot, SimTime t, const char* site);
  EventId arm_periodic(std::uint32_t slot, SimDuration first_delay, SimDuration period,
                       const char* site);
  static void check_period(SimDuration period);
  bool live(const HeapEntry& e);  // false once the entry's event is dead
  static void heap_push(std::vector<HeapEntry>& heap, const HeapEntry& e);
  static void heap_pop(std::vector<HeapEntry>& heap);
  static void heap_replace_top(std::vector<HeapEntry>& heap, const HeapEntry& e);

  void throw_pending();
  // Runs the earliest live event if it is due by `limit`; false if none is.
  bool step(SimTime limit = std::numeric_limits<SimTime>::max());
  void dispatch(HeapEntry e);
  void note_dispatch(const HeapEntry& e, const EventNode& n, std::uint64_t draws_before);
  void note_dispatch_slow(const HeapEntry& e, const EventNode& n,
                          std::uint64_t draws_before);

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

  // One-shot events split between run lanes and a stray heap (ladder-queue
  // style).  Simulations overwhelmingly schedule in near-monotone time
  // order, so an event no earlier than a lane's newest entry appends to that
  // lane — a sorted FIFO popped from the front in O(1) with sequential
  // memory traffic.  Four lanes with best-fit placement: a new event goes to
  // the fitting lane whose back is *latest* (tightest horizon band), so the
  // lanes self-organize into bands — compute-segment ends, network hops, MPI
  // protocol steps — and keep absorbing appends even late in a run when
  // per-node DVS divergence turns the delay distribution into a continuum.
  // An empty lane is seeded only when no lane fits.  A fifth lane, the now
  // lane, takes every event scheduled at t == now() (spawns, wakeups): now()
  // never decreases and a fresh seq is the global maximum, so appending
  // keeps it sorted without a search, and those events neither hold a band
  // lane nor deepen the heap.  Strays that fit no lane fall back to the
  // 4-ary min-heap, and so does the one seq that is not the maximum when it
  // is handed out (the second of the pair the perturbation hook swaps).
  // Periodic events sit in a second heap of the same kind, timers_, so
  // thousands of far-ahead re-arms (one daemon tick per node) neither hold a
  // run lane nor deepen the stray heap (DESIGN.md §3.10).  Dispatch always
  // takes the global (t, seq) minimum of the lane fronts and both heap tops,
  // so placement never affects event order.
  //
  // Each lane is a power-of-two ring holding only its queued entries, so a
  // lane's footprint follows its backlog, not the events it has carried.
  struct RunLane {
    std::unique_ptr<HeapEntry[]> ring;  // capacity mask + 1 once allocated
    std::uint32_t mask = 0;
    std::uint32_t head = 0;   // ring index of the front entry
    std::uint32_t count = 0;  // queued entries, cancelled ones included

    std::uint32_t capacity() const { return ring ? mask + 1 : 0; }
    const HeapEntry& at(std::uint32_t i) const { return ring[(head + i) & mask]; }
    const HeapEntry& front() const { return ring[head]; }
    const HeapEntry& back() const { return at(count - 1); }
    void pop_front() {
      head = (head + 1) & mask;
      --count;
    }
    void push_back(const HeapEntry& e) {
      if (count == capacity()) grow();
      ring[(head + count) & mask] = e;
      ++count;
    }
    void grow();  // doubles the ring, front first at index 0
  };
  static constexpr std::size_t kFitLanes = 4;  // runs_[kFitLanes] is the now lane
  std::array<RunLane, kFitLanes + 1> runs_;
  std::vector<HeapEntry> heap_;    // one-shot strays: 4-ary min-heap by (t, seq)
  std::vector<HeapEntry> timers_;  // periodic events: the same kind of heap

  RunLane* lane_for(SimTime t);  // where a fresh one-shot at t appends, or null
  // The first queued entry in (t, seq) order and the container it heads.
  // earliest_live() drops dead entries (cancelled events, a firing timer's
  // entry) as they surface there; `entry` is null once nothing is queued.
  struct Earliest {
    const HeapEntry* entry = nullptr;
    RunLane* lane = nullptr;                 // the entry heads this lane, or
    std::vector<HeapEntry>* heap = nullptr;  // tops this heap
  };
  Earliest earliest_live();

  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::uint32_t slab_size_ = 0;  // slots handed out so far (free or armed)
  std::uint32_t free_head_ = kNil;
  std::size_t live_events_ = 0;

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
inline void Engine::note_dispatch(const HeapEntry& e, const EventNode& n,
                                  std::uint64_t draws_before) {
  std::uint64_t site_h = last_site_hash_;
  if (n.site != last_site_) {
    last_site_ = n.site;
    last_site_hash_ = site_h = digest_cstr(n.site);
  }
  const std::uint64_t w =
      (static_cast<std::uint64_t>(e.t) * 0x9e3779b97f4a7c15ULL) ^
      (e.seq * 0xff51afd7ed558ccdULL) ^ (n.parent * 0xc4ceb9fe1a85ec53ULL) ^
      site_h;
  det_.event_digest->fold(w);
  if (det_.per_event ||
      (det_.event_digest->count & det_.checkpoint_mask) == 0) [[unlikely]] {
    note_dispatch_slow(e, n, draws_before);
  }
}

}  // namespace pcd::sim
