#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace pcd::sim {

namespace {

// Global dispatch order of two queue entries: (time, seq) lexicographic,
// compared as one 128-bit key (times are never negative) so that choosing
// among heap children compiles to flag arithmetic instead of unpredictable
// branches.
bool precedes(const auto& a, const auto& b) {
  using Key = unsigned __int128;
  return ((Key{static_cast<std::uint64_t>(a.t)} << 64) | a.seq) <
         ((Key{static_cast<std::uint64_t>(b.t)} << 64) | b.seq);
}

}  // namespace

Engine::~Engine() {
  destroy_suspended_frames();
  // Free the boxes of events still pending; as in release_slot, the node
  // is cleared before the callable's destructor runs.
  for (std::uint32_t slot = 0; slot < slab_size_; ++slot) {
    EventNode& n = node(slot);
    if ((n.flags & kBoxed) == 0) continue;
    BoxBase* const box = n.fn.box;
    n.flags = 0;
    delete box;
  }
}

// ---- slab -----------------------------------------------------------------

std::uint32_t Engine::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = node(slot).next;
    return slot;
  }
  if ((slab_size_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkSize));
  }
  const std::uint32_t slot = slab_size_++;
  node(slot).gen = 1;
  return slot;
}

void Engine::release_slot(std::uint32_t slot) {
  EventNode& n = node(slot);
  BoxBase* const box = (n.flags & kBoxed) != 0 ? n.fn.box : nullptr;
  n.flags = 0;
  ++n.gen;
  if (n.gen == 0) n.gen = 1;  // gen 0 is reserved for invalid EventIds
  n.next = free_head_;
  free_head_ = slot;
  // Last: the callable's destructor may call back into the engine, which
  // must already see the slot free.
  delete box;
}

// ---- 4-ary heaps (one-shot strays and periodic timers) -------------------

void Engine::heap_push(std::vector<HeapEntry>& heap, const HeapEntry& e) {
  std::size_t i = heap.size();
  heap.push_back(e);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    const HeapEntry& parent = heap[p];
    if (!precedes(e, parent)) break;
    heap[i] = parent;
    i = p;
  }
  heap[i] = e;
}

void Engine::heap_pop(std::vector<HeapEntry>& heap) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) heap_replace_top(heap, last);
}

void Engine::heap_replace_top(std::vector<HeapEntry>& heap, const HeapEntry& e) {
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t c = (i << 2) + 1;
    if (c >= n) break;
    std::size_t m = c;
    if (c + 3 < n) {
      // Full group: a two-round tournament keeps the selects independent.
      const std::size_t m01 = precedes(heap[c + 1], heap[c]) ? c + 1 : c;
      const std::size_t m23 = precedes(heap[c + 3], heap[c + 2]) ? c + 3 : c + 2;
      m = precedes(heap[m23], heap[m01]) ? m23 : m01;
    } else {
      for (std::size_t k = c + 1; k < n; ++k) {
        if (precedes(heap[k], heap[m])) m = k;
      }
    }
    if (!precedes(heap[m], e)) break;
    heap[i] = heap[m];
    i = m;
  }
  heap[i] = e;
}

// An entry is dead once its event was cancelled (the slot's generation has
// moved on) or while its periodic event is firing (kFiring: the entry only
// waits for the re-arm, and a nested run must not dispatch it again).
bool Engine::live(const HeapEntry& e) {
  const EventNode& n = node(e.slot);
  return n.gen == e.gen && (n.flags & (kArmed | kFiring)) == kArmed;
}

void Engine::prune_heap(std::vector<HeapEntry>& heap) {
  while (!heap.empty() && !live(heap.front())) heap_pop(heap);
}

void Engine::prune_runs() {
  for (RunLane& lane : runs_) {
    if (lane.head >= 4096 && lane.head * 2 >= lane.entries.size()) {
      // Reclaim the consumed prefix (amortized O(1) per popped entry) so a
      // long monotone phase doesn't hold memory for already-fired events.
      lane.entries.erase(lane.entries.begin(),
                         lane.entries.begin() + static_cast<std::ptrdiff_t>(lane.head));
      lane.head = 0;
    }
    while (lane.head < lane.entries.size() && !live(lane.entries[lane.head])) {
      ++lane.head;  // cancelled: skip in place
    }
    if (lane.head == lane.entries.size()) {
      lane.entries.clear();
      lane.head = 0;
    }
  }
}

// ---- scheduling -----------------------------------------------------------

EventId Engine::arm_oneshot(std::uint32_t slot, SimTime t, const char* site) {
  assert(t >= now_ && "cannot schedule events in the simulated past");
  if (t < now_) t = now_;
  const std::uint64_t seq = next_seq();
  EventNode& n = node(slot);
  n.period = 0;
  n.parent = dispatch_parent_;
  n.site = site;
  n.flags = static_cast<std::uint8_t>(n.flags | kArmed);
  // A fresh event's seq is the global maximum, so comparing times alone
  // decides lane membership: the event appends to the fitting lane whose
  // tail it extends the least (best fit, so lanes specialize into horizon
  // bands instead of all drifting to the longest stream), an empty lane
  // restarts at any time, and strays that fit nowhere go to the heap.
  const HeapEntry entry{t, seq, slot, n.gen};
  RunLane* best_lane = nullptr;
  RunLane* empty_lane = nullptr;
  SimTime best_back = 0;
  for (RunLane& lane : runs_) {
    if (lane.head == lane.entries.size()) {
      if (empty_lane == nullptr) empty_lane = &lane;
      continue;
    }
    const SimTime back = lane.entries.back().t;
    if (t >= back && (best_lane == nullptr || back > best_back)) {
      best_lane = &lane;
      best_back = back;
    }
  }
  if (best_lane != nullptr) {
    best_lane->entries.push_back(entry);
  } else if (empty_lane != nullptr) {
    empty_lane->entries.clear();
    empty_lane->head = 0;
    empty_lane->entries.push_back(entry);
  } else {
    heap_push(heap_, entry);
  }
  ++live_events_;
  return EventId{slot, n.gen};
}

void Engine::check_period(SimDuration period) {
  if (period <= 0) throw std::invalid_argument("schedule_every: period must be positive");
}

EventId Engine::arm_periodic(std::uint32_t slot, SimDuration first_delay, SimDuration period,
                             const char* site) {
  assert(first_delay >= 0 && "cannot schedule events in the simulated past");
  if (first_delay < 0) first_delay = 0;
  const std::uint64_t seq = next_seq();
  EventNode& n = node(slot);
  n.period = period;
  n.parent = dispatch_parent_;
  n.site = site;
  n.flags = static_cast<std::uint8_t>(n.flags | kArmed);
  heap_push(timers_, HeapEntry{now_ + first_delay, seq, slot, n.gen});
  ++live_events_;
  return EventId{slot, n.gen};
}

bool Engine::cancel(EventId id) {
  if (!id.valid()) return false;  // default-constructed id: never a live event
  if (id.slot >= slab_size_) return false;
  EventNode& n = node(id.slot);
  if (n.gen != id.gen || (n.flags & kArmed) == 0) return false;
  n.flags = static_cast<std::uint8_t>(n.flags & ~kArmed);
  --live_events_;
  if ((n.flags & kFiring) != 0) {
    // Periodic event cancelled from inside its own callback: the dispatcher
    // still owns the slot and will release it when the callback returns.
    return true;
  }
  release_slot(id.slot);
  // Lane and heap entries are not searched for here: the stale HeapEntry is
  // skipped at pop because its generation no longer matches.
  return true;
}

// ---- dispatch -------------------------------------------------------------

void Engine::dispatch(HeapEntry e) {
  EventNode& n = node(e.slot);
  assert(e.t >= now_);
  now_ = e.t;
  // A one-shot id is retired before the callback runs, so cancelling the
  // event's own id from inside the callback reports false (already fired).
  // A periodic id stays armed across fires; kFiring tells cancel() that the
  // dispatcher owns the slot until the callback returns.  The callback is
  // invoked in place — node addresses are stable even if it schedules more
  // events — and the slot joins the free list after.
  if (n.period == 0) {
    n.flags = static_cast<std::uint8_t>(n.flags & ~kArmed);
    --live_events_;
  } else {
    n.flags = static_cast<std::uint8_t>(n.flags | kFiring);
  }
  ++processed_;
  const std::uint64_t parent_before = dispatch_parent_;
  dispatch_parent_ = e.seq;
  std::uint64_t draws_before = 0;
  if (det_.per_event) draws_before = RngTelemetry::draws;
  try {
    n.call(n.fn);
  } catch (...) {
    dispatch_parent_ = parent_before;
    if ((n.flags & kArmed) != 0) --live_events_;  // the recurrence stops here
    release_slot(e.slot);
    throw;
  }
  dispatch_parent_ = parent_before;
  // Digest/provenance note describes the occurrence that just fired.
  if (det_.event_digest != nullptr) note_dispatch(e, n, draws_before);
  if ((n.flags & kArmed) == 0) {  // a one-shot, or cancelled from inside
    release_slot(e.slot);
    return;
  }
  // Re-arm in place, one period after now.  The next occurrence draws its
  // sequence number and its time *after* the callback returned — exactly
  // when a self-rescheduling callback's trailing schedule_in() would have
  // drawn them, so the global (time, seq) order is bit-identical to that
  // pattern, and a callback that ran a nested run_until past its next
  // occurrence never re-arms into the past.  The fired entry is still on
  // top of timers_ unless a nested run popped it.
  n.flags = static_cast<std::uint8_t>(n.flags & ~kFiring);
  const HeapEntry next{now_ + n.period, next_seq(), e.slot, n.gen};
  if (!timers_.empty() && timers_.front().slot == e.slot && timers_.front().gen == n.gen) {
    heap_replace_top(timers_, next);
  } else {
    heap_push(timers_, next);
  }
}

// The cold half of note_dispatch (see engine.hpp for the inlined digest
// fold): per-event provenance records for the observer tier, plus the
// periodic checkpoint callback.  Also reached on checkpoint boundaries of
// digest-only runs with no observer, where both branches fall through.
void Engine::note_dispatch_slow(const HeapEntry& e, const EventNode& n,
                                std::uint64_t draws_before) {
  if (det_.per_event) {
    EventProvenance p;
    p.index = det_.event_digest->count;
    p.seq = e.seq;
    p.parent = n.parent;
    p.site = n.site;
    p.t = e.t;
    p.rng_draws = RngTelemetry::draws - draws_before;
    det_.observer->on_event(p);
  }
  if ((det_.event_digest->count & det_.checkpoint_mask) == 0 &&
      det_.observer != nullptr) {
    det_.observer->on_checkpoint(det_.event_digest->count);
  }
}

bool Engine::step(SimTime limit) {
  prune_runs();
  prune_heap(heap_);
  prune_heap(timers_);
  // Pick the global (t, seq) minimum across all containers.
  const HeapEntry* best = nullptr;
  const std::vector<HeapEntry>* from_heap = nullptr;
  for (const std::vector<HeapEntry>* heap : {&heap_, &timers_}) {
    if (!heap->empty() && (best == nullptr || precedes(heap->front(), *best))) {
      best = &heap->front();
      from_heap = heap;
    }
  }
  RunLane* from_lane = nullptr;
  for (RunLane& lane : runs_) {
    if (lane.head < lane.entries.size()) {
      const HeapEntry& r = lane.entries[lane.head];
      if (best == nullptr || precedes(r, *best)) {
        best = &r;
        from_lane = &lane;
      }
    }
  }
  if (best == nullptr || best->t > limit) return false;
  const HeapEntry e = *best;  // copied before the pop moves entries
  // A timer's entry stays on top of timers_ while it fires: nothing the
  // callback schedules can precede it, so dispatch re-arms it in place.
  if (from_lane != nullptr) {
    ++from_lane->head;
  } else if (from_heap == &heap_) {
    heap_pop(heap_);
  }
  dispatch(e);
  return true;
}

std::optional<SimTime> Engine::next_event_time() {
  prune_runs();
  prune_heap(heap_);
  prune_heap(timers_);
  std::optional<SimTime> t;
  for (const std::vector<HeapEntry>* heap : {&heap_, &timers_}) {
    if (!heap->empty() && (!t || heap->front().t < *t)) t = heap->front().t;
  }
  for (const RunLane& lane : runs_) {
    if (lane.head < lane.entries.size() && (!t || lane.entries[lane.head].t < *t)) {
      t = lane.entries[lane.head].t;
    }
  }
  return t;
}

// ---- run loops ------------------------------------------------------------

void Engine::throw_pending() {
  if (orphan_exceptions_.empty()) return;
  auto ex = orphan_exceptions_.front();
  orphan_exceptions_.erase(orphan_exceptions_.begin());
  std::rethrow_exception(ex);
}

// Both run loops drop a stop request left from outside any run (or by a run
// that threw) on entry, and consume the one that ends them, so stop() ends
// only the innermost run.
std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  throw_pending();
  stop_requested_ = false;
  while (n < max_events && step()) {
    ++n;
    throw_pending();
    if (stop_requested_) {
      stop_requested_ = false;
      break;
    }
  }
  return n;
}

std::size_t Engine::run_until(SimTime t) {
  if (t < now_) throw std::invalid_argument("run_until: target time is in the past");
  std::size_t n = 0;
  throw_pending();
  stop_requested_ = false;
  while (step(t)) {
    ++n;
    // Exceptions (from the callback or a rethrown orphan) propagate before
    // the final clock advance below: now_ stays at the last dispatched
    // event's time rather than jumping ahead to t.  So does a stop().
    throw_pending();
    if (stop_requested_) {
      stop_requested_ = false;
      return n;
    }
  }
  now_ = t;
  return n;
}

void Engine::post_orphan_exception(std::exception_ptr ex) {
  orphan_exceptions_.push_back(std::move(ex));
}

// ---- coroutine frame registry ---------------------------------------------

std::uint32_t Engine::register_frame(std::coroutine_handle<> h, FrameDetachFn detach) {
  std::uint32_t slot;
  if (frame_free_head_ != kNil) {
    slot = frame_free_head_;
    frame_free_head_ = frames_[slot].next_free;
  } else {
    frames_.emplace_back();
    slot = static_cast<std::uint32_t>(frames_.size() - 1);
  }
  FrameSlot& f = frames_[slot];
  f.h = h;
  f.detach = detach;
  f.ticket = next_frame_ticket_++;
  f.next_free = kNil;
  return slot;
}

void Engine::unregister_frame(std::uint32_t frame_slot) {
  FrameSlot& f = frames_[frame_slot];
  f.h = nullptr;
  f.detach = nullptr;
  f.next_free = frame_free_head_;
  frame_free_head_ = frame_slot;
}

void Engine::destroy_suspended_frames() {
  struct Live {
    std::uint64_t ticket;
    std::coroutine_handle<> h;
    FrameDetachFn detach;
  };
  std::vector<Live> live;
  live.reserve(frames_.size());
  for (const FrameSlot& f : frames_) {
    if (f.h) live.push_back(Live{f.ticket, f.h, f.detach});
  }
  frames_.clear();
  frame_free_head_ = kNil;
  // Two passes: first detach every external owner (a Process handle may live
  // in another suspended frame's locals, and must stop referring to its
  // coroutine's promise before any frame dies), then destroy in reverse
  // spawn order so dependents unwind before the processes they built on.
  for (const Live& f : live) {
    if (f.detach != nullptr) f.detach(f.h);
  }
  std::sort(live.begin(), live.end(),
            [](const Live& a, const Live& b) { return a.ticket > b.ticket; });
  for (const Live& f : live) f.h.destroy();
}

}  // namespace pcd::sim
