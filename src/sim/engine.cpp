#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
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

void Engine::RunLane::grow() {
  const std::uint32_t cap = ring ? 2 * (mask + 1) : 16;
  auto bigger = std::make_unique_for_overwrite<HeapEntry[]>(cap);
  for (std::uint32_t i = 0; i < count; ++i) bigger[i] = at(i);
  ring = std::move(bigger);
  mask = cap - 1;
  head = 0;
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
  // A fresh event's seq is the global maximum, so it fits behind any lane
  // whose back is no later than t.  The one exception is the seq that the
  // perturbation hook hands out second; it goes to the heap, which orders
  // anything.  (Each branch builds its own entry, so the compiler writes
  // the fields straight into the ring instead of through a stack copy whose
  // wide reload stalls on store forwarding.)
  const std::uint32_t gen = n.gen;
  if (RunLane* const lane = seq + 1 == next_seq_ ? lane_for(t) : nullptr) {
    lane->push_back(HeapEntry{t, seq, slot, gen});
  } else {
    heap_push(heap_, HeapEntry{t, seq, slot, gen});
  }
  ++live_events_;
  return EventId{slot, gen};
}

// A zero-delay event appends to the now lane.  Any other event appends to
// the fitting lane whose tail it extends the least (best fit, so lanes
// specialize into horizon bands instead of all drifting to the longest
// stream), an empty lane restarts at any time, and a stray that fits
// nowhere gets null and goes to the heap.
Engine::RunLane* Engine::lane_for(SimTime t) {
  if (t == now_) return &runs_[kFitLanes];
  RunLane* best = nullptr;
  RunLane* empty = nullptr;
  SimTime best_back = 0;
  for (std::size_t i = 0; i < kFitLanes; ++i) {
    RunLane& lane = runs_[i];
    if (lane.count == 0) {
      if (empty == nullptr) empty = &lane;
      continue;
    }
    const SimTime back = lane.back().t;
    if (t >= back && (best == nullptr || back > best_back)) {
      best = &lane;
      best_back = back;
    }
  }
  return best != nullptr ? best : empty;
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

Engine::Earliest Engine::earliest_live() {
  for (;;) {
    // The global (t, seq) minimum across all containers.
    Earliest m;
    for (std::vector<HeapEntry>* heap : {&heap_, &timers_}) {
      if (!heap->empty() && (m.entry == nullptr || precedes(heap->front(), *m.entry))) {
        m.entry = &heap->front();
        m.heap = heap;
      }
    }
    for (RunLane& lane : runs_) {
      if (lane.count != 0 && (m.entry == nullptr || precedes(lane.front(), *m.entry))) {
        m.entry = &lane.front();
        m.heap = nullptr;
        m.lane = &lane;
      }
    }
    if (m.entry == nullptr || live(*m.entry)) return m;
    // Dead: drop it and look again.
    if (m.lane != nullptr) {
      m.lane->pop_front();
    } else {
      heap_pop(*m.heap);
    }
  }
}

bool Engine::step(SimTime limit) {
  const Earliest m = earliest_live();
  if (m.entry == nullptr || m.entry->t > limit) return false;
  const HeapEntry e = *m.entry;  // copied before the pop moves entries
  // A timer's entry stays on top of timers_ while it fires: nothing the
  // callback schedules can precede it, so dispatch re-arms it in place.
  if (RunLane* const lane = m.lane; lane != nullptr) {
    lane->pop_front();
    // Two-stage prefetch, so lane entries reach the front with their node
    // and callable already in cache instead of stalling live() and the call
    // on a cold line.  The node two entries behind the popped one is fetched
    // now; the new front's node was fetched one pop earlier, so its
    // callable's two words can be read without a stall and fetched too:
    // they hold a Continuation's argument (a message record, a coroutine
    // frame), a captured `this` or handle, or the heap box pointer —
    // whatever the call touches first.  A prefetch never faults, so a word
    // that is not a pointer is harmless.  (Written inline: GCC 12 drops a
    // call to a helper made only of prefetches as if it had no effect.)
    if (lane->count > 1) {
      __builtin_prefetch(&node(lane->at(1).slot));
      std::uintptr_t w[2];
      std::memcpy(w, node(lane->front().slot).fn.bytes, sizeof w);
      __builtin_prefetch(reinterpret_cast<const void*>(w[0]));
      __builtin_prefetch(reinterpret_cast<const void*>(w[1]));
    }
  } else if (m.heap == &heap_) {
    heap_pop(heap_);
  }
  dispatch(e);
  return true;
}

std::optional<SimTime> Engine::next_event_time() {
  const Earliest m = earliest_live();
  if (m.entry == nullptr) return std::nullopt;
  return m.entry->t;
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
