#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace pcd::sim {

namespace {

// Global dispatch order: (time, seq) lexicographic.
bool precedes(SimTime ta, std::uint64_t sa, SimTime tb, std::uint64_t sb) {
  return ta < tb || (ta == tb && sa < sb);
}

}  // namespace

Engine::~Engine() { destroy_suspended_frames(); }

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
  n.cb.reset();
  n.flags = 0;
  ++n.gen;
  if (n.gen == 0) n.gen = 1;  // gen 0 is reserved for invalid EventIds
  n.next = free_head_;
  free_head_ = slot;
}

// ---- one-shot heap --------------------------------------------------------

void Engine::heap_push(const HeapEntry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    const HeapEntry& parent = heap_[p];
    if (!precedes(e.t, e.seq, parent.t, parent.seq)) break;
    heap_[i] = parent;
    i = p;
  }
  heap_[i] = e;
}

void Engine::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t c = (i << 2) + 1;
    if (c >= n) break;
    std::size_t m = c;
    const std::size_t end = c + 4 < n ? c + 4 : n;
    for (std::size_t k = c + 1; k < end; ++k) {
      if (precedes(heap_[k].t, heap_[k].seq, heap_[m].t, heap_[m].seq)) m = k;
    }
    if (!precedes(heap_[m].t, heap_[m].seq, last.t, last.seq)) break;
    heap_[i] = heap_[m];
    i = m;
  }
  heap_[i] = last;
}

void Engine::prune_heap() {
  while (!heap_.empty()) {
    const HeapEntry& e = heap_.front();
    const EventNode& n = node(e.slot);
    if (n.gen == e.gen && (n.flags & kArmed) != 0) return;
    heap_pop();  // cancelled: the slot's generation has moved on
  }
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
    while (lane.head < lane.entries.size()) {
      const HeapEntry& e = lane.entries[lane.head];
      const EventNode& n = node(e.slot);
      if (n.gen == e.gen && (n.flags & kArmed) != 0) break;
      ++lane.head;  // cancelled: skip in place
    }
    if (lane.head == lane.entries.size()) {
      lane.entries.clear();
      lane.head = 0;
    }
  }
}

// ---- scheduling -----------------------------------------------------------

EventId Engine::schedule_at(SimTime t, Callback cb, const char* site) {
  assert(t >= now_ && "cannot schedule events in the simulated past");
  if (t < now_) t = now_;
  const std::uint64_t seq = next_seq();
  const std::uint32_t slot = alloc_slot();
  EventNode& n = node(slot);
  n.t = t;
  n.seq = seq;
  n.period = 0;
  n.parent = dispatch_parent_;
  n.site = site;
  n.flags = kArmed;
  n.cb = std::move(cb);
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
    heap_push(entry);
  }
  ++live_events_;
  return EventId{slot, n.gen};
}

EventId Engine::schedule_in(SimDuration dt, Callback cb, const char* site) {
  assert(dt >= 0 && "cannot schedule events in the simulated past");
  if (dt < 0) dt = 0;
  return schedule_at(now_ + dt, std::move(cb), site);
}

EventId Engine::schedule_every(SimDuration first_delay, SimDuration period, Callback cb,
                               const char* site) {
  assert(first_delay >= 0 && "cannot schedule events in the simulated past");
  if (first_delay < 0) first_delay = 0;
  if (period <= 0) throw std::invalid_argument("schedule_every: period must be positive");
  const std::uint64_t seq = next_seq();
  const std::uint32_t slot = alloc_slot();
  EventNode& n = node(slot);
  n.t = now_ + first_delay;
  n.seq = seq;
  n.period = period;
  n.parent = dispatch_parent_;
  n.site = site;
  n.flags = kArmed;
  n.cb = std::move(cb);
  bucket_insert(slot);
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
  if (n.period > 0) bucket_unlink(id.slot);
  release_slot(id.slot);
  // One-shot heap entries are not searched for here: the stale HeapEntry is
  // skipped at pop because its generation no longer matches.
  return true;
}

// ---- timer wheel ----------------------------------------------------------

void Engine::bucket_insert(std::uint32_t slot) {
  EventNode& n = node(slot);
  std::uint16_t bucket = kOverflowBucket;
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = kWheelShift + level * kWheelSlotBits;
    // Slot-unit distance from now.  < kWheelSlots means (t >> shift) mod 64
    // is unambiguous at this level: the cyclic first-occupied-slot scan in
    // wheel_min() then visits buckets in increasing time order.
    if (((n.t >> shift) - (now_ >> shift)) < kWheelSlots) {
      bucket = static_cast<std::uint16_t>(level * kWheelSlots +
                                          static_cast<int>((n.t >> shift) & (kWheelSlots - 1)));
      break;
    }
  }
  n.bucket = bucket;
  std::uint32_t* head = nullptr;
  if (bucket == kOverflowBucket) {
    head = &overflow_head_;
  } else {
    WheelLevel& lvl = wheel_[bucket >> kWheelSlotBits];
    lvl.occupied |= std::uint64_t{1} << (bucket & (kWheelSlots - 1));
    head = &lvl.head[bucket & (kWheelSlots - 1)];
  }
  // Wheel buckets stay sorted by (t, seq): wheel_min() then reads only each
  // level's first bucket head instead of scanning a whole bucket list.  The
  // overflow list is left unsorted — it is scanned in full, and parking
  // there (> ~4.9 h out) is rare.
  if (bucket == kOverflowBucket) {
    n.prev = kNil;
    n.next = *head;
    if (*head != kNil) node(*head).prev = slot;
    *head = slot;
  } else {
    std::uint32_t prev = kNil;
    std::uint32_t cur = *head;
    while (cur != kNil && precedes(node(cur).t, node(cur).seq, n.t, n.seq)) {
      prev = cur;
      cur = node(cur).next;
    }
    n.prev = prev;
    n.next = cur;
    if (prev != kNil) {
      node(prev).next = slot;
    } else {
      *head = slot;
    }
    if (cur != kNil) node(cur).prev = slot;
  }
  ++wheel_count_;
  if (wheel_min_ != kNil) {
    const EventNode& m = node(wheel_min_);
    if (precedes(n.t, n.seq, m.t, m.seq)) wheel_min_ = slot;
  } else if (wheel_count_ == 1) {
    wheel_min_ = slot;
  }
}

void Engine::bucket_unlink(std::uint32_t slot) {
  EventNode& n = node(slot);
  std::uint32_t* head = nullptr;
  WheelLevel* lvl = nullptr;
  if (n.bucket == kOverflowBucket) {
    head = &overflow_head_;
  } else {
    lvl = &wheel_[n.bucket >> kWheelSlotBits];
    head = &lvl->head[n.bucket & (kWheelSlots - 1)];
  }
  if (n.prev != kNil) {
    node(n.prev).next = n.next;
  } else {
    *head = n.next;
  }
  if (n.next != kNil) node(n.next).prev = n.prev;
  if (lvl != nullptr && *head == kNil) {
    lvl->occupied &= ~(std::uint64_t{1} << (n.bucket & (kWheelSlots - 1)));
  }
  n.next = kNil;
  n.prev = kNil;
  --wheel_count_;
  if (wheel_min_ == slot) wheel_min_ = kNil;  // cache dirty; recompute lazily
}

std::uint32_t Engine::wheel_min() {
  if (wheel_count_ == 0) return kNil;
  if (wheel_min_ != kNil) return wheel_min_;
  std::uint32_t best = kNil;
  const auto consider = [&](std::uint32_t s) {
    if (best == kNil ||
        precedes(node(s).t, node(s).seq, node(best).t, node(best).seq)) {
      best = s;
    }
  };
  for (int level = 0; level < kWheelLevels; ++level) {
    const WheelLevel& lvl = wheel_[level];
    if (lvl.occupied == 0) continue;
    const int shift = kWheelShift + level * kWheelSlotBits;
    const int cur = static_cast<int>((now_ >> shift) & (kWheelSlots - 1));
    // Every parked timer lies 0..63 slot-units ahead of now at its level, so
    // the first occupied bucket cyclically at/after `cur` holds this level's
    // minimum — and buckets are kept sorted, so its head is that minimum.
    const std::uint64_t rotated = std::rotr(lvl.occupied, cur);
    const int s = (cur + std::countr_zero(rotated)) & (kWheelSlots - 1);
    consider(lvl.head[s]);
  }
  for (std::uint32_t it = overflow_head_; it != kNil; it = node(it).next) consider(it);
  wheel_min_ = best;
  return best;
}

// ---- dispatch -------------------------------------------------------------

void Engine::dispatch_oneshot(HeapEntry e) {
  EventNode& n = node(e.slot);
  assert(n.t >= now_);
  now_ = n.t;
  // The id is retired before the callback runs, so cancelling the event's
  // own id from inside the callback reports false (already fired).  The
  // callback itself is invoked in place — node addresses are stable even if
  // it schedules more events — and the slot joins the free list after.
  n.flags = 0;
  ++n.gen;
  if (n.gen == 0) n.gen = 1;
  --live_events_;
  ++processed_;
  const std::uint64_t parent_before = dispatch_parent_;
  dispatch_parent_ = n.seq;
  std::uint64_t draws_before = 0;
  if (det_.per_event) draws_before = RngTelemetry::draws;
  try {
    n.cb();
  } catch (...) {
    dispatch_parent_ = parent_before;
    n.cb.reset();
    n.next = free_head_;
    free_head_ = e.slot;
    throw;
  }
  dispatch_parent_ = parent_before;
  if (det_.event_digest != nullptr) note_dispatch(n, draws_before);
  n.cb.reset();
  n.next = free_head_;
  free_head_ = e.slot;
}

void Engine::dispatch_wheel(std::uint32_t slot) {
  EventNode& n = node(slot);
  assert(n.t >= now_);
  now_ = n.t;
  bucket_unlink(slot);
  n.flags = static_cast<std::uint8_t>(n.flags | kFiring);
  ++processed_;
  const std::uint64_t parent_before = dispatch_parent_;
  dispatch_parent_ = n.seq;
  std::uint64_t draws_before = 0;
  if (det_.per_event) draws_before = RngTelemetry::draws;
  // In-place invoke: the chunked slab never relocates the node, even if the
  // callback schedules events, so the callable is never moved between fires.
  try {
    n.cb();
  } catch (...) {
    dispatch_parent_ = parent_before;
    if ((n.flags & kArmed) != 0) --live_events_;  // not cancelled from inside
    release_slot(slot);
    throw;  // the recurrence stops, as if the reschedule never ran
  }
  dispatch_parent_ = parent_before;
  // Digest/provenance note *before* the re-arm overwrites seq: the record
  // must describe the occurrence that just fired.
  if (det_.event_digest != nullptr) note_dispatch(n, draws_before);
  if ((n.flags & kArmed) == 0) {
    release_slot(slot);  // cancelled from inside the callback
    return;
  }
  // Re-arm in place.  The next occurrence draws its sequence number *after*
  // the callback returned — exactly when a self-rescheduling callback's
  // trailing schedule_in() would have drawn it, so the global (time, seq)
  // order is bit-identical to the legacy pattern.
  n.flags = static_cast<std::uint8_t>(n.flags & ~kFiring);
  n.seq = next_seq();
  n.t += n.period;
  bucket_insert(slot);
}

// The cold half of note_dispatch (see engine.hpp for the inlined digest
// fold): per-event provenance records for the observer tier, plus the
// periodic checkpoint callback.  Also reached on checkpoint boundaries of
// digest-only runs with no observer, where both branches fall through.
void Engine::note_dispatch_slow(const EventNode& n, std::uint64_t draws_before) {
  if (det_.per_event) {
    EventProvenance p;
    p.index = det_.event_digest->count;
    p.seq = n.seq;
    p.parent = n.parent;
    p.site = n.site;
    p.t = n.t;
    p.rng_draws = RngTelemetry::draws - draws_before;
    det_.observer->on_event(p);
  }
  if ((det_.event_digest->count & det_.checkpoint_mask) == 0 &&
      det_.observer != nullptr) {
    det_.observer->on_checkpoint(det_.event_digest->count);
  }
}

bool Engine::step() {
  prune_runs();
  prune_heap();
  // Pick the global (t, seq) minimum across all containers.
  const HeapEntry* best = heap_.empty() ? nullptr : &heap_.front();
  RunLane* from_lane = nullptr;
  for (RunLane& lane : runs_) {
    if (lane.head < lane.entries.size()) {
      const HeapEntry& r = lane.entries[lane.head];
      if (best == nullptr || precedes(r.t, r.seq, best->t, best->seq)) {
        best = &r;
        from_lane = &lane;
      }
    }
  }
  const std::uint32_t w = wheel_min();
  if (w != kNil) {
    const EventNode& wn = node(w);
    if (best == nullptr || precedes(wn.t, wn.seq, best->t, best->seq)) {
      dispatch_wheel(w);
      return true;
    }
  }
  if (best == nullptr) return false;
  const HeapEntry e = *best;  // copy before the pop invalidates the pointer
  if (from_lane != nullptr) {
    ++from_lane->head;
  } else {
    heap_pop();
  }
  dispatch_oneshot(e);
  return true;
}

std::optional<SimTime> Engine::next_event_time() {
  prune_runs();
  prune_heap();
  std::optional<SimTime> t;
  if (!heap_.empty()) t = heap_.front().t;
  for (const RunLane& lane : runs_) {
    if (lane.head < lane.entries.size() && (!t || lane.entries[lane.head].t < *t)) {
      t = lane.entries[lane.head].t;
    }
  }
  const std::uint32_t w = wheel_min();
  if (w != kNil && (!t || node(w).t < *t)) t = node(w).t;
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
  for (auto next = next_event_time(); next && *next <= t; next = next_event_time()) {
    if (!step()) break;
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
