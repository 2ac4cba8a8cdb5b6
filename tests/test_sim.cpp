// Unit tests for the discrete-event engine and coroutine process layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/frame_pool.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace sim = pcd::sim;

// Counting global allocator for the callback-storage footprint tests: every
// ::operator new in this binary bumps the counter (the array and nothrow
// forms route through these).
namespace {
std::atomic<std::int64_t> g_heap_allocs{0};

std::int64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t bytes) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t bytes, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (bytes + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC 12 would otherwise see `free` applied to a pointer from
// `operator new` at every call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

TEST(Time, Conversions) {
  EXPECT_EQ(sim::from_seconds(1.0), sim::kSecond);
  EXPECT_EQ(sim::from_seconds(0.5), 500 * sim::kMillisecond);
  EXPECT_EQ(sim::from_micros(25.0), 25 * sim::kMicrosecond);
  EXPECT_EQ(sim::from_millis(2.0), 2 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::kSecond), 1.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(0), 0.0);
  // Round-trip within one tick.
  const double x = 123.456789123;
  EXPECT_NEAR(sim::to_seconds(sim::from_seconds(x)), x, 1e-9);
}

TEST(Engine, RunsEventsInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimestampIsFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NowAdvancesOnlyThroughEvents) {
  sim::Engine e;
  sim::SimTime seen = -1;
  e.schedule_at(42, [&] { seen = e.now(); });
  EXPECT_EQ(e.now(), 0);
  e.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(e.now(), 42);
}

TEST(Engine, ScheduleInIsRelative) {
  sim::Engine e;
  std::vector<sim::SimTime> times;
  e.schedule_at(100, [&] {
    e.schedule_in(50, [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 150);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double-cancel reports failure
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelAfterRunReturnsFalse) {
  sim::Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.schedule_at(30, [&] { order.push_back(3); });
  e.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 20);
  e.run_until(25);
  EXPECT_EQ(e.now(), 25);
  EXPECT_EQ(order.size(), 2u);
  e.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Engine, RunUntilRejectsPast) {
  sim::Engine e;
  e.schedule_at(50, [] {});
  e.run();
  EXPECT_THROW(e.run_until(10), std::invalid_argument);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_in(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, MaxEventsBound) {
  sim::Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) e.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(e.run(4), 4u);
  EXPECT_EQ(count, 4);
  e.run();
  EXPECT_EQ(count, 10);
}

// --- EventId validity and cancellation semantics --------------------------

TEST(Engine, DefaultEventIdIsInvalidAndRejected) {
  sim::Engine e;
  sim::EventId none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(e.cancel(none));
  auto id = e.schedule_at(10, [] {});
  EXPECT_TRUE(id.valid());
  EXPECT_NE(id, none);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(sim::EventId{}));  // still rejected after activity
  e.run();
}

TEST(Engine, CancelOwnIdInsideCallbackReturnsFalse) {
  // By the time a one-shot callback runs, its id has already been retired.
  sim::Engine e;
  sim::EventId id;
  bool cancel_result = true;
  id = e.schedule_at(10, [&] { cancel_result = e.cancel(id); });
  e.run();
  EXPECT_FALSE(cancel_result);
}

TEST(Engine, CancelOtherEventFromCallback) {
  sim::Engine e;
  bool ran = false;
  auto victim = e.schedule_at(20, [&] { ran = true; });
  e.schedule_at(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 10);  // the cancelled event never advanced the clock
}

TEST(Engine, PendingEventsTracksLiveEvents) {
  sim::Engine e;
  EXPECT_TRUE(e.empty());
  auto a = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  EXPECT_TRUE(e.cancel(a));
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending_events(), 0u);
}

// --- run_until exception semantics ----------------------------------------

TEST(Engine, RunUntilClockStaysAtThrowingEventTime) {
  sim::Engine e;
  e.schedule_at(5, [] {});
  e.schedule_at(10, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run_until(100), std::runtime_error);
  // The clock must not jump ahead to the run_until() boundary.
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, RunUntilClockStaysAtOrphanExceptionTime) {
  sim::Engine e;
  auto thrower = [](sim::SimDuration dt) -> sim::Process {
    co_await sim::delay(dt);
    throw std::runtime_error("boom");
  };
  sim::spawn(e, thrower(10));
  EXPECT_THROW(e.run_until(100), std::runtime_error);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, RunUntilIgnoresCancelledEntriesAtBoundary) {
  // A cancelled entry inside the window must not cause dispatch of a live
  // event beyond the boundary.
  sim::Engine e;
  bool late_ran = false;
  auto inside = e.schedule_at(10, [] {});
  e.schedule_at(100, [&] { late_ran = true; });
  EXPECT_TRUE(e.cancel(inside));
  EXPECT_EQ(e.run_until(50), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(e.now(), 100);
}

// --- stop() ----------------------------------------------------------------

TEST(Engine, StopFromCallbackEndsRunAfterThatEvent) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] {
    order.push_back(2);
    e.schedule_at(20, [&] { order.push_back(4); });  // same time, later seq
    e.stop();
  });
  e.schedule_at(20, [&] { order.push_back(3); });
  e.schedule_at(30, [&] { order.push_back(5); });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.pending_events(), 3u);
  // The rest stays queued and a later run dispatches it in (t, seq) order.
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, StopEndsRunUntilWithoutAdvancingTheClock) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.stop();
  });
  e.schedule_at(50, [&] { order.push_back(2); });
  e.schedule_at(200, [&] { order.push_back(3); });
  EXPECT_EQ(e.run_until(100), 1u);
  EXPECT_EQ(e.now(), 10);  // events <= 100 remain, so the clock stays put
  EXPECT_EQ(e.run_until(100), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 100);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, StopFromPeriodicCallbackKeepsTheRecurrence) {
  sim::Engine e;
  int fires = 0;
  e.schedule_every(10, [&] {
    if (++fires == 2) e.stop();
  });
  e.schedule_at(100, [&] {});
  EXPECT_EQ(e.run_until(35), 2u);
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.run_until(35), 1u);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(e.now(), 35);
}

TEST(Engine, StopDoesNotLeakIntoTheNextRun) {
  sim::Engine e;
  int ran = 0;
  // Called while no run is active: no effect.
  e.stop();
  e.schedule_at(10, [&] { ++ran; });
  e.schedule_at(20, [&] { ++ran; });
  EXPECT_EQ(e.run(), 2u);
  // Called by the last event of a run: the request ends with that run.
  e.schedule_at(30, [&] {
    ++ran;
    e.stop();
  });
  EXPECT_EQ(e.run(), 1u);
  e.schedule_at(40, [&] { ++ran; });
  e.schedule_at(50, [&] { ++ran; });
  EXPECT_EQ(e.run(), 2u);
  // Called by an event whose callback then throws: dropped with the run.
  e.schedule_at(60, [&] {
    e.stop();
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  e.schedule_at(70, [&] { ++ran; });
  e.schedule_at(80, [&] { ++ran; });
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(ran, 7);
}

TEST(Engine, StopEndsOnlyTheInnermostRun) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.run_until(20);  // nested: runs the t=15 event, which stops it
    order.push_back(3);
  });
  e.schedule_at(15, [&] {
    order.push_back(2);
    e.stop();
  });
  e.schedule_at(30, [&] { order.push_back(4); });
  EXPECT_EQ(e.run(), 2u);  // the nested run dispatched the t=15 event
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.events_processed(), 3u);
}

// --- periodic events (schedule_every) -------------------------------------

TEST(Engine, ScheduleEveryFiresAtFixedCadence) {
  sim::Engine e;
  std::vector<sim::SimTime> times;
  auto id = e.schedule_every(10, [&] { times.push_back(e.now()); });
  EXPECT_EQ(e.pending_events(), 1u);  // armed recurrence counts once
  e.run_until(55);
  EXPECT_EQ(times, (std::vector<sim::SimTime>{10, 20, 30, 40, 50}));
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, ScheduleEveryFirstDelayDiffersFromPeriod) {
  sim::Engine e;
  std::vector<sim::SimTime> times;
  auto id = e.schedule_every(5, 10, [&] { times.push_back(e.now()); });
  e.run_until(30);
  EXPECT_EQ(times, (std::vector<sim::SimTime>{5, 15, 25}));
  EXPECT_TRUE(e.cancel(id));
}

TEST(Engine, ScheduleEveryRejectsNonPositivePeriod) {
  sim::Engine e;
  EXPECT_THROW(e.schedule_every(0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_every(5, -1, [] {}), std::invalid_argument);
}

TEST(Engine, ScheduleEveryInterleavesFifoWithOneShots) {
  // A periodic event must interleave with one-shots exactly as if its
  // callback rescheduled itself with a trailing schedule_in: each occurrence
  // draws its sequence number when the previous one completes.
  sim::Engine e;
  std::vector<std::string> order;
  auto id = e.schedule_every(10, [&] { order.push_back("P"); });  // seq drawn 1st
  e.schedule_at(10, [&] { order.push_back("A"); });               // seq drawn 2nd
  e.schedule_at(20, [&] { order.push_back("B"); });               // seq drawn 3rd
  e.run_until(20);
  // t=10: P (earlier seq) then A.  t=20: B precedes the re-armed P, whose
  // sequence number was drawn only after the t=10 occurrence finished.
  EXPECT_EQ(order, (std::vector<std::string>{"P", "A", "B", "P"}));
  EXPECT_TRUE(e.cancel(id));
}

TEST(Engine, CancelPeriodicFromOwnCallbackStopsRecurrence) {
  sim::Engine e;
  int count = 0;
  sim::EventId id;
  id = e.schedule_every(10, [&] {
    if (++count == 3) {
      EXPECT_TRUE(e.cancel(id));  // mid-fire cancel succeeds
    }
  });
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.cancel(id));  // already cancelled
}

TEST(Engine, CancelPeriodicBetweenFires) {
  sim::Engine e;
  int count = 0;
  auto id = e.schedule_every(10, [&] { ++count; });
  e.run_until(25);
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double-cancel reports failure
  e.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, PeriodicCallbackExceptionStopsRecurrence) {
  sim::Engine e;
  int count = 0;
  e.schedule_every(10, [&] {
    if (++count == 2) throw std::runtime_error("boom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.now(), 20);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, NestedRunInsidePeriodicCallbackDoesNotRefireIt) {
  sim::Engine e;
  std::vector<std::string> order;
  bool nested = false;
  auto id = e.schedule_every(10, [&] {
    order.push_back("P" + std::to_string(e.now()));
    if (!nested) {
      nested = true;
      e.run_until(15);  // runs the t=12 one-shot, not this timer again
      order.push_back("back" + std::to_string(e.now()));
    }
  });
  e.schedule_at(12, [&] { order.push_back("A12"); });
  e.run_until(30);
  // The fire that ran the nested run completes at t=15, so (as with a
  // trailing schedule_in) the next occurrence is one period later.
  EXPECT_EQ(order, (std::vector<std::string>{"P10", "A12", "back15", "P25"}));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(e.empty());
}

TEST(Engine, NestedRunPastTheNextFireReArmsOnePeriodAfterNow) {
  // The first fire runs the clock to 25, past its own next occurrence at
  // 20: the timer re-arms at 25 + 10, never in the simulated past.
  sim::Engine e;
  std::vector<sim::SimTime> fires;
  auto id = e.schedule_every(10, [&] {
    fires.push_back(e.now());
    if (fires.size() == 1) e.run_until(25);
  });
  e.run_until(50);
  EXPECT_EQ(fires, (std::vector<sim::SimTime>{10, 35, 45}));
  EXPECT_EQ(e.now(), 50);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ScheduleEverySpansWheelLevelsAndOverflow) {
  // Periods exercising different wheel levels: ~1 ms (level 0/1), 1 s
  // (level 1/2), 5 min (level 3), and 6 h (beyond the wheel horizon, parked
  // in the overflow bucket).  All must fire at exact multiples.
  sim::Engine e;
  const sim::SimDuration kMs = sim::from_millis(1.0);
  const sim::SimDuration kS = sim::from_seconds(1.0);
  std::vector<sim::SimTime> ms_times, s_times, min5_times, h6_times;
  auto ms_id = e.schedule_every(kMs, [&] { ms_times.push_back(e.now()); });
  auto s_id = e.schedule_every(kS, [&] { s_times.push_back(e.now()); });
  e.schedule_every(300 * kS, [&] { min5_times.push_back(e.now()); });
  e.schedule_every(6 * 3600 * kS, [&] { h6_times.push_back(e.now()); });
  e.run_until(sim::from_seconds(3.5));
  EXPECT_EQ(ms_times.size(), 3500u);
  EXPECT_EQ(ms_times.front(), kMs);
  EXPECT_EQ(ms_times.back(), 3500 * kMs);
  EXPECT_EQ(s_times, (std::vector<sim::SimTime>{kS, 2 * kS, 3 * kS}));
  EXPECT_TRUE(min5_times.empty());
  EXPECT_TRUE(e.cancel(ms_id));  // drop the fast timers before the long leap
  EXPECT_TRUE(e.cancel(s_id));
  e.run_until(sim::from_seconds(13.0 * 3600));
  EXPECT_EQ(min5_times.size(), 13u * 3600 / 300);
  EXPECT_EQ(min5_times.front(), 300 * kS);
  EXPECT_EQ(h6_times, (std::vector<sim::SimTime>{6 * 3600 * kS, 12 * 3600 * kS}));
}

TEST(Engine, SeqPerturbationSwapsTwoSameInstantEvents) {
  // The hook hands seq N+1 to the first of two events and N to the second.
  // Dispatch follows (t, seq), so the second runs first, for a zero-delay
  // pair as for a pair further ahead.
  for (const sim::SimDuration dt : {sim::SimDuration{0}, sim::SimDuration{5}}) {
    sim::Engine e;
    std::vector<int> order;
    e.schedule_at(1, [] {});  // seq 1
    e.run();
    e.set_seq_perturbation(2);
    e.schedule_in(dt, [&order] { order.push_back(1); });  // seq 3
    e.schedule_in(dt, [&order] { order.push_back(2); });  // seq 2
    e.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1})) << "dt " << dt;
  }
}

// --- generation wrap (white-box) ------------------------------------------

namespace pcd::sim {

struct EngineTestAccess {
  static std::uint32_t slot_gen(Engine& e, std::uint32_t slot) {
    return e.node(slot).gen;
  }
  static void force_slot_gen(Engine& e, std::uint32_t slot, std::uint32_t gen) {
    e.node(slot).gen = gen;
  }
  // Entries queued on each run lane (the now lane last), then on the stray
  // heap and on the timer heap; cancelled entries not yet skipped count.
  static std::array<std::size_t, 7> queue_sizes(const Engine& e) {
    std::array<std::size_t, 7> sizes{};
    for (std::size_t i = 0; i < e.runs_.size(); ++i) sizes[i] = e.runs_[i].count;
    sizes[5] = e.heap_.size();
    sizes[6] = e.timers_.size();
    return sizes;
  }
  // Entries the run lanes have room for, summed over all five.
  static std::size_t lane_capacity(const Engine& e) {
    std::size_t entries = 0;
    for (const auto& lane : e.runs_) entries += lane.capacity();
    return entries;
  }
};

}  // namespace pcd::sim

TEST(Engine, EventIdStaysSafeAcrossGenerationWrap) {
  sim::Engine e;
  // Age the slot so the pre-wrap id's generation is not 1 (the value the
  // wrap skips to), then drive the generation counter to the wrap point.
  e.schedule_at(1, [] {});
  e.run();
  auto id0 = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id0));  // frees the slot, bumps its generation
  sim::EngineTestAccess::force_slot_gen(e, id0.slot, 0xffffffffu);
  auto id1 = e.schedule_at(10, [] {});
  ASSERT_EQ(id1.slot, id0.slot);  // free list reuses the slot
  EXPECT_EQ(id1.gen, 0xffffffffu);
  EXPECT_TRUE(e.cancel(id1));  // generation wraps past 0 (reserved) to 1
  EXPECT_EQ(sim::EngineTestAccess::slot_gen(e, id0.slot), 1u);
  auto id2 = e.schedule_at(10, [] {});
  ASSERT_EQ(id2.slot, id0.slot);
  EXPECT_EQ(id2.gen, 1u);
  EXPECT_FALSE(e.cancel(id0));  // stale pre-wrap ids cannot touch the event
  EXPECT_FALSE(e.cancel(id1));
  EXPECT_TRUE(e.cancel(id2));
  e.run();
}

// --- callback storage -------------------------------------------------------
//
// A trivially copyable callable of at most Engine::kInlineBytes lives in the
// event node; anything else is boxed on the heap and the engine owns the
// box until the event fires, is cancelled, throws or the engine dies.
// Tracked counts its live copies, so a leaked or double-freed box shows
// (and the sanitizer build reports it).

namespace {

struct Tracked {
  int* live;
  int* calls;
  std::array<char, 24> pad{};  // 40 bytes: boxed by size as well

  Tracked(int* l, int* c) : live(l), calls(c) { ++*live; }
  Tracked(const Tracked& o) : live(o.live), calls(o.calls) { ++*live; }
  ~Tracked() { --*live; }
  Tracked& operator=(const Tracked&) = delete;
  void operator()() const { ++*calls; }
};

// A 16-byte trivially copyable callable, like perfbench's [this, c].
struct SmallInline {
  int* calls;
  std::int64_t step;
  void operator()() const { *calls += static_cast<int>(step); }
};

}  // namespace

TEST(EngineCallbackStorage, BoxedOneShotIsFreedOnFire) {
  int live = 0, calls = 0;
  sim::Engine e;
  e.schedule_at(10, Tracked(&live, &calls));
  EXPECT_EQ(live, 1);
  e.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(live, 0);
}

TEST(EngineCallbackStorage, BoxedOneShotIsFreedOnCancel) {
  int live = 0, calls = 0;
  sim::Engine e;
  auto id = e.schedule_at(10, Tracked(&live, &calls));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(live, 0);
  e.run();
  EXPECT_EQ(calls, 0);
}

TEST(EngineCallbackStorage, BoxedOneShotCancelledFromInsideIsFreedOnce) {
  int live = 0, calls = 0;
  sim::Engine e;
  sim::EventId id;
  Tracked t(&live, &calls);
  id = e.schedule_at(10, [&e, &id, t] {
    t();
    EXPECT_FALSE(e.cancel(id));  // a one-shot is retired before it runs
  });
  e.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(live, 1);  // only `t` itself
}

TEST(EngineCallbackStorage, BoxedOneShotIsFreedWhenItThrows) {
  int live = 0, calls = 0;
  sim::Engine e;
  Tracked t(&live, &calls);
  e.schedule_at(10, [t] {
    t();
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(e.empty());
}

TEST(EngineCallbackStorage, PendingBoxesAreFreedByTheEngine) {
  int live = 0, calls = 0;
  {
    sim::Engine e;
    e.schedule_at(10, Tracked(&live, &calls));
    e.schedule_every(5, Tracked(&live, &calls));
    e.schedule_every(5, Tracked(&live, &calls));
    e.run_until(7);  // the timers have fired once and re-armed
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(calls, 2);
}

TEST(EngineCallbackStorage, BoxedPeriodicKeepsOneBoxAcrossFires) {
  int live = 0, calls = 0;
  sim::Engine e;
  auto id = e.schedule_every(10, Tracked(&live, &calls));
  e.run_until(55);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(live, 0);
}

TEST(EngineCallbackStorage, BoxedPeriodicCancelledFromInsideIsFreedAfterItReturns) {
  int live = 0, calls = 0;
  sim::Engine e;
  sim::EventId id;
  Tracked t(&live, &calls);
  id = e.schedule_every(10, [&e, &id, &live, t] {
    t();
    if (*t.calls == 2) {
      EXPECT_TRUE(e.cancel(id));
      EXPECT_EQ(live, 2);  // still running: the box outlives the cancel
    }
  });
  e.run();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(e.empty());
}

TEST(EngineCallbackStorage, BoxedPeriodicIsFreedWhenItThrows) {
  int live = 0, calls = 0;
  sim::Engine e;
  Tracked t(&live, &calls);
  e.schedule_every(10, [t] {
    t();
    if (*t.calls == 3) throw std::runtime_error("boom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(e.empty());
}

TEST(EngineCallbackStorage, InlineOneShotsFireCancelAndThrow) {
  int calls = 0;
  sim::Engine e;
  e.schedule_at(10, SmallInline{&calls, 1});
  auto dropped = e.schedule_at(20, SmallInline{&calls, 100});
  EXPECT_TRUE(e.cancel(dropped));
  sim::EventId self;
  self = e.schedule_at(30, [&e, &self] { EXPECT_FALSE(e.cancel(self)); });
  e.schedule_at(40, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(e.now(), 40);
  EXPECT_TRUE(e.empty());
  e.schedule_at(50, SmallInline{&calls, 1000});  // pending at destruction
}

TEST(EngineCallbackStorage, InlinePeriodicTimersFireCancelAndThrow) {
  int calls = 0;
  sim::Engine e;
  auto every = e.schedule_every(7, SmallInline{&calls, 10});
  sim::EventId self;
  self = e.schedule_every(10, [&e, &self] {
    if (e.now() == 30) {
      EXPECT_TRUE(e.cancel(self));  // cancelled from inside
    }
  });
  e.run_until(15);
  EXPECT_EQ(calls, 2 * 10);
  EXPECT_TRUE(e.cancel(every));
  e.run_until(100);
  EXPECT_TRUE(e.empty());
  e.schedule_every(5, [&e] {
    if (e.now() == 110) throw std::runtime_error("boom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(e.now(), 110);
  EXPECT_TRUE(e.empty());
  e.schedule_every(5, SmallInline{&calls, 1000});  // pending at destruction
  e.run_until(112);
  EXPECT_EQ(calls, 2 * 10);
}

TEST(EngineCallbackStorage, ContinuationOneShotAndThisTimerAllocateNothing) {
  struct Ticker {
    sim::Engine& e;
    int ticks = 0;
    void tick() { ++ticks; }
  };
  static_assert(sizeof(sim::Continuation) == sim::Engine::kInlineBytes);
  sim::Engine e;
  Ticker ticker{e};
  int calls = 0;
  const sim::Continuation bump{[](void* c) { ++*static_cast<int*>(c); }, &calls};
  auto round = [&] {
    const sim::SimTime t0 = e.now();
    for (int i = 0; i < 100; ++i) e.schedule_in(i, bump);
    auto id = e.schedule_every(10, [t = &ticker] { t->tick(); });
    e.run_until(t0 + 1000);
    EXPECT_TRUE(e.cancel(id));
  };
  // Warm the node slab and the queues; a cancelled timer's entry waits in
  // the timer heap until it surfaces, so the heap needs room for two.
  round();
  round();
  const std::int64_t before = heap_allocs();
  round();
  EXPECT_EQ(heap_allocs() - before, 0);
  EXPECT_EQ(calls, 300);
  EXPECT_EQ(ticker.ticks, 300);
}

TEST(EngineCallbackStorage, OversizedCaptureAllocatesOneBox) {
  sim::Engine e;
  std::array<std::int64_t, 4> big{1, 2, 3, 4};  // 32 bytes: over the inline limit
  std::int64_t sum = 0;
  e.schedule_at(1, [] {});
  e.run();
  const std::int64_t before = heap_allocs();
  e.schedule_at(2, [big, &sum] { sum = big[0] + big[3]; });
  EXPECT_EQ(heap_allocs() - before, 1);
  e.run();
  EXPECT_EQ(sum, 5);
}

// --- pinned periodic/one-shot dispatch order -------------------------------
//
// Absolute dispatch streams recorded on the engine before periodic timers
// moved from a hierarchical wheel onto their own heap: the count and a hash
// of every dispatched (t, seq, site) must not move when the timer container
// changes.  Re-pin only on an intended change of event order.

namespace {

class DispatchHash final : public sim::EventObserver {
 public:
  explicit DispatchHash(sim::Engine& e) : engine_(e) {
    sim::Engine::DeterminismHooks hooks;
    hooks.event_digest = &digest_;
    hooks.observer = this;
    hooks.per_event = true;
    engine_.set_determinism(hooks);
  }
  ~DispatchHash() override { engine_.clear_determinism(); }

  void on_event(const sim::EventProvenance& p) override {
    hash_.fold((static_cast<std::uint64_t>(p.t) * 0x9e3779b97f4a7c15ULL) ^
               (p.seq * 0xff51afd7ed558ccdULL) ^ sim::digest_cstr(p.site));
  }
  void on_checkpoint(std::uint64_t) override {}

  std::uint64_t count() const { return hash_.count; }
  std::uint64_t hash() const { return hash_.hash; }

 private:
  sim::Engine& engine_;
  sim::DigestStream digest_;
  sim::DigestStream hash_;
};

}  // namespace

TEST(EnginePinned, MixedPeriodsOneShotsCancelsAndAThrow) {
  sim::Engine e;
  DispatchHash h(e);
  const sim::SimDuration kMs = sim::from_millis(1.0);
  const sim::SimDuration kS = sim::from_seconds(1.0);
  int ms_fires = 0, quarter_fires = 0, boom_fires = 0;
  // 1 ms, 1 s, 5 min and 6 h (past the old wheel's ~4.9 h horizon).
  sim::EventId ms_id = e.schedule_every(kMs, [&] {
    // Every 500th fire drops a one-shot on the same instant and one on the
    // instant of the next fire, so ties with the re-arm are exercised.
    if (++ms_fires % 500 == 0) {
      e.schedule_in(0, [] {}, "o.same");
      e.schedule_in(kMs, [] {}, "o.next");
    }
  }, "p.ms");
  sim::EventId s_id = e.schedule_every(kS, [&] {
    e.schedule_in(kS, [] {}, "o.on_s");  // lands beside the next 1 s fire
  }, "p.s");
  e.schedule_every(300 * kS, [&] { e.schedule_in(0, [] {}, "o.min5"); }, "p.min5");
  e.schedule_every(kS / 2, 6 * 3600 * kS, [] {}, "p.h6");
  // Same-instant one-shots scheduled before and after the timers' fires.
  for (int i = 1; i <= 4; ++i) {
    e.schedule_at(i * kS, [] {}, "o.tie");
    e.schedule_at(i * kS + kMs, [] {}, "o.tie_ms");
  }
  // Cancelled from inside its own callback at its 5th fire.
  sim::EventId quarter_id;
  quarter_id = e.schedule_every(kS / 4, [&] {
    if (++quarter_fires == 5) {
      EXPECT_TRUE(e.cancel(quarter_id));
    }
  }, "p.quarter");
  // Cancels a sibling timer from inside its callback, then itself.
  sim::EventId victim_id = e.schedule_every(3 * kMs, [] {}, "p.victim");
  sim::EventId killer_id;
  killer_id = e.schedule_every(10 * kMs, 40 * kMs, [&] {
    if (e.cancel(victim_id)) return;
    EXPECT_TRUE(e.cancel(killer_id));
  }, "p.killer");
  // A timer whose 2nd fire throws: the recurrence stops there.
  e.schedule_every(7 * kS, [&] {
    if (++boom_fires == 2) throw std::runtime_error("boom");
  }, "p.boom");

  e.run_until(sim::from_seconds(3.5));
  // Cancelled between fires, then a fresh timer takes the freed slot.
  EXPECT_TRUE(e.cancel(ms_id));
  EXPECT_FALSE(e.cancel(ms_id));
  const sim::EventId reuse_id = e.schedule_every(kMs / 2, 2 * kMs, [] {}, "p.reuse");
  e.run_until(sim::from_seconds(5.0));
  EXPECT_TRUE(e.cancel(s_id));
  EXPECT_THROW(e.run_until(sim::from_seconds(20.0)), std::runtime_error);
  EXPECT_EQ(e.now(), 14 * kS);
  EXPECT_EQ(boom_fires, 2);
  e.run_until(sim::from_seconds(20.0));
  EXPECT_TRUE(e.cancel(reuse_id));
  e.schedule_every(kS, [] {}, "p.late");
  e.run_until(sim::from_seconds(30.0));
  e.run_until(sim::from_seconds(13.0 * 3600));

  EXPECT_EQ(ms_fires, 3500);
  EXPECT_EQ(quarter_fires, 5);
  EXPECT_EQ(h.count(), 58888u);
  EXPECT_EQ(h.hash(), 0x8565be9ff57e7cbdULL);
}

TEST(EnginePinned, ManyTimersWithChurn) {
  // 64 timers at pseudo-random microsecond periods in a 1-10 ms band, while
  // a one-shot stream cancels a random timer every 1.7 ms and arms a
  // replacement at a new period whose callback sometimes spawns a
  // same-instant one-shot.
  sim::Engine e;
  DispatchHash h(e);
  const sim::SimDuration kUs = sim::from_micros(1.0);
  static const char* const kSites[4] = {"t.a", "t.b", "t.c", "t.d"};
  std::vector<sim::EventId> ids;
  sim::Rng rng(7);
  const auto period = [&] {
    return static_cast<sim::SimDuration>(1000 + rng.next_u64() % 9000) * kUs;
  };
  for (int i = 0; i < 64; ++i) {
    const sim::SimDuration p = period();
    ids.push_back(e.schedule_every(p / 3, p, [] {}, kSites[i % 4]));
  }
  int churns = 0;
  std::function<void()> churn = [&] {
    const std::size_t k = rng.next_u64() % ids.size();
    EXPECT_TRUE(e.cancel(ids[k]));
    const sim::SimDuration p = period();
    ids[k] = e.schedule_every(p, [&] {
      if (rng.next_u64() % 16 == 0) e.schedule_in(0, [] {}, "o.spawn");
    }, kSites[k % 4]);
    if (++churns < 2000) e.schedule_in(1700 * kUs, [&] { churn(); }, "o.churn");
  };
  e.schedule_in(1700 * kUs, [&] { churn(); }, "o.churn");
  e.run_until(sim::from_seconds(4.0));
  for (const sim::EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(churns, 2000);
  EXPECT_EQ(h.count(), 69471u);
  EXPECT_EQ(h.hash(), 0xcef71efe0febd8a9ULL);
}

// The cases below were recorded on the engine before zero-delay events got
// their own run lane and the lanes became rings; they pin the placement
// paths that change introduced.

TEST(EnginePinned, ZeroDelayFansBesideSameInstantFutureEvents) {
  // A wave every 10 us fans out zero-delay events, some of which fan again,
  // while future events pile up on shared instants — the next wave's, 3 us
  // ahead, and a periodic fan's — so zero-delay events tie with lane
  // fronts, heap strays and a timer at one instant.
  sim::Engine e;
  DispatchHash h(e);
  const sim::SimDuration kUs = sim::from_micros(1.0);
  sim::Rng rng(11);
  static const char* const kFanSites[3] = {"z.fan0", "z.fan1", "z.fan2"};
  std::function<void(int)> fan = [&](int depth) {
    const int width = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int k = 0; k < width; ++k) {
      if (depth < 2 && rng.next_u64() % 3 == 0) {
        e.schedule_in(0, [&fan, depth] { fan(depth + 1); }, kFanSites[depth]);
      } else {
        e.schedule_in(0, [] {}, "z.leaf");
      }
      if (rng.next_u64() % 2 == 0) e.schedule_in(3 * kUs, [] {}, "f.plus3");
      if (rng.next_u64() % 5 == 0) {
        e.schedule_in(static_cast<sim::SimDuration>(rng.next_u64() % 40) * kUs, [] {},
                      "f.rand");
      }
    }
  };
  int waves = 0;
  std::function<void()> wave = [&] {
    fan(0);
    e.schedule_in(10 * kUs, [] {}, "f.on_wave");  // ties with the next wave
    if (++waves < 3000) e.schedule_in(10 * kUs, [&] { wave(); }, "w.wave");
  };
  e.schedule_at(0, [&] { wave(); }, "w.wave");
  const sim::EventId timer = e.schedule_every(5 * kUs, 10 * kUs, [&] { fan(1); }, "p.fan");
  e.run_until(sim::from_micros(20000.0));
  EXPECT_TRUE(e.cancel(timer));
  e.run();
  EXPECT_EQ(waves, 3000);
  EXPECT_EQ(h.count(), 55505u);
  EXPECT_EQ(h.hash(), 0x69715372a2ecb6fdULL);
}

TEST(EnginePinned, ZeroDelayEventsFromNestedRunUntil) {
  // Each outer event fans zero-delay children, then runs a nested run_until:
  // to its own instant (the fan only), 5 us ahead, or 5 us ahead but
  // stopped right after the first children, which leaves zero-delay events
  // queued for the outer run at the instant the clock stopped at.
  sim::Engine e;
  DispatchHash h(e);
  const sim::SimDuration kUs = sim::from_micros(1.0);
  sim::Rng rng(5);
  int rounds = 0;
  std::function<void()> outer = [&] {
    const int r = rounds++;
    for (int k = 0; k < 3; ++k) {
      e.schedule_in(0, [&] {
        e.schedule_in(0, [] {}, "n.grand");
        e.schedule_in(2 * kUs, [] {}, "n.later");
      }, "n.child");
    }
    e.schedule_in(5 * kUs, [] {}, "n.at5");
    switch (r % 3) {
      case 0:
        e.run_until(e.now());
        break;
      case 1:
        e.run_until(e.now() + 5 * kUs);
        break;
      default:
        e.schedule_in(0, [&e] { e.stop(); }, "n.stop");
        e.run_until(e.now() + 5 * kUs);
        break;
    }
    e.schedule_in(0, [] {}, "n.after");
    if (rounds < 2000) {
      const auto gap = static_cast<sim::SimDuration>(7 + rng.next_u64() % 3) * kUs;
      e.schedule_in(gap, [&] { outer(); }, "n.outer");
    }
  };
  e.schedule_at(0, [&] { outer(); }, "n.outer");
  e.run();
  EXPECT_EQ(rounds, 2000);
  EXPECT_EQ(h.count(), 24666u);
  EXPECT_EQ(h.hash(), 0x7855ca0cf769d7c6ULL);
}

TEST(EnginePinned, LaneRingWrapsAndGrowsBehindCancelledFront) {
  // A monotone stream keeps a dozen entries queued on one lane while
  // thousands pass through it, so the lane's ring wraps again and again.
  // Every 50th event cancels the next three queued stream events — the
  // lane's front — and appends a burst behind them, and queues zero-delay
  // events, cancels the first few and queues more behind them.  A few
  // bursts are large enough to grow the rings while they are wrapped.
  sim::Engine e;
  DispatchHash h(e);
  std::deque<sim::EventId> pending;  // queued stream events, earliest first
  sim::SimTime last = 0;
  int fired = 0;
  std::function<void()> tick;
  const auto push = [&](sim::SimDuration gap, const char* site) {
    last += gap;
    pending.push_back(e.schedule_at(last, [&tick] { tick(); }, site));
  };
  tick = [&] {
    pending.pop_front();
    if (++fired >= 20000) return;
    if (fired % 50 == 0) {
      for (int k = 0; k < 3 && !pending.empty(); ++k) {
        EXPECT_TRUE(e.cancel(pending.front()));
        pending.pop_front();
      }
      const int burst = fired % 5000 == 0 ? 40 * (fired / 5000) * 8 : 40;
      for (int k = 0; k < burst; ++k) push(1 + k % 3, "r.burst");
      std::vector<sim::EventId> zero;
      for (int k = 0; k < 20; ++k) zero.push_back(e.schedule_in(0, [] {}, "r.zero"));
      for (int k = 0; k < 5; ++k) EXPECT_TRUE(e.cancel(zero[static_cast<std::size_t>(k)]));
      for (int k = 0; k < burst; ++k) e.schedule_in(0, [] {}, "r.zero_more");
    }
    while (pending.size() < 12) push(7, "r.stream");
  };
  push(1, "r.stream");
  e.run();
  EXPECT_TRUE(pending.empty());
  EXPECT_GE(fired, 20000);
  EXPECT_EQ(h.count(), 43756u);
  EXPECT_EQ(h.hash(), 0x186d037f427399bcULL);
}

TEST(EnginePinned, NextEventTimeAcrossAllLanesAndHeaps) {
  // Seeds every container — the now lane, four horizon bands, the stray
  // heap and the timer heap — cancels the earliest entry of several, and
  // then steps one event at a time while each event schedules a random mix
  // of zero-delay, banded and stray events and cancels an older one;
  // next_event_time() must name the instant of the event the step runs.
  sim::Engine e;
  DispatchHash h(e);
  sim::Rng rng(3);
  std::vector<sim::EventId> ids;
  std::function<void()> churn = [&] {
    switch (rng.next_u64() % 5) {
      case 0:
        ids.push_back(e.schedule_in(0, [&] { churn(); }, "q.now"));
        break;
      case 1:
        ids.push_back(e.schedule_in(100, [&] { churn(); }, "q.band100"));
        break;
      case 2:
        ids.push_back(e.schedule_in(37, [&] { churn(); }, "q.band37"));
        break;
      default:
        ids.push_back(e.schedule_in(static_cast<sim::SimDuration>(rng.next_u64() % 150),
                                    [&] { churn(); }, "q.stray"));
        break;
    }
    if (rng.next_u64() % 3 == 0) {
      ids.push_back(e.schedule_in(static_cast<sim::SimDuration>(rng.next_u64() % 60),
                                  [&] { churn(); }, "q.extra"));
    }
    if (ids.size() > 8 && rng.next_u64() % 4 == 0) {
      e.cancel(ids[static_cast<std::size_t>(rng.next_u64() % ids.size())]);
    }
  };
  std::vector<sim::EventId> now_ids;
  for (int k = 0; k < 3; ++k) now_ids.push_back(e.schedule_at(0, [&] { churn(); }, "q.now"));
  e.schedule_at(100, [&] { churn(); }, "q.a");
  e.schedule_at(200, [&] { churn(); }, "q.a");
  e.schedule_at(50, [&] { churn(); }, "q.b");
  e.schedule_at(60, [&] { churn(); }, "q.b");
  e.schedule_at(20, [&] { churn(); }, "q.c");
  const sim::EventId band_front = e.schedule_at(10, [&] { churn(); }, "q.d");
  e.schedule_at(12, [&] { churn(); }, "q.d");
  const sim::EventId heap_top = e.schedule_at(5, [&] { churn(); }, "q.heap");
  e.schedule_at(7, [&] { churn(); }, "q.heap");
  const sim::EventId timer = e.schedule_every(3, 41, [&] { churn(); }, "q.timer");
  for (const std::size_t queued : sim::EngineTestAccess::queue_sizes(e)) {
    EXPECT_GT(queued, 0u);
  }
  EXPECT_EQ(e.next_event_time(), 0);
  EXPECT_TRUE(e.cancel(now_ids[0]));
  EXPECT_TRUE(e.cancel(heap_top));
  EXPECT_TRUE(e.cancel(band_front));
  EXPECT_EQ(e.next_event_time(), 0);
  EXPECT_TRUE(e.cancel(now_ids[1]));
  EXPECT_TRUE(e.cancel(now_ids[2]));
  EXPECT_EQ(e.next_event_time(), 3);  // the timer, ahead of the strays at 7
  int steps = 0;
  while (const std::optional<sim::SimTime> t = e.next_event_time()) {
    if (++steps > 30000) break;
    ASSERT_EQ(e.run(1), 1u);
    ASSERT_EQ(e.now(), *t);
    if (steps == 15000) {
      EXPECT_TRUE(e.cancel(timer));
    }
  }
  EXPECT_EQ(steps, 30001);
  EXPECT_EQ(h.count(), 30000u);
  EXPECT_EQ(h.hash(), 0xf1dc0d55e62c8c7eULL);
}

// --- run-lane footprint ------------------------------------------------------

TEST(EngineFootprint, LaneRingsFollowTheBacklogNotTheTraffic) {
  // 1M events through 4,096 self-rescheduling chains in four horizon bands,
  // about 1,024 queued per band.  A lane holds only its queued entries, so
  // the rings together stay within twice the backlog's power-of-two
  // round-up.  Lanes that kept their consumed prefix until a compaction
  // held thousands of fired entries each.
  struct Chain {
    sim::Engine* e;
    sim::SimDuration delay;
    void operator()() const { e->schedule_in(delay, *this, "c.chain"); }
  };
  static_assert(sizeof(Chain) <= sim::Engine::kInlineBytes);
  constexpr std::array<sim::SimDuration, 4> kDelays = {4096, 8193, 12291, 16391};
  sim::Engine e;
  for (int i = 0; i < 4096; ++i) e.schedule_at(i, Chain{&e, kDelays[i % 4]}, "c.chain");
  EXPECT_EQ(e.run(1'000'000), 1'000'000u);
  EXPECT_EQ(e.pending_events(), 4096u);
  EXPECT_LE(sim::EngineTestAccess::lane_capacity(e), 2u * 8192u);
}

// --- Coroutine processes -------------------------------------------------

namespace {

sim::Process push_after(sim::Engine& e, std::vector<int>& out, sim::SimDuration dt,
                        int value) {
  (void)e;
  co_await sim::delay(dt);
  out.push_back(value);
}

sim::Process nested_child(std::vector<std::string>& log) {
  log.push_back("child-start");
  co_await sim::delay(10);
  log.push_back("child-end");
}

sim::Process nested_parent(sim::Engine& e, std::vector<std::string>& log) {
  log.push_back("parent-start");
  auto child = sim::spawn(e, nested_child(log));
  co_await sim::delay(5);
  log.push_back("parent-mid");
  co_await child;
  log.push_back("parent-end");
}

sim::Process throws_after(sim::SimDuration dt) {
  co_await sim::delay(dt);
  throw std::runtime_error("boom");
}

sim::Process joins_thrower(sim::Engine& e, bool& caught) {
  auto t = sim::spawn(e, throws_after(5));
  try {
    co_await t;
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

}  // namespace

TEST(Process, DelaySuspendsForExactDuration) {
  sim::Engine e;
  std::vector<int> out;
  sim::spawn(e, push_after(e, out, 100, 1));
  sim::spawn(e, push_after(e, out, 50, 2));
  e.run();
  EXPECT_EQ(out, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.now(), 100);
}

TEST(Process, ZeroDelayDoesNotSuspend) {
  sim::Engine e;
  std::vector<int> out;
  sim::spawn(e, push_after(e, out, 0, 7));
  e.run();
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(Process, JoinWaitsForChild) {
  sim::Engine e;
  std::vector<std::string> log;
  auto p = sim::spawn(e, nested_parent(e, log));
  e.run();
  EXPECT_TRUE(p.done());
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0], "parent-start");
  EXPECT_EQ(log[1], "child-start");
  EXPECT_EQ(log[2], "parent-mid");
  EXPECT_EQ(log[3], "child-end");
  EXPECT_EQ(log[4], "parent-end");
  EXPECT_EQ(e.now(), 10);
}

TEST(Process, JoinOnCompletedProcessDoesNotSuspend) {
  sim::Engine e;
  std::vector<int> out;
  auto p = sim::spawn(e, push_after(e, out, 1, 1));
  e.run();
  ASSERT_TRUE(p.done());
  bool resumed = false;
  auto joiner = [](sim::Process& target, bool& flag) -> sim::Process {
    co_await target;
    flag = true;
  };
  sim::spawn(e, joiner(p, resumed));
  e.run();
  EXPECT_TRUE(resumed);
}

TEST(Process, OrphanExceptionSurfacesFromRun) {
  sim::Engine e;
  sim::spawn(e, throws_after(5));
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Process, JoinedExceptionIsDeliveredToJoinerOnly) {
  sim::Engine e;
  bool caught = false;
  sim::spawn(e, joins_thrower(e, caught));
  EXPECT_NO_THROW(e.run());
  EXPECT_TRUE(caught);
}

TEST(Process, UnstartedProcessDoesNotLeak) {
  // Destroying a never-spawned Process must free the frame (checked by ASAN
  // builds; here we just exercise the path).
  std::vector<int> out;
  sim::Engine e;
  { auto p = push_after(e, out, 5, 1); EXPECT_FALSE(p.started()); }
  e.run();
  EXPECT_TRUE(out.empty());
}

TEST(Process, BlockedProcessesAreDestroyedWithEngine) {
  // A process blocked on an event that never fires must be reclaimed by
  // ~Engine without touching freed memory.
  auto ev_holder = std::make_unique<sim::Engine>();
  auto& e = *ev_holder;
  auto forever = [](sim::Engine& eng) -> sim::Process {
    sim::Event never(eng);
    co_await never.wait();
  };
  auto p = sim::spawn(e, forever(e));
  e.run();
  EXPECT_FALSE(p.done());
  ev_holder.reset();  // must not crash or leak
}

// --- Event ----------------------------------------------------------------

namespace {

sim::Process wait_event(sim::Event& ev, std::vector<int>& out, int tag) {
  co_await ev.wait();
  out.push_back(tag);
}

}  // namespace

TEST(Event, SetWakesAllWaiters) {
  sim::Engine e;
  sim::Event ev(e);
  std::vector<int> out;
  sim::spawn(e, wait_event(ev, out, 1));
  sim::spawn(e, wait_event(ev, out, 2));
  e.schedule_at(100, [&] { ev.set(); });
  e.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 100);
}

TEST(Event, WaitOnSignaledEventDoesNotSuspend) {
  sim::Engine e;
  sim::Event ev(e);
  ev.set();
  std::vector<int> out;
  sim::spawn(e, wait_event(ev, out, 9));
  e.run();
  EXPECT_EQ(out, (std::vector<int>{9}));
}

TEST(Event, ResetReArms) {
  sim::Engine e;
  sim::Event ev(e);
  ev.set();
  EXPECT_TRUE(ev.signaled());
  ev.reset();
  EXPECT_FALSE(ev.signaled());
  std::vector<int> out;
  sim::spawn(e, wait_event(ev, out, 1));
  e.run();
  EXPECT_TRUE(out.empty());
  ev.set();
  e.run();
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(Event, DoubleSetIsIdempotent) {
  sim::Engine e;
  sim::Event ev(e);
  std::vector<int> out;
  sim::spawn(e, wait_event(ev, out, 1));
  e.schedule_at(1, [&] { ev.set(); ev.set(); });
  e.run();
  EXPECT_EQ(out.size(), 1u);
}

TEST(Event, ManyWaitersWakeFifoAndEventIsReusableAfterReset) {
  sim::Engine e;
  sim::Event ev(e);
  std::vector<int> out;
  for (int tag = 1; tag <= 4; ++tag) sim::spawn(e, wait_event(ev, out, tag));
  e.run();
  EXPECT_EQ(ev.waiter_count(), 4u);  // one inline slot + three overflow
  ev.set();
  EXPECT_EQ(ev.waiter_count(), 0u);
  e.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));

  ev.reset();
  out.clear();
  for (int tag = 5; tag <= 7; ++tag) sim::spawn(e, wait_event(ev, out, tag));
  e.run();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ev.waiter_count(), 3u);
  e.schedule_in(10, [&] { ev.set(); });
  e.run();
  EXPECT_EQ(out, (std::vector<int>{5, 6, 7}));
}

TEST(Event, FitsIn32Bytes) {
  EXPECT_LE(sizeof(sim::Event), 32u);
}

// --- Fifo -----------------------------------------------------------------

TEST(Fifo, PopsInPushOrder) {
  sim::Fifo<int> f;
  for (int i = 0; i < 5; ++i) f.push_back(i);
  EXPECT_EQ(f.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(f.pop_front(), i);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, NoStorageBeforeFirstPush) {
  sim::Fifo<int> f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.capacity(), 0u);
  f.push_back(7);
  EXPECT_GT(f.capacity(), 0u);
}

TEST(Fifo, DrainThenRefillReusesTheBuffer) {
  sim::Fifo<int> f;
  for (int i = 0; i < 8; ++i) f.push_back(i);
  const std::size_t cap = f.capacity();
  while (!f.empty()) f.pop_front();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) f.push_back(100 * round + i);
    for (int i = 0; i < 8; ++i) ASSERT_EQ(f.pop_front(), 100 * round + i);
  }
  EXPECT_EQ(f.capacity(), cap);
}

TEST(Fifo, NeverEmptyQueueStaysBounded) {
  // Interleaved push/pop with 3 items always live: the consumed prefix must
  // be compacted away instead of growing the buffer without bound.
  sim::Fifo<int> f;
  f.push_back(0);
  f.push_back(1);
  f.push_back(2);
  int next_in = 3, next_out = 0;
  for (int i = 0; i < 100000; ++i) {
    f.push_back(next_in++);
    ASSERT_EQ(f.pop_front(), next_out++);
    ASSERT_EQ(f.size(), 3u);
  }
  EXPECT_LE(f.capacity(), 16u);
}

// --- Frame pool -------------------------------------------------------------

TEST(FramePool, SizeClassesAre16Bytes) {
  namespace fp = sim::framepool_detail;
  EXPECT_EQ(fp::bucket_index(1), 0u);
  EXPECT_EQ(fp::bucket_index(16), 0u);
  EXPECT_EQ(fp::bucket_index(17), 1u);
  EXPECT_EQ(fp::bucket_index(72), 4u);
  EXPECT_EQ(fp::bucket_index(fp::kMaxPooled), fp::kBuckets - 1);
}

TEST(FramePool, RoundsUpWithinAClass) {
#ifdef PCD_FRAME_POOL_DISABLED
  GTEST_SKIP() << "frame pool is compiled out under AddressSanitizer";
#else
  void* p = sim::pool_alloc(17);
  sim::pool_free(p, 17);
  void* same = sim::pool_alloc(32);  // 17..32 share one class
  EXPECT_EQ(same, p);
  sim::pool_free(same, 32);
  void* other = sim::pool_alloc(33);  // next class up
  EXPECT_NE(other, p);
  EXPECT_EQ(sim::pool_alloc(20), p);
  sim::pool_free(other, 33);
  sim::pool_free(p, 20);
#endif
}

TEST(FramePool, ReusesBlocksLifoWithinAClass) {
#ifdef PCD_FRAME_POOL_DISABLED
  GTEST_SKIP() << "frame pool is compiled out under AddressSanitizer";
#else
  void* a = sim::pool_alloc(72);
  void* b = sim::pool_alloc(72);
  ASSERT_NE(a, b);
  sim::pool_free(a, 72);
  sim::pool_free(b, 72);
  EXPECT_EQ(sim::pool_alloc(72), b);
  EXPECT_EQ(sim::pool_alloc(72), a);
  sim::pool_free(a, 72);
  sim::pool_free(b, 72);
#endif
}

TEST(FramePool, LargeRequestsBypassThePool) {
#ifdef PCD_FRAME_POOL_DISABLED
  GTEST_SKIP() << "frame pool is compiled out under AddressSanitizer";
#else
  namespace fp = sim::framepool_detail;
  fp::Pool* pool = fp::tls_pool();
  ASSERT_NE(pool, nullptr);
  std::array<void*, fp::kBuckets> before;
  std::copy(std::begin(pool->heads), std::end(pool->heads), before.begin());
  void* big = sim::pool_alloc(fp::kMaxPooled + 1);
  sim::pool_free(big, fp::kMaxPooled + 1);
  for (std::size_t b = 0; b < fp::kBuckets; ++b) EXPECT_EQ(pool->heads[b], before[b]);
#endif
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds) {
  sim::Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  sim::Rng r(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = r.uniform();
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformRange) {
  sim::Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double x = r.uniform(20.0, 30.0);
    ASSERT_GE(x, 20.0);
    ASSERT_LT(x, 30.0);
  }
}

TEST(Rng, UniformIntBounds) {
  sim::Rng r(11);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  for (int count : histogram) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Rng, SplitStreamsAreIndependent) {
  sim::Rng parent(99);
  sim::Rng child1 = parent.split();
  sim::Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child1.next_u64() == child2.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BernoulliProbability) {
  sim::Rng r(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}
