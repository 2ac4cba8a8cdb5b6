// Unit tests for the discrete-event engine and coroutine process layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
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

// --- generation wrap (white-box) ------------------------------------------

namespace pcd::sim {

struct EngineTestAccess {
  static std::uint32_t slot_gen(Engine& e, std::uint32_t slot) {
    return e.node(slot).gen;
  }
  static void force_slot_gen(Engine& e, std::uint32_t slot, std::uint32_t gen) {
    e.node(slot).gen = gen;
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

// --- InlineFunction --------------------------------------------------------

TEST(InlineFunction, AcceptsMoveOnlyCallables) {
  auto p = std::make_unique<int>(7);
  sim::InlineFunction<int()> f = [q = std::move(p)] { return *q; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 7);
  auto g = std::move(f);
  EXPECT_EQ(g(), 7);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
}

TEST(InlineFunction, HeapFallbackForOversizedCaptures) {
  std::array<std::int64_t, 16> big{};  // 128 bytes: exceeds the inline buffer
  big[15] = 42;
  sim::InlineFunction<std::int64_t()> f = [big] { return big[15]; };
  EXPECT_EQ(f(), 42);
  auto g = std::move(f);  // heap target: ownership transfer, no copy
  EXPECT_EQ(g(), 42);
  g.reset();
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, MoveAssignReplacesTarget) {
  int a = 0, b = 0;
  sim::InlineFunction<void()> f = [&a] { ++a; };
  sim::InlineFunction<void()> g = [&b] { ++b; };
  f();
  f = std::move(g);
  f();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
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
