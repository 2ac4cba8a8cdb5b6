// Tests for the lazy Op coroutine type used by the MPI layer.  An Op
// returns no value, so results come back through an out-parameter.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/op.hpp"
#include "sim/process.hpp"

namespace sim = pcd::sim;

namespace {

sim::Op answer(int* out) {
  *out = 42;
  co_return;
}

sim::Op delayed_value(int v, sim::SimDuration dt, int* out) {
  co_await sim::delay(dt);
  *out = v;
}

sim::Op throws_inside() {
  co_await sim::delay(1);
  throw std::runtime_error("op failed");
}

sim::Op sums(int n, int* out) {
  int total = 0;
  for (int i = 1; i <= n; ++i) {
    int v = 0;
    co_await delayed_value(i, 10, &v);  // nested Op
    total += v;
  }
  *out = total;
}

}  // namespace

TEST(Op, ReturnsValueToAwaiter) {
  sim::Engine e;
  int got = 0;
  auto proc = [&]() -> sim::Process { co_await answer(&got); };
  sim::spawn(e, proc());
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Op, LazyUntilAwaited) {
  sim::Engine e;
  bool started = false;
  auto op = [&]() -> sim::Op {
    started = true;
    co_return;
  };
  {
    auto pending = op();  // constructed but never awaited
    EXPECT_FALSE(started);
    EXPECT_FALSE(pending.done());
  }  // destroying an unstarted Op must not leak or run it
  EXPECT_FALSE(started);
}

TEST(Op, SuspendsAcrossSimTime) {
  sim::Engine e;
  int got = 0;
  auto proc = [&]() -> sim::Process { co_await delayed_value(7, sim::kSecond, &got); };
  sim::spawn(e, proc());
  e.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(e.now(), sim::kSecond);
}

TEST(Op, NestedOpsPropagateEngine) {
  sim::Engine e;
  int got = 0;
  auto proc = [&]() -> sim::Process { co_await sums(4, &got); };
  sim::spawn(e, proc());
  e.run();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(e.now(), 40);  // 4 nested delays of 10 ns
}

TEST(Op, ExceptionPropagatesToAwaiter) {
  sim::Engine e;
  bool caught = false;
  auto proc = [&]() -> sim::Process {
    try {
      co_await throws_inside();
    } catch (const std::runtime_error& ex) {
      caught = std::string(ex.what()) == "op failed";
    }
  };
  sim::spawn(e, proc());
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Op, UncaughtExceptionSurfacesThroughProcess) {
  sim::Engine e;
  auto proc = []() -> sim::Process { co_await throws_inside(); };
  sim::spawn(e, proc());
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Op, SequentialAwaitsShareTimeline) {
  sim::Engine e;
  std::vector<int> order;
  auto proc = [&]() -> sim::Process {
    int v = 0;
    co_await delayed_value(1, 100, &v);
    order.push_back(v);
    co_await delayed_value(2, 100, &v);
    order.push_back(v);
  };
  sim::spawn(e, proc());
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 200);
}

TEST(Op, MoveOnlySemantics) {
  static_assert(!std::is_copy_constructible_v<sim::Op>);
  static_assert(std::is_move_constructible_v<sim::Op>);
  static_assert(!std::is_copy_assignable_v<sim::Op>);
}

TEST(Op, VoidSpecialization) {
  sim::Engine e;
  bool ran = false;
  auto op = [&]() -> sim::Op {
    co_await sim::delay(5);
    ran = true;
  };
  auto proc = [&]() -> sim::Process { co_await op(); };
  sim::spawn(e, proc());
  e.run();
  EXPECT_TRUE(ran);
}
