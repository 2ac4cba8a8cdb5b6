// Unit tests for the MPE-style tracer and profile analysis.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/engine.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace sim = pcd::sim;
using pcd::trace::Cat;
using pcd::trace::Tracer;

TEST(Tracer, RecordsScopeDurations) {
  sim::Engine e;
  Tracer t(e, 2);
  e.schedule_at(0, [&] {
    auto s = t.scope(0, Cat::Compute, "loop");
    e.schedule_at(100, [sc = std::make_shared<Tracer::Scope>(std::move(s))] {});
  });
  e.run();
  ASSERT_EQ(t.records(0).size(), 1u);
  EXPECT_EQ(t.records(0)[0].begin, 0);
  EXPECT_EQ(t.records(0)[0].end, 100);
  EXPECT_EQ(t.records(0)[0].cat, Cat::Compute);
}

TEST(Tracer, NestedCommScopesAreSuppressed) {
  sim::Engine e;
  Tracer t(e, 1);
  {
    auto outer = t.scope(0, Cat::Collective, "alltoall");
    {
      auto inner = t.scope(0, Cat::Send, "p2p");  // suppressed
      auto inner2 = t.scope(0, Cat::Wait, "wait");  // suppressed
    }
  }
  ASSERT_EQ(t.records(0).size(), 1u);
  EXPECT_EQ(t.records(0)[0].cat, Cat::Collective);
}

TEST(Tracer, ComputeInsideCommIsStillRecorded) {
  sim::Engine e;
  Tracer t(e, 1);
  {
    auto outer = t.scope(0, Cat::Wait, "wait");
    auto inner = t.scope(0, Cat::Compute, "overlap");  // not a comm category
  }
  EXPECT_EQ(t.records(0).size(), 2u);
}

TEST(Tracer, CommDepthResetsAfterScopeEnds) {
  sim::Engine e;
  Tracer t(e, 1);
  { auto a = t.scope(0, Cat::Send, "a"); }
  { auto b = t.scope(0, Cat::Recv, "b"); }  // must not be suppressed
  EXPECT_EQ(t.records(0).size(), 2u);
}

TEST(Tracer, MovedFromScopeIsInert) {
  // Regression: the move constructor must reset the source's active_ /
  // counted_comm_ flags along with its tracer pointer — a stale flag would
  // double-decrement comm_depth_ or double-record when the moved-from scope
  // is destroyed.
  sim::Engine e;
  Tracer t(e, 1);
  {
    auto a = t.scope(0, Cat::Send, "outer");
    {
      Tracer::Scope b(std::move(a));
      // While the moved-to scope is alive, nested comm is still suppressed.
      { auto inner = t.scope(0, Cat::Recv, "inner"); }
      ASSERT_EQ(t.records(0).size(), 0u);
    }  // b closes: records "outer", comm depth back to 0
    ASSERT_EQ(t.records(0).size(), 1u);
  }  // a (moved-from) destroyed: must not record or touch comm depth
  ASSERT_EQ(t.records(0).size(), 1u);
  EXPECT_STREQ(t.records(0)[0].label, "outer");
  // Comm depth balanced: a fresh comm scope records normally.
  { auto c = t.scope(0, Cat::Send, "after"); }
  ASSERT_EQ(t.records(0).size(), 2u);
  EXPECT_STREQ(t.records(0)[1].label, "after");
}

TEST(Tracer, MovedFromScopeOutlivesTarget) {
  // Same bookkeeping, destruction order reversed: the moved-from object
  // outlives the moved-to one.
  sim::Engine e;
  Tracer t(e, 1);
  auto a = std::make_unique<Tracer::Scope>(t.scope(0, Cat::Collective, "a2a"));
  {
    Tracer::Scope b(std::move(*a));
  }  // records here
  ASSERT_EQ(t.records(0).size(), 1u);
  a.reset();  // inert
  EXPECT_EQ(t.records(0).size(), 1u);
  { auto c = t.scope(0, Cat::Wait, "w"); }  // not suppressed
  EXPECT_EQ(t.records(0).size(), 2u);
}

TEST(Tracer, IterationMarks) {
  sim::Engine e;
  Tracer t(e, 1);
  t.mark_iteration(0);
  e.schedule_at(1000, [&] { t.mark_iteration(0); });
  e.schedule_at(2000, [&] { t.mark_iteration(0); });
  e.run();
  ASSERT_EQ(t.iteration_marks(0).size(), 3u);
  auto p = pcd::trace::analyze(t);
  EXPECT_EQ(p.iterations, 2);
  EXPECT_DOUBLE_EQ(p.mean_iteration_s, 1e-6);
}

TEST(Tracer, ClearEmptiesRecords) {
  sim::Engine e;
  Tracer t(e, 1);
  { auto s = t.scope(0, Cat::Compute); }
  t.mark_iteration(0);
  t.clear();
  EXPECT_TRUE(t.records(0).empty());
  EXPECT_TRUE(t.iteration_marks(0).empty());
}

TEST(Profile, AggregatesPerCategory) {
  sim::Engine e;
  Tracer t(e, 2);
  e.schedule_at(0, [&] {
    auto s = new Tracer::Scope(t.scope(0, Cat::Compute));
    e.schedule_at(3 * sim::kSecond, [s] { delete s; });
    auto w = new Tracer::Scope(t.scope(1, Cat::Wait, "w"));
    e.schedule_at(1 * sim::kSecond, [w] { delete w; });
  });
  e.run();
  auto p = pcd::trace::analyze(t);
  EXPECT_DOUBLE_EQ(p.ranks[0].compute_s, 3.0);
  EXPECT_DOUBLE_EQ(p.ranks[1].wait_s, 1.0);
  EXPECT_EQ(p.ranks[1].waits, 1);
  EXPECT_DOUBLE_EQ(p.ranks[0].comm_s(), 0.0);
  EXPECT_GT(p.ranks[1].comm_s(), 0.0);
}

TEST(Profile, CommToCompRatio) {
  pcd::trace::RankProfile r;
  r.compute_s = 1.0;
  r.memstall_s = 1.0;
  r.collective_s = 4.0;
  EXPECT_DOUBLE_EQ(r.comm_to_comp(), 2.0);
}

TEST(Profile, ImbalanceZeroWhenEqual) {
  pcd::trace::TraceProfile p;
  for (int i = 0; i < 4; ++i) {
    pcd::trace::RankProfile r;
    r.compute_s = 5.0;
    p.ranks.push_back(r);
  }
  EXPECT_DOUBLE_EQ(p.imbalance(), 0.0);
  p.ranks[0].compute_s = 10.0;  // mean 6.25, worst dev 3.75
  EXPECT_NEAR(p.imbalance(), 3.75 / 6.25, 1e-12);
}

TEST(Timeline, RendersRowsAndLegend) {
  sim::Engine e;
  Tracer t(e, 2);
  e.schedule_at(0, [&] {
    auto s = new Tracer::Scope(t.scope(0, Cat::Compute));
    e.schedule_at(100, [s] { delete s; });
    auto w = new Tracer::Scope(t.scope(1, Cat::Collective, "a2a"));
    e.schedule_at(100, [w] { delete w; });
  });
  e.run();
  const auto out = pcd::trace::render_timeline(t, 40);
  EXPECT_NE(out.find("r0"), std::string::npos);
  EXPECT_NE(out.find("r1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('A'), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Timeline, EmptyTraceIsHandled) {
  sim::Engine e;
  Tracer t(e, 1);
  EXPECT_EQ(pcd::trace::render_timeline(t), "(empty trace)\n");
}

TEST(Profile, RenderProfileContainsTotals) {
  sim::Engine e;
  Tracer t(e, 1);
  { auto s = t.scope(0, Cat::Compute); }
  auto p = pcd::trace::analyze(t);
  const auto out = pcd::trace::render_profile(p);
  EXPECT_NE(out.find("comm/comp"), std::string::npos);
  EXPECT_NE(out.find("imbalance"), std::string::npos);
}
