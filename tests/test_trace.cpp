// Unit tests for the MPE-style tracer, profile analysis, and trace export.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/engine.hpp"
#include "trace/export.hpp"
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

TEST(Export, CsvGoldenTinyScriptedRun) {
  sim::Engine e;
  Tracer t(e, 2);
  e.schedule_at(0, [&] {
    auto c = new Tracer::Scope(t.scope(0, Cat::Compute, "fft"));
    e.schedule_at(1500, [c] { delete c; });
  });
  e.schedule_at(2000, [&] {
    auto s = new Tracer::Scope(t.scope(1, Cat::Send, "p2p", /*peer=*/0,
                                       /*bytes=*/4096));
    e.schedule_at(2500, [s] { delete s; });
  });
  e.run();
  const std::string expected =
      "rank,category,label,begin_ns,end_ns,duration_ns,peer,bytes\n"
      "0,Compute,fft,0,1500,1500,-1,0\n"
      "1,Send,p2p,2000,2500,500,0,4096\n";
  EXPECT_EQ(pcd::trace::export_csv(t), expected);
}

TEST(Export, HistogramBucketEdgesAtPowersOfTwoMicroseconds) {
  sim::Engine e;
  Tracer t(e, 1);
  // Durations in ns; exact powers of two microseconds must land in the
  // bucket they open ([2^k, 2^(k+1)) µs), and sub-µs durations in bucket 0.
  const std::int64_t durations[] = {1000, 2000, 4000, 8000, 1999, 1};
  sim::SimTime start = 0;
  for (const std::int64_t dur : durations) {
    e.schedule_at(start, [&t, &e, dur] {
      auto s = new Tracer::Scope(t.scope(0, Cat::Collective, "a2a"));
      e.schedule_at(e.now() + dur, [s] { delete s; });
    });
    start += dur + 10000;  // gap: comm scopes must not nest (suppression)
  }
  e.run();
  const auto h = pcd::trace::histogram(t, 0, Cat::Collective);
  EXPECT_EQ(h.total, 6);
  ASSERT_EQ(h.bucket_counts.size(), 4u);
  EXPECT_EQ(h.bucket_counts.at(0), 3);  // 1 µs, 1.999 µs, 1 ns
  EXPECT_EQ(h.bucket_counts.at(1), 1);  // exactly 2 µs
  EXPECT_EQ(h.bucket_counts.at(2), 1);  // exactly 4 µs
  EXPECT_EQ(h.bucket_counts.at(3), 1);  // exactly 8 µs
  EXPECT_NEAR(h.total_s, 17.0e-6, 1e-12);
  EXPECT_DOUBLE_EQ(h.typical_us(), 1.5);  // median bucket 0, midpoint 1.5 µs
}

TEST(Export, HistogramFiltersByRankAndCategory) {
  sim::Engine e;
  Tracer t(e, 2);
  e.schedule_at(0, [&] {
    auto a = new Tracer::Scope(t.scope(0, Cat::Send, "s"));
    e.schedule_at(3000, [a] { delete a; });
    auto b = new Tracer::Scope(t.scope(1, Cat::Send, "s"));
    e.schedule_at(5000, [b] { delete b; });
  });
  e.schedule_at(10000, [&] {
    auto c = new Tracer::Scope(t.scope(0, Cat::Compute, "x"));
    e.schedule_at(11000, [c] { delete c; });
  });
  e.run();
  EXPECT_EQ(pcd::trace::histogram(t, 0, Cat::Send).total, 1);
  EXPECT_EQ(pcd::trace::histogram(t, 1, Cat::Send).total, 1);
  EXPECT_EQ(pcd::trace::histogram(t, 0, Cat::Collective).total, 0);
  EXPECT_DOUBLE_EQ(pcd::trace::histogram(t, 1, Cat::Collective).typical_us(), 0);
}
