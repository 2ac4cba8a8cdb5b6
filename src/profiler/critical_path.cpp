// Cross-rank event DAG: latest-feasible-time backward pass.
//
// Nodes are the "anchor" instants of each rank's timeline: every scope
// boundary, plus the send instant (on the source rank) and the
// receive-completion instant (on the destination rank) of every matched
// message.  Edges:
//   - consecutive anchors of one rank, with weight = interval length if a
//     rigid scope covers the interval (the work is incompressible) and 0
//     if the interval is elastic (a wait, a recv, or an untraced gap);
//   - message edges from the send anchor to the matching recv-done anchor,
//     with weight = the observed send→recv-done lag (protocol + wire time
//     moves with the sender, so a late send shifts the receive).
//
// All edges point strictly forward in simulated time, so one descending
// sweep computes L(e) — the latest instant e could occur without pushing
// the makespan — and per-scope slack = L(end anchor) − observed end.
// Slack is provably non-negative: the observed schedule satisfies every
// constraint with equality or better.
#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "profiler/profiler.hpp"

namespace pcd::profiler {

bool is_rigid(trace::Cat c) {
  switch (c) {
    case trace::Cat::Wait:
    case trace::Cat::Recv:
      return false;  // shrink when the awaited message is later/earlier
    default:
      return true;
  }
}

namespace {

int index_of(const std::vector<sim::SimTime>& ev, sim::SimTime t) {
  const auto it = std::lower_bound(ev.begin(), ev.end(), t);
  assert(it != ev.end() && *it == t);
  return static_cast<int>(it - ev.begin());
}

}  // namespace

SlackAnalysis analyze_slack(const RunTrace& run) {
  const int ranks = run.ranks();
  SlackAnalysis out;
  out.makespan_s = run.makespan_s();
  out.record_slack_s.resize(static_cast<std::size_t>(ranks));
  out.rank_elastic_s.assign(static_cast<std::size_t>(ranks), 0);
  out.rank_critical_s.assign(static_cast<std::size_t>(ranks), 0);
  // Exact-integer DAG arithmetic makes truly-critical chains come out at
  // slack 0; the epsilon only forgives sub-microsecond scheduling noise
  // between back-to-back scopes.
  out.critical_eps_s = 1e-6 + out.makespan_s * 1e-6;
  if (ranks == 0) return out;

  // 1. Anchor events per rank, sorted and deduplicated.
  std::vector<std::size_t> anchor_count(static_cast<std::size_t>(ranks), 0);
  for (int r = 0; r < ranks; ++r) {
    anchor_count[static_cast<std::size_t>(r)] =
        2 * run.records[static_cast<std::size_t>(r)].size();
  }
  for (const auto& m : run.messages) {
    if (!m.complete() || m.src < 0 || m.src >= ranks || m.dst < 0 || m.dst >= ranks) {
      continue;
    }
    ++anchor_count[static_cast<std::size_t>(m.src)];
    ++anchor_count[static_cast<std::size_t>(m.dst)];
  }
  std::vector<std::vector<sim::SimTime>> ev(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& e = ev[static_cast<std::size_t>(r)];
    e.reserve(anchor_count[static_cast<std::size_t>(r)]);
    for (const auto& rec : run.records[static_cast<std::size_t>(r)]) {
      e.push_back(rec.begin);
      e.push_back(rec.end);
    }
  }
  for (const auto& m : run.messages) {
    if (!m.complete() || m.src < 0 || m.src >= ranks || m.dst < 0 || m.dst >= ranks) {
      continue;
    }
    ev[static_cast<std::size_t>(m.src)].push_back(m.t_send);
    ev[static_cast<std::size_t>(m.dst)].push_back(m.t_recv_done);
  }
  for (auto& e : ev) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
  }

  // Flatten anchors to global ids so edges and L live in single arrays
  // (one allocation each, cache-friendly sweep).
  std::vector<std::size_t> base(static_cast<std::size_t>(ranks) + 1, 0);
  for (int r = 0; r < ranks; ++r) {
    base[static_cast<std::size_t>(r) + 1] =
        base[static_cast<std::size_t>(r)] + ev[static_cast<std::size_t>(r)].size();
  }
  const std::size_t total = base[static_cast<std::size_t>(ranks)];

  // 2. Message out-edges in CSR form, anchored at their source event.  The
  //    log is in send order (appended at engine.now()), so the source
  //    lookup is a forward-only cursor per rank; the receive-completion
  //    side arrives out of order and keeps the binary search.
  std::vector<int> edge_count(total + 1, 0);
  std::vector<std::pair<std::size_t, std::size_t>> msg_anchor;  // (src aid, dst aid)
  msg_anchor.reserve(run.messages.size());
  std::vector<std::size_t> send_cur(static_cast<std::size_t>(ranks), 0);
  for (const auto& m : run.messages) {
    if (!m.complete() || m.src < 0 || m.src >= ranks || m.dst < 0 || m.dst >= ranks) {
      continue;
    }
    const auto& se = ev[static_cast<std::size_t>(m.src)];
    std::size_t& sc = send_cur[static_cast<std::size_t>(m.src)];
    while (sc < se.size() && se[sc] < m.t_send) ++sc;
    assert(sc < se.size() && se[sc] == m.t_send);
    const std::size_t si = base[static_cast<std::size_t>(m.src)] + sc;
    const std::size_t di = base[static_cast<std::size_t>(m.dst)] +
                           static_cast<std::size_t>(index_of(
                               ev[static_cast<std::size_t>(m.dst)], m.t_recv_done));
    msg_anchor.emplace_back(si, di);
    ++edge_count[si + 1];
  }
  for (std::size_t i = 1; i <= total; ++i) edge_count[i] += edge_count[i - 1];
  struct MsgEdge {
    std::size_t dst;
    sim::SimDuration lag;
  };
  std::vector<MsgEdge> edges(msg_anchor.size());
  {
    std::vector<int> fill(edge_count.begin(), edge_count.end() - 1);
    std::size_t k = 0;
    for (const auto& m : run.messages) {
      if (!m.complete() || m.src < 0 || m.src >= ranks || m.dst < 0 ||
          m.dst >= ranks) {
        continue;
      }
      const auto [si, di] = msg_anchor[k++];
      edges[static_cast<std::size_t>(fill[si]++)] = {di, m.t_recv_done - m.t_send};
    }
  }

  // 3. Intra-rank interval weights: interval i -> i+1 is rigid iff some
  //    rigid scope spans it.  Scope boundaries are themselves anchors, so
  //    "spans" reduces to begin <= e[i] and end >= e[i+1] — one merged
  //    sweep over (begin-sorted) rigid scopes per rank, no binary searches.
  std::vector<sim::SimDuration> weight(total, 0);
  {
    std::vector<std::pair<sim::SimTime, sim::SimTime>> iv;
    for (int r = 0; r < ranks; ++r) {
      iv.clear();
      for (const auto& rec : run.records[static_cast<std::size_t>(r)]) {
        if (is_rigid(rec.cat)) iv.emplace_back(rec.begin, rec.end);
      }
      std::sort(iv.begin(), iv.end());
      const auto& e = ev[static_cast<std::size_t>(r)];
      std::size_t k = 0;
      sim::SimTime max_end = std::numeric_limits<sim::SimTime>::min();
      for (std::size_t i = 0; i + 1 < e.size(); ++i) {
        while (k < iv.size() && iv[k].first <= e[i]) {
          max_end = std::max(max_end, iv[k].second);
          ++k;
        }
        if (max_end >= e[i + 1]) {
          weight[base[static_cast<std::size_t>(r)] + i] = e[i + 1] - e[i];
        }
      }
    }
  }

  // 4. Backward pass in descending event time: one sort of the global
  //    anchor ids.  Every edge points strictly forward in time (message
  //    protocol cost is positive, anchors are deduped), so every successor
  //    is finalized before its predecessors are visited, and anchors of one
  //    instant (on different ranks, hence unconnected) may go in any order.
  std::vector<std::pair<sim::SimTime, std::size_t>> order;
  order.reserve(total);
  for (int r = 0; r < ranks; ++r) {
    const auto& e = ev[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < e.size(); ++i) {
      order.emplace_back(e[i], base[static_cast<std::size_t>(r)] + i);
    }
  }
  std::sort(order.begin(), order.end(), std::greater<>());
  std::vector<sim::SimTime> latest(total, run.t_end);
  for (const auto& entry : order) {
    const std::size_t aid = entry.second;
    sim::SimTime best = run.t_end;
    if (aid + 1 < *std::upper_bound(base.begin(), base.end(), aid)) {  // not its rank's last
      best = std::min(best, latest[aid + 1] - weight[aid]);
    }
    for (int x = edge_count[aid]; x < edge_count[aid + 1]; ++x) {
      const auto& edge = edges[static_cast<std::size_t>(x)];
      best = std::min(best, latest[edge.dst] - edge.lag);
    }
    latest[aid] = best;
  }

  // 5. Per-scope slack and critical-path aggregation.  Records are stored
  //    in end order (scopes log on close), so the end-anchor lookup is a
  //    forward-only cursor rather than a binary search per record.
  for (int r = 0; r < ranks; ++r) {
    const auto& recs = run.records[static_cast<std::size_t>(r)];
    const auto& e = ev[static_cast<std::size_t>(r)];
    auto& slack = out.record_slack_s[static_cast<std::size_t>(r)];
    slack.reserve(recs.size());
    std::size_t cur = 0;
    for (const auto& rec : recs) {
      while (cur < e.size() && e[cur] < rec.end) ++cur;
      assert(cur < e.size() && e[cur] == rec.end);
      const std::size_t aid = base[static_cast<std::size_t>(r)] + cur;
      const double s = sim::to_seconds(latest[aid] - rec.end);
      slack.push_back(s);
      const double dur = sim::to_seconds(rec.end - rec.begin);
      if (!is_rigid(rec.cat)) {
        out.rank_elastic_s[static_cast<std::size_t>(r)] += dur;
      } else if (s <= out.critical_eps_s) {
        out.rank_critical_s[static_cast<std::size_t>(r)] += dur;
        out.critical_by_cat_s[static_cast<std::size_t>(rec.cat)] += dur;
      }
    }
  }
  return out;
}

}  // namespace pcd::profiler
