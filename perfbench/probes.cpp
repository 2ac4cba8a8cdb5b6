// Isolated per-layer probes: each times one src/ module's public surface on
// a bare substrate, so a layer's cost can be read apart from the workload.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cpu/cpu.hpp"
#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "perfbench.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sharded.hpp"

namespace perfbench {

using namespace pcd;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

constexpr int kReps = 5;  // every probe reports the median of five timings

/// A probe body returns its own elapsed seconds for `n` operations.
template <typename Body>
double median_ns_per_op(int n, Body&& body) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) ns.push_back(body() * 1e9 / n);
  return median(ns);
}

double timed_run(sim::Engine& e) {
  const double t0 = wall_now();
  e.run();
  return wall_now() - t0;
}

// One cpu::Cpu work segment: begin_work -> cpu.finish_work -> resume.
double probe_cpu_segment(int n, double* events_per_op) {
  return median_ns_per_op(n, [&] {
    sim::Engine e;
    cpu::Cpu c(e, cpu::OperatingPointTable::pentium_m_1400(), cpu::CpuConfig{},
               sim::Rng(7));
    auto proc = [&c](int k) -> sim::Process {
      for (int i = 0; i < k; ++i) co_await c.run_onchip_cycles(1.4e6);
    };
    sim::spawn(e, proc(n));
    const double s = timed_run(e);
    *events_per_op = static_cast<double>(e.events_processed()) / n;
    return s;
  });
}

// NodeStateArena::accrue_all + refresh_all over every lane of a cluster.
double probe_accrue(int nodes, int lane_ops) {
  const int iters = std::max(1, lane_ops / nodes);
  sim::Engine e;
  machine::ClusterConfig cc;
  cc.nodes = nodes;
  machine::Cluster cluster(e, cc);
  power::NodeStateArena& arena = cluster.arena();
  sim::SimTime t = 0;
  return median_ns_per_op(iters * nodes, [&] {
    const double t0 = wall_now();
    for (int i = 0; i < iters; ++i) {
      t += sim::kMicrosecond;
      arena.accrue_all(t);
      arena.refresh_all();
    }
    return wall_now() - t0;
  });
}

// One uncontended 64 KB net::Network transfer (below the collision size).
double probe_net_transfer(int n, double* events_per_op) {
  return median_ns_per_op(n, [&] {
    sim::Engine e;
    net::Network net(e, 2, net::NetworkParams{}, sim::Rng(11));
    auto proc = [&net](int k) -> sim::Process {
      for (int i = 0; i < k; ++i) co_await net.transfer(0, 1, 64 * 1024, 1.0);
    };
    sim::spawn(e, proc(n));
    const double s = timed_run(e);
    *events_per_op = static_cast<double>(e.events_processed()) / n;
    return s;
  });
}

// One 64 KB isend/irecv/waitall exchange between two ranks, as in the CG
// rank body, on a bare two-node cluster.
double probe_mpi_p2p(int n, ProbeResults& out) {
  return median_ns_per_op(n, [&] {
    sim::Engine e;
    machine::ClusterConfig cc;
    cc.nodes = 2;
    machine::Cluster cluster(e, cc);
    mpi::Comm comm(cluster, {0, 1});
    auto rank = [&comm](int r, int k) -> sim::Process {
      for (int i = 0; i < k; ++i) {
        auto rr = comm.irecv(r, 1 - r, 7);
        auto sr = comm.isend(r, 1 - r, 7, 64 * 1024);
        std::vector<mpi::Comm::Request> reqs;
        reqs.push_back(std::move(sr));
        reqs.push_back(std::move(rr));
        co_await comm.waitall(r, std::move(reqs));
      }
    };
    sim::spawn(e, rank(0, n));
    sim::spawn(e, rank(1, n));
    const double s = timed_run(e);
    out.mpi_p2p_events = static_cast<double>(e.events_processed()) / n;
    out.mpi_p2p_segments = static_cast<double>(cluster.node(0).cpu().stats().work_completed +
                                               cluster.node(1).cpu().stats().work_completed) /
                           n;
    out.mpi_p2p_transfers = static_cast<double>(cluster.network().stats().transfers) / n;
    return s;
  });
}

// One 8-rank pairwise-exchange alltoall (16 KB per pair), the NPB shape.
double probe_mpi_alltoall(int n) {
  constexpr int kRanks = 8;
  return median_ns_per_op(n, [&] {
    sim::Engine e;
    machine::ClusterConfig cc;
    cc.nodes = kRanks;
    machine::Cluster cluster(e, cc);
    mpi::Comm comm(cluster, {0, 1, 2, 3, 4, 5, 6, 7});
    auto rank = [&comm](int r, int k) -> sim::Process {
      for (int i = 0; i < k; ++i) co_await comm.alltoall(r, 16 * 1024);
    };
    for (int r = 0; r < kRanks; ++r) sim::spawn(e, rank(r, n));
    return timed_run(e);
  });
}

// sim::Engine + machine::Cluster construction (teardown not timed).
double probe_cluster_build_ms(int nodes, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    sim::Engine e;
    machine::ClusterConfig cc;
    cc.nodes = nodes;
    machine::Cluster cluster(e, cc);
    ms.push_back((wall_now() - t0) * 1e3);
  }
  return median(ms);
}

// sim::ShardedEngine::run over near-empty windows: each shard holds one
// event per lookahead step, so every window dispatches one event a shard
// and the cost is the barrier round-trip.
double probe_shard_barrier_us(int shards, int windows) {
  const sim::SimDuration lookahead = net::NetworkParams{}.latency;
  std::vector<double> us;
  for (int r = 0; r < kReps; ++r) {
    sim::ShardedEngine se(shards, lookahead);
    struct Ticker {
      sim::Engine* e;
      sim::SimDuration step;
      int left;
      void fire() {
        if (--left > 0) e->schedule_in(step, [this] { fire(); });
      }
    };
    std::vector<Ticker> tickers;
    tickers.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) tickers.push_back({&se.shard(s), lookahead, windows});
    for (auto& t : tickers) t.e->schedule_at(0, [&t] { t.fire(); });
    const double t0 = wall_now();
    const auto stats = se.run();
    us.push_back((wall_now() - t0) * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, stats.windows)));
  }
  return median(us);
}

}  // namespace

ProbeResults run_probes(int big_nodes, int iters, int shards, SpanLog& spans, int parent) {
  ProbeResults p;
  int run = 0;
  auto span = [&](const char* name, auto&& body) {
    const int id = spans.open(name, parent, ++run);
    body();
    spans.close(id);
  };
  span("probe.cpu.segment", [&] { p.cpu_segment_ns = probe_cpu_segment(iters, &p.cpu_segment_events); });
  span("probe.power.accrue", [&] {
    p.accrue_ns_per_lane_big = probe_accrue(big_nodes, iters * 64);
    p.accrue_ns_per_lane_small = probe_accrue(9, iters * 64);
  });
  span("probe.net.transfer", [&] { p.net_transfer_ns = probe_net_transfer(iters, &p.net_transfer_events); });
  span("probe.mpi.p2p", [&] { p.mpi_p2p_ns = probe_mpi_p2p(iters / 4, p); });
  span("probe.mpi.alltoall", [&] { p.mpi_alltoall_ns = probe_mpi_alltoall(std::max(1, iters / 64)); });
  span("probe.machine.cluster_build", [&] {
    p.cluster_build_ms_big = probe_cluster_build_ms(big_nodes, kReps);
    p.cluster_build_ms_small = probe_cluster_build_ms(9, 4 * kReps);
  });
  span("probe.shard.barrier", [&] { p.shard_barrier_us = probe_shard_barrier_us(shards, std::max(8, iters / 16)); });
  return p;
}

double replay_ns_per_event(const std::vector<SliceEvent>& slice, int reps) {
  const auto n = static_cast<std::uint32_t>(slice.size());
  if (n == 0) return 0;
  std::unordered_map<std::uint64_t, std::uint32_t> pos;
  pos.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) pos.emplace(slice[i].seq, i);
  std::vector<std::vector<std::uint32_t>> children(n);
  std::vector<std::uint32_t> roots;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto it = pos.find(slice[i].parent);
    if (it != pos.end() && it->second < i) {
      children[it->second].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  struct Replayer {
    sim::Engine& e;
    const std::vector<SliceEvent>& s;
    const std::vector<std::vector<std::uint32_t>>& children;
    void fire(std::uint32_t i) {
      for (const std::uint32_t c : children[i]) {
        e.schedule_at(s[c].t, [this, c] { fire(c); }, s[c].site.c_str());
      }
    }
  };
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    sim::Engine e;
    Replayer rp{e, slice, children};
    const double t0 = wall_now();
    for (const std::uint32_t i : roots) {
      e.schedule_at(slice[i].t, [&rp, i] { rp.fire(i); }, slice[i].site.c_str());
    }
    e.run();
    ns.push_back((wall_now() - t0) * 1e9 / n);
  }
  return median(ns);
}

}  // namespace perfbench
