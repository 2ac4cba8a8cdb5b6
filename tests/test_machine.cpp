// Tests for the node/cluster assembly layer.
#include <gtest/gtest.h>

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <vector>

#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace sim = pcd::sim;
using pcd::machine::Cluster;
using pcd::machine::ClusterConfig;

// Counting global allocator for the footprint tests below: every
// ::operator new in this binary bumps the counter (the array and nothrow
// forms route through this one).
namespace {
std::atomic<std::int64_t> g_heap_allocs{0};

std::int64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t bytes) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC 12 would otherwise see `free` applied to a pointer from
// `operator new` at every call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

TEST(Cluster, BuildsRequestedNodeCount) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 16;  // NEMO
  Cluster c(e, cfg);
  EXPECT_EQ(c.size(), 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c.node(i).id(), i);
    EXPECT_EQ(c.node(i).cpu().frequency_mhz(), 1400);
  }
  EXPECT_EQ(c.network().nodes(), 16);
}

TEST(Cluster, RejectsEmptyCluster) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW(Cluster(e, cfg), std::invalid_argument);
}

TEST(Cluster, SetAllCpuspeedIsPsetcpuspeed) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.node.cpu.transition_min = cfg.node.cpu.transition_max = sim::from_micros(20);
  Cluster c(e, cfg);
  c.set_all_cpuspeed(800);
  e.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.node(i).cpu().frequency_mhz(), 800);
}

TEST(Cluster, TotalEnergySumsNodes) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster c(e, cfg);
  e.schedule_at(10 * sim::kSecond, [] {});
  e.run();
  double sum = 0;
  for (int i = 0; i < 3; ++i) sum += c.node(i).power().energy_joules();
  EXPECT_NEAR(c.total_energy_joules(), sum, 1e-9);
  EXPECT_GT(sum, 0);
}

TEST(Cluster, NodesHaveIndependentRngStreams) {
  // Transition latencies differ across nodes (per-node seeds).
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 8;
  Cluster c(e, cfg);
  c.set_all_cpuspeed(600);
  e.run();
  bool all_equal = true;
  const auto first = c.node(0).cpu().stats().transition_stall_ns;
  for (int i = 1; i < 8; ++i) {
    all_equal = all_equal && (c.node(i).cpu().stats().transition_stall_ns == first);
  }
  EXPECT_FALSE(all_equal);
}

TEST(Cluster, NicActivityReachesNodePower) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.network.collision_coeff = 0;
  Cluster c(e, cfg);
  double during = 0;
  auto xfer = [&]() -> sim::Process {
    co_await c.network().transfer(0, 1, 1'000'000, 1.0);
  };
  sim::spawn(e, xfer());
  e.schedule_at(40 * sim::kMillisecond, [&] { during = c.node(0).power().breakdown().nic; });
  e.run();
  const double idle = c.node(0).power().breakdown().nic;
  EXPECT_GT(during, idle);
}

TEST(Cluster, DifferentSeedsProduceDifferentStreams) {
  auto stall_signature = [](std::uint64_t seed) {
    sim::Engine e;
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.seed = seed;
    Cluster c(e, cfg);
    c.set_all_cpuspeed(600);
    e.run();
    return c.node(0).cpu().stats().transition_stall_ns;
  };
  EXPECT_EQ(stall_signature(1), stall_signature(1));
  EXPECT_NE(stall_signature(1), stall_signature(2));
}

TEST(Cluster, BatteryPerNode) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster c(e, cfg);
  c.node(0).battery().disconnect_ac();
  e.schedule_at(30 * sim::kSecond, [] {});
  e.run();
  EXPECT_LT(c.node(0).battery().true_remaining_mwh(), 53000.0);
  EXPECT_DOUBLE_EQ(c.node(1).battery().true_remaining_mwh(), 53000.0);
}

// set_all_cpuspeed is exactly the node-order loop of Node::set_cpuspeed under
// the External cause, whatever state each node is in when it is called.
TEST(Cluster, SetAllCpuspeedMatchesAPerNodeLoopInEveryNodeState) {
  constexpr int kTarget = 800;
  struct Outcome {
    std::vector<pcd::telemetry::DvsDecision> decisions;
    std::vector<pcd::cpu::CpuStats> stats;
    std::vector<int> freq_mhz;
    std::vector<int> requested_mhz;
  };
  auto run = [](bool batch) {
    sim::Engine e;
    ClusterConfig cfg;
    cfg.nodes = 8;
    Cluster c(e, cfg);
    pcd::telemetry::Hub hub;
    c.attach_telemetry(&hub);
    // Nodes 0, 1, 2, 4 and 6 start at the target; the others at boot speed.
    for (int i : {0, 1, 2, 4, 6}) c.node(i).set_cpuspeed(kTarget);
    e.run();
    // Node 0 stays at the target, idle; node 5 at boot speed, idle.
    c.node(1).set_cpuspeed(1000);     // mid-transition away from the target
    c.node(7).set_cpuspeed(kTarget);  // mid-transition to the target
    c.node(2).power_off();            // off, at the target
    c.node(3).cpu().set_dvs_stuck(true);
    c.node(6).cpu().set_dvs_stuck(true);  // stuck, at the target
    c.node(4).cpu().checkpoint_stall_begin();
    c.node(4).set_cpuspeed(1000);  // stalled at the target, 1000 pending
    if (batch) {
      c.set_all_cpuspeed(kTarget);
    } else {
      for (int i = 0; i < c.size(); ++i) {
        c.node(i).set_cpuspeed(kTarget, pcd::telemetry::DvsCause::External,
                               std::numeric_limits<double>::quiet_NaN(), "psetcpuspeed");
      }
    }
    e.schedule_in(sim::kMillisecond, [&] { c.node(4).cpu().checkpoint_stall_end(); });
    e.run();
    Outcome out;
    out.decisions = hub.decisions().entries();
    for (int i = 0; i < c.size(); ++i) {
      out.stats.push_back(c.node(i).cpu().stats());
      out.freq_mhz.push_back(c.node(i).cpu().frequency_mhz());
      out.requested_mhz.push_back(c.node(i).requested_mhz());
    }
    return out;
  };
  const Outcome batch = run(true);
  const Outcome loop = run(false);

  ASSERT_EQ(batch.decisions.size(), loop.decisions.size());
  for (std::size_t i = 0; i < batch.decisions.size(); ++i) {
    const auto& a = batch.decisions[i];
    const auto& b = loop.decisions[i];
    EXPECT_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.node, b.node) << i;
    EXPECT_EQ(a.from_mhz, b.from_mhz) << i;
    EXPECT_EQ(a.to_mhz, b.to_mhz) << i;
    EXPECT_EQ(a.cause, b.cause) << i;
    EXPECT_EQ(a.has_utilization(), b.has_utilization()) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
  }
  for (std::size_t n = 0; n < batch.stats.size(); ++n) {
    EXPECT_EQ(batch.stats[n].transitions, loop.stats[n].transitions) << n;
    EXPECT_EQ(batch.stats[n].dvs_requests_dropped, loop.stats[n].dvs_requests_dropped) << n;
    EXPECT_EQ(batch.stats[n].transition_stall_ns, loop.stats[n].transition_stall_ns) << n;
  }
  EXPECT_EQ(batch.freq_mhz, loop.freq_mhz);
  EXPECT_EQ(batch.requested_mhz, loop.requested_mhz);

  // The mixed states really were mixed: the stuck node kept its boot speed
  // and counted the lost write, the powered-off node dropped it, the node
  // leaving the target came back, and the stalled node's pending request
  // was replaced by the target.
  EXPECT_EQ(batch.freq_mhz[3], 1400);
  EXPECT_EQ(batch.stats[3].dvs_requests_dropped, 1);
  EXPECT_EQ(batch.stats[2].dvs_requests_dropped, 1);
  EXPECT_EQ(batch.stats[6].dvs_requests_dropped, 0);
  EXPECT_EQ(batch.stats[1].transitions, 3);
  EXPECT_EQ(batch.stats[4].transitions, 1);
  EXPECT_EQ(batch.requested_mhz[1], kTarget);
  EXPECT_EQ(batch.freq_mhz[1], kTarget);
  EXPECT_EQ(batch.freq_mhz[4], kTarget);
  EXPECT_EQ(batch.freq_mhz[5], kTarget);
  EXPECT_EQ(batch.freq_mhz[7], kTarget);
}

// ---- Memory footprint --------------------------------------------------------
//
// A 4096-rank run is bound by its per-rank working set, so the per-node
// allocation count of the machine build is pinned: a node costs its Node
// object and its CPU's per-operating-point residency counters; queues that
// are idle (CPU work backlog, switch port waiters), the link state and the
// operating-point table cost no allocation of their own.

TEST(Footprint, ClusterAndCommBuildAllocatesAtMostFourTimesPerNode) {
  constexpr int kNodes = 1024;
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  std::vector<int> ids(kNodes);
  std::iota(ids.begin(), ids.end(), 0);
  const std::int64_t before = heap_allocs();
  Cluster c(e, cfg);
  pcd::mpi::Comm comm(c, ids);
  const std::int64_t allocs = heap_allocs() - before;
  EXPECT_LE(allocs, 4 * kNodes) << allocs << " allocations for " << kNodes << " nodes";
}

TEST(Footprint, IdleCpuAllocatesOnlyItsResidencyCounters) {
  sim::Engine e;
  const auto table = pcd::cpu::OperatingPointTable::pentium_m_1400();
  const std::int64_t before = heap_allocs();
  pcd::cpu::Cpu cpu(e, table, pcd::cpu::CpuConfig{}, sim::Rng(1));
  EXPECT_EQ(heap_allocs() - before, 1);  // stats().op_residency_ns
}

TEST(Footprint, CpuWorkWithEmptyBacklogAllocatesNothing) {
  sim::Engine e;
  pcd::cpu::Cpu cpu(e, pcd::cpu::OperatingPointTable::pentium_m_1400(),
                    pcd::cpu::CpuConfig{}, sim::Rng(1));
  // Warm the engine's own event storage first.
  cpu.run_onchip_cycles(1000).await_suspend(std::noop_coroutine());
  e.run();
  const std::int64_t before = heap_allocs();
  for (int i = 0; i < 100; ++i) {
    cpu.run_onchip_cycles(1000).await_suspend(std::noop_coroutine());
    e.run();
  }
  EXPECT_EQ(heap_allocs() - before, 0);
  EXPECT_EQ(cpu.stats().work_completed, 101);
}

TEST(Footprint, IdlePortsAndLinksAddNoAllocationPerNode) {
  auto build_allocs = [](int nodes) {
    sim::Engine e;
    const std::int64_t before = heap_allocs();
    pcd::net::Network net(e, nodes, pcd::net::NetworkParams{}, sim::Rng(1));
    return heap_allocs() - before;
  };
  EXPECT_EQ(build_allocs(64), build_allocs(1024));
}

TEST(Footprint, TransferAndParkedWaitAllocateNothingAfterWarmUp) {
#ifdef PCD_FRAME_POOL_DISABLED
  GTEST_SKIP() << "frame pool is compiled out under AddressSanitizer";
#else
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.network.collision_coeff = 0.0;
  Cluster c(e, cfg);
  pcd::mpi::Comm comm(c, {0, 1, 2});
  auto xfer = [&]() -> sim::Process { co_await c.network().transfer(2, 1, 64 * 1024, 1.0); };
  auto rank = [&](int r) -> sim::Process {
    if (r == 0) {
      auto req = comm.irecv(0, 1, 7);
      co_await comm.wait(0, req);  // parks until rank 1's message lands
    } else {
      co_await sim::delay(sim::kMillisecond);
      auto req = comm.isend(1, 0, 7, 4096);
      co_await comm.wait(1, req);
    }
  };
  auto round = [&] {
    sim::spawn(e, xfer());
    sim::spawn(e, rank(0));
    sim::spawn(e, rank(1));
    e.run();
  };
  round();  // warm the engine, the pools and the port queues
  const std::int64_t before = heap_allocs();
  for (int i = 0; i < 10; ++i) round();
  EXPECT_EQ(heap_allocs() - before, 0);
  EXPECT_EQ(comm.stats().messages, 11);
  EXPECT_EQ(c.network().stats().transfers, 22);
#endif
}
