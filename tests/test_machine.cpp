// Tests for the node/cluster assembly layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "apps/workload.hpp"
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
// forms route through these) and adds its size to the live and the
// allocated byte counts; the size is kept in a header in front of the
// block so delete can subtract it from the live count.
namespace {
std::atomic<std::int64_t> g_heap_allocs{0};
std::atomic<std::int64_t> g_heap_bytes{0};
std::atomic<std::int64_t> g_heap_bytes_allocated{0};
constexpr std::size_t kHeader = 16;  // keeps the default new alignment

std::int64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
std::int64_t heap_bytes() { return g_heap_bytes.load(std::memory_order_relaxed); }
std::int64_t heap_bytes_allocated() {
  return g_heap_bytes_allocated.load(std::memory_order_relaxed);
}

// `base` has `lead` >= kHeader bytes in front of the block handed out.
void* count_block(void* base, std::size_t lead, std::size_t bytes) {
  if (base == nullptr) throw std::bad_alloc();
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
  g_heap_bytes_allocated.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
  unsigned char* p = static_cast<unsigned char*>(base) + lead;
  std::memcpy(p - kHeader, &bytes, sizeof bytes);
  return p;
}
void* uncount_block(void* p, std::size_t lead) {
  std::size_t bytes = 0;
  std::memcpy(&bytes, static_cast<unsigned char*>(p) - kHeader, sizeof bytes);
  g_heap_bytes.fetch_sub(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
  return static_cast<unsigned char*>(p) - lead;
}
std::size_t aligned_lead(std::align_val_t al) {
  return std::max(kHeader, static_cast<std::size_t>(al));
}
}  // namespace

void* operator new(std::size_t bytes) {
  return count_block(std::malloc(kHeader + bytes), kHeader, bytes);
}
void* operator new(std::size_t bytes, std::align_val_t al) {
  const std::size_t lead = aligned_lead(al);
  return count_block(std::aligned_alloc(lead, (lead + bytes + lead - 1) / lead * lead), lead,
                     bytes);
}
// Not inlined: GCC 12 would otherwise see `free` applied to a pointer from
// `operator new` at every call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) std::free(uncount_block(p, kHeader));
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t al) noexcept {
  if (p != nullptr) std::free(uncount_block(p, aligned_lead(al)));
}
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  operator delete(p, al);
}

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

TEST(Cluster, NodesAreOneArrayInIdOrder) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 9;
  cfg.first_node_id = 100;  // a shard's nodes keep machine-wide ids
  Cluster c(e, cfg);
  for (int i = 0; i < c.size(); ++i) {
    const pcd::machine::Node& n = c.node(i);
    EXPECT_EQ(n.id(), 100 + i);
    if (i + 1 < c.size()) {
      EXPECT_EQ(&c.node(i + 1), &n + 1) << i;
    }
    // 64-byte aligned, so the Cpu's hot line is one cache line.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&n) % 64, 0u) << i;
    EXPECT_EQ(static_cast<const void*>(&n.cpu()), static_cast<const void*>(&n));
    // The power lane lives inside the record, starting right after the Cpu
    // (whose hot line is its last), and every Cpu refers to the cluster's
    // one CpuConfig.
    const auto* joules = reinterpret_cast<const char*>(c.arena().joules(i));
    EXPECT_EQ(joules - reinterpret_cast<const char*>(&n),
              static_cast<std::ptrdiff_t>(sizeof(pcd::cpu::Cpu) +
                                          offsetof(pcd::power::PowerLane, joules)))
        << i;
    EXPECT_EQ(&n.cpu().config(), &c.node(0).cpu().config());
  }
  EXPECT_THROW(c.node(c.size()), std::out_of_range);
  EXPECT_THROW(c.node(-1), std::out_of_range);
}

// CPU accounting conservation, per node of a cluster, after a run mixing
// work of every kind with DVS transitions (one mid-work, requests
// coalesced mid-transition and parked through a checkpoint stall), a
// power outage, a checkpoint stall and a straggler slowdown:
//   - the residency counters add up to the elapsed simulated time;
//   - the busy-weighted /proc time is at most the elapsed time;
//   - the retired frequency-sensitive cycles are the sum, over the OnChip
//     and CommProc intervals, of dt * f * eff.
// The oracle replaces each Cpu's change listener (detaching its power
// model, which this test does not read): the listener fires before every
// state and operating-point change, so it sees each interval's state, and
// the test records one more sample before each efficiency change it makes.
TEST(Cluster, CpuAccountingIsConservedPerNode) {
  constexpr int kNodes = 4;
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  Cluster c(e, cfg);

  struct Oracle {
    pcd::cpu::Cpu* cpu = nullptr;
    sim::SimTime last = 0;
    std::vector<sim::SimDuration> residency;
    double busy_ns = 0;
    double cycles = 0;
    // Closes the interval [last, now) under the CPU's current state.
    void sample() {
      const sim::SimDuration dt = cpu->engine().now() - last;
      const pcd::cpu::CpuState s = cpu->state();
      residency[cpu->op_index()] += dt;
      if (s == pcd::cpu::CpuState::WaitPoll) {
        busy_ns += static_cast<double>(dt) * cpu->config().waitpoll_busy_fraction;
      } else if (s != pcd::cpu::CpuState::Idle && s != pcd::cpu::CpuState::Off) {
        busy_ns += static_cast<double>(dt);
      }
      if (s == pcd::cpu::CpuState::OnChip || s == pcd::cpu::CpuState::CommProc) {
        cycles += static_cast<double>(dt) * cpu->frequency_mhz() * cpu->efficiency() * 1e-3;
      }
      last = cpu->engine().now();
    }
  };
  std::vector<Oracle> oracles(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    Oracle& o = oracles[static_cast<std::size_t>(i)];
    o.cpu = &c.node(i).cpu();
    o.residency.assign(o.cpu->table().size(), 0);
    o.cpu->set_change_listener({[](void* self) { static_cast<Oracle*>(self)->sample(); }, &o});
  }

  auto rank = [](pcd::cpu::Cpu& cpu) -> sim::Process {
    for (int it = 0; it < 40; ++it) {
      co_await cpu.run_onchip_cycles(1.4e6);                  // ~1 ms at 1.4 GHz
      co_await cpu.run_memstall(sim::from_micros(300), 0.55);  // per-phase activity
      co_await cpu.run_commproc_cycles(2.0e5);
      {
        auto wait = cpu.wait_scope();
        co_await sim::delay(sim::from_micros(250));
      }
      co_await sim::delay(sim::from_micros(100));  // idle
    }
  };
  for (int i = 0; i < kNodes; ++i) sim::spawn(e, rank(c.node(i).cpu()));

  auto at = [&](double ms, auto fn) { e.schedule_at(sim::from_seconds(ms * 1e-3), fn); };
  // Node 0: transitions, one requested mid-transition (coalesced).
  at(3.3, [&] { c.node(0).set_cpuspeed(800); });
  at(3.31, [&] { c.node(0).set_cpuspeed(600); });
  at(20.7, [&] { c.node(0).set_cpuspeed(1200); });
  // Node 1: an outage mid-work, rebooting at full speed.
  at(5.0, [&] { c.node(1).set_cpuspeed(1000); });
  at(11.2, [&] { c.node(1).power_off(); });
  at(17.9, [&] { c.node(1).power_on(); });
  // Node 2: a checkpoint stall with a DVS request parked through it.
  at(7.4, [&] { c.node(2).cpu().checkpoint_stall_begin(); });
  at(8.0, [&] { c.node(2).set_cpuspeed(800); });
  at(13.6, [&] { c.node(2).cpu().checkpoint_stall_end(); });
  // Node 3: a straggler slowdown and recovery, plus a transition.
  at(6.1, [&] {
    oracles[3].sample();
    c.node(3).cpu().set_efficiency(0.6);
  });
  at(9.5, [&] { c.node(3).set_cpuspeed(1000); });
  at(25.3, [&] {
    oracles[3].sample();
    c.node(3).cpu().set_efficiency(1.0);
  });

  // End the run with a power cut at T: it closes every node's accounting
  // interval at T (node 1 is back on by then).
  const sim::SimTime kEnd = sim::from_seconds(60e-3);
  e.run_until(kEnd);
  for (int i = 0; i < kNodes; ++i) c.node(i).power_off();

  for (int i = 0; i < kNodes; ++i) {
    const Oracle& o = oracles[static_cast<std::size_t>(i)];
    const pcd::cpu::Cpu& cpu = c.node(i).cpu();
    sim::SimDuration total = 0;
    for (std::size_t p = 0; p < cpu.table().size(); ++p) {
      EXPECT_EQ(cpu.stats().op_residency_ns[p], o.residency[p]) << "node " << i << " point " << p;
      total += cpu.stats().op_residency_ns[p];
    }
    EXPECT_EQ(total, kEnd) << "node " << i;
    EXPECT_LE(cpu.busy_weighted_ns(), static_cast<double>(kEnd)) << "node " << i;
    EXPECT_EQ(cpu.busy_weighted_ns(), o.busy_ns) << "node " << i;
    EXPECT_GT(cpu.retired_sensitive_cycles(), 0.0) << "node " << i;
    EXPECT_EQ(cpu.retired_sensitive_cycles(), o.cycles) << "node " << i;
  }
  // The scenario did what it says.
  EXPECT_EQ(c.node(0).cpu().stats().transitions, 3);  // 800, the coalesced 600, 1200
  EXPECT_EQ(c.node(0).cpu().frequency_mhz(), 1200);
  EXPECT_EQ(c.node(1).cpu().frequency_mhz(), 1400);
  EXPECT_EQ(c.node(2).cpu().frequency_mhz(), 800);
  EXPECT_LT(oracles[3].cycles, oracles[2].cycles + oracles[0].cycles);

  // Let the ranks finish, so no suspended frame outlives its Cpu.
  for (int i = 0; i < kNodes; ++i) c.node(i).power_on();
  e.run();
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
// allocation count of the machine build is pinned: the nodes are one
// allocation, with each CPU's residency counters and power lane inside its
// record; queues that are idle (CPU work backlog, switch port waiters), the
// link state and the operating-point table cost no allocation of their own.

// The nodes are one allocation, with their residency counters and power
// lanes inside, and the communicator's per-rank tables are one block each,
// so building a cluster and its Comm allocates the same number of blocks
// at any size (12 at 4,096 nodes, against 8,208 when every node and every
// residency vector was its own block).
TEST(Footprint, ClusterBuildAllocationsDoNotGrowWithNodes) {
  auto build_allocs = [](int nodes) {
    sim::Engine e;
    ClusterConfig cfg;
    cfg.nodes = nodes;
    std::vector<int> ids(static_cast<std::size_t>(nodes));
    std::iota(ids.begin(), ids.end(), 0);
    const std::int64_t before = heap_allocs();
    Cluster c(e, cfg);
    pcd::mpi::Comm comm(c, ids);
    return heap_allocs() - before;
  };
  EXPECT_EQ(build_allocs(64), build_allocs(1024));
}

// Bytes per rank: the rank record — the Node (CPU with its residency
// counters, power model with its integrator lane, battery) plus the
// arena's one view pointer per lane — is kept within a fixed budget, and
// the live heap a 4,096-node build leaves is bounded.  The record is 648
// bytes (a 640-byte Node: ten cache lines) and the build leaves 3,408,392
// live bytes (832 per node).  While the battery kept its own engine
// reference and the refresh bounds it reads only at construction, the
// Node was 704 bytes and the build left 3,670,536.  Before the record held
// its lane and residency counters it was a 656-byte Node plus 101 bytes of
// arena vectors and a 56-byte residency block (813), and the same build
// left 4,051,416; before Node dropped its per-node parameter copies and
// 64-byte callback hooks it left 5,493,208.
TEST(Footprint, NodeStaysWithinItsByteBudget) {
  EXPECT_LE(sizeof(pcd::machine::Node) + sizeof(pcd::power::NodePowerModel*), 648u);
}

TEST(Footprint, ClusterAndCommBuildOf4096NodesStaysUnderItsHeapBytes) {
  constexpr int kNodes = 4096;
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  std::vector<int> ids(kNodes);
  std::iota(ids.begin(), ids.end(), 0);
  const std::int64_t before = heap_bytes();
  Cluster c(e, cfg);
  pcd::mpi::Comm comm(c, ids);
  const std::int64_t bytes = heap_bytes() - before;
  RecordProperty("live_bytes", std::to_string(bytes));
  EXPECT_LE(bytes, 3'450'000) << bytes << " live bytes after building " << kNodes << " nodes";
}

// A Cpu's residency counters are part of its record and its table and
// CpuConfig are the platform it refers to, so a Cpu of a cluster allocates
// nothing; a standalone Cpu allocates only its private platform.
TEST(Footprint, IdleCpuAllocatesNothing) {
  sim::Engine e;
  const pcd::cpu::CpuPlatform platform{e, pcd::cpu::OperatingPointTable::pentium_m_1400(),
                                       pcd::cpu::CpuConfig{}};
  std::int64_t before = heap_allocs();
  {
    pcd::cpu::Cpu cpu(platform, sim::Rng(1));
    EXPECT_EQ(heap_allocs() - before, 0);
  }
  const auto table = pcd::cpu::OperatingPointTable::pentium_m_1400();
  before = heap_allocs();
  pcd::cpu::Cpu standalone(e, table, pcd::cpu::CpuConfig{}, sim::Rng(1));
  EXPECT_EQ(heap_allocs() - before, 1);
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

TEST(Footprint, ExchangeRoundAllocatesOnlyItsMessageRecords) {
  // A CG-shaped round on each of two ranks: a sliced compute phase, then
  // irecv + isend and a waitall that parks.  The phase and the blocking
  // call are awaiters in the rank's frame and the requests sit in an array
  // there, so a round allocates only its message records: per message one
  // send record, one receive record and one transfer record.  With the frame
  // pool on the records come from the pool after warm-up; under
  // AddressSanitizer the pool is compiled out and each is a heap allocation,
  // so a per-call coroutine frame coming back would show here as well.
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.network.collision_coeff = 0.0;
  Cluster c(e, cfg);
  pcd::mpi::Comm comm(c, {0, 1});
  pcd::apps::AppContext ctx;
  ctx.comm = &comm;
  auto rank = [&](int r, int rounds) -> sim::Process {
    for (int i = 0; i < rounds; ++i) {
      co_await pcd::apps::compute_phase(ctx, r, 0.06, 0.04);  // two slices
      const pcd::mpi::Comm::Request reqs[] = {comm.irecv(r, 1 - r, 7),
                                              comm.isend(r, 1 - r, 7, 64 * 1024)};
      co_await comm.waitall(r, reqs);
    }
  };
  auto run = [&](int rounds) {
    const std::int64_t before = heap_allocs();
    sim::spawn(e, rank(0, rounds));
    sim::spawn(e, rank(1, rounds));
    e.run();
    return heap_allocs() - before;
  };
  // Warm the engine, the pools, the mailboxes and the port queues with a
  // run longer than either measured one (some engine storage grows with the
  // length of a run); the difference of the two runs is ten rounds.
  run(21);
  const std::int64_t one = run(1);
  const std::int64_t eleven = run(11);
#ifdef PCD_FRAME_POOL_DISABLED
  constexpr std::int64_t kRecords = 2 * 3;  // two messages
#else
  constexpr std::int64_t kRecords = 0;
#endif
  EXPECT_EQ(eleven - one, 10 * kRecords);
  constexpr int kRounds = 21 + 1 + 11;
  EXPECT_EQ(comm.stats().messages, 2 * kRounds);
  // Per round: four slice halves and the protocol work of two messages.
  EXPECT_EQ(c.node(0).cpu().stats().work_completed, kRounds * (4 + 2));
}

// The bytes of one exchange round's message records: per rank an irecv and
// an isend of 64 KB and a waitall.  The round runs on a fresh thread, whose
// frame pool is empty, so every pooled block it takes (a send and a receive
// record per rank, a transfer record per message) comes from ::operator new
// at its pool size class; the rank frames are made on this thread, and the
// engine, mailboxes and port queues are warmed by a first round here.  The
// measured 576 bytes are 4 x 112 (send and receive records, each its
// request's state with no control block) + 2 x 64 (transfers); the requests
// sit in an array in the rank frame.  Under AddressSanitizer the pool is off
// and blocks are their exact sizes, which stay within the same bound.
TEST(Footprint, ExchangeRoundRecordsStayWithinTheirBytes) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.network.collision_coeff = 0.0;
  Cluster c(e, cfg);
  pcd::mpi::Comm comm(c, {0, 1});
  auto rank = [&](int r) -> sim::Process {
    const pcd::mpi::Comm::Request reqs[] = {comm.irecv(r, 1 - r, 7),
                                            comm.isend(r, 1 - r, 7, 64 * 1024)};
    co_await comm.waitall(r, reqs);
  };
  auto spawn_round = [&] {
    sim::spawn(e, rank(0));
    sim::spawn(e, rank(1));
  };
  spawn_round();
  e.run();
  spawn_round();
  std::int64_t bytes = 0;
  std::thread([&] {
    const std::int64_t before = heap_bytes_allocated();
    e.run();
    bytes = heap_bytes_allocated() - before;
  }).join();
  RecordProperty("round_bytes", std::to_string(bytes));
  EXPECT_LE(bytes, 576) << bytes << " bytes for one exchange round";
  EXPECT_EQ(comm.stats().messages, 4);
  EXPECT_EQ(comm.live_records(), 0u);
}
