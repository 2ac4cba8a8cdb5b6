// Unit tests for the network model: port FIFO serialization, latency,
// contention, the collision/backoff model, NIC activity callbacks.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/provenance.hpp"

namespace sim = pcd::sim;
using pcd::net::Network;
using pcd::net::NetworkParams;

namespace {

NetworkParams quiet_params() {
  NetworkParams p;
  p.collision_coeff = 0.0;  // disable stochastic penalties for timing tests
  return p;
}

sim::Process do_transfer(Network& net, int src, int dst, std::int64_t bytes,
                         sim::SimTime* done_at, sim::Engine* engine) {
  co_await net.transfer(src, dst, bytes, 1.0);
  if (done_at != nullptr) *done_at = engine->now();
}

}  // namespace

TEST(Network, UncontendedTimeFormula) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  // 1 MB at 100 Mb/s = 8e6 bits / 1e8 bps = 0.08 s, plus 90 us latency.
  const auto t = net.uncontended_time(1'000'000);
  EXPECT_EQ(t, sim::from_micros(90) + sim::from_seconds(0.08));
}

TEST(Network, SingleTransferCompletesAtServicePlusLatency) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done = 0;
  sim::spawn(e, do_transfer(net, 0, 1, 1'000'000, &done, &e));
  e.run();
  EXPECT_EQ(done, net.uncontended_time(1'000'000));
}

TEST(Network, ZeroByteTransferCostsLatency) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done = 0;
  sim::spawn(e, do_transfer(net, 0, 1, 0, &done, &e));
  e.run();
  EXPECT_EQ(done, sim::from_micros(90));
}

TEST(Network, SelfTransferIsImmediate) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done = -1;
  sim::spawn(e, do_transfer(net, 2, 2, 1'000'000, &done, &e));
  e.run();
  EXPECT_EQ(done, 0);
}

TEST(Network, FanInSerializesAtIngressPort) {
  // Two senders to the same receiver: second transfer waits for the first.
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done_a = 0, done_b = 0;
  sim::spawn(e, do_transfer(net, 0, 2, 1'000'000, &done_a, &e));
  sim::spawn(e, do_transfer(net, 1, 2, 1'000'000, &done_b, &e));
  e.run();
  const auto wire = sim::from_seconds(0.08);
  EXPECT_EQ(done_a, wire + sim::from_micros(90));
  EXPECT_EQ(done_b, 2 * wire + sim::from_micros(90));
}

TEST(Network, FanOutSerializesAtEgressPort) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done_a = 0, done_b = 0;
  sim::spawn(e, do_transfer(net, 0, 1, 1'000'000, &done_a, &e));
  sim::spawn(e, do_transfer(net, 0, 2, 1'000'000, &done_b, &e));
  e.run();
  EXPECT_LT(done_a, done_b);
}

TEST(Network, DisjointPairsRunInParallel) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::SimTime done_a = 0, done_b = 0;
  sim::spawn(e, do_transfer(net, 0, 1, 1'000'000, &done_a, &e));
  sim::spawn(e, do_transfer(net, 2, 3, 1'000'000, &done_b, &e));
  e.run();
  EXPECT_EQ(done_a, done_b);  // full-duplex switch: no shared port
}

TEST(Network, StatsCountTransfersAndBytes) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  sim::spawn(e, do_transfer(net, 0, 1, 1000, nullptr, &e));
  sim::spawn(e, do_transfer(net, 1, 2, 2000, nullptr, &e));
  e.run();
  EXPECT_EQ(net.stats().transfers, 2);
  EXPECT_EQ(net.stats().bytes, 3000);
  EXPECT_EQ(net.stats().collisions, 0);
  EXPECT_EQ(net.in_flight(), 0);
}

TEST(Network, NicActivityCallbackBalanced) {
  sim::Engine e;
  std::vector<int> level(4, 0);
  int max_seen = 0;
  NetworkParams p = quiet_params();
  Network net(e, 4, p, sim::Rng(1), [&](int node, int delta) {
    level[node] += delta;
    max_seen = std::max(max_seen, level[node]);
  });
  sim::spawn(e, do_transfer(net, 0, 1, 500'000, nullptr, &e));
  sim::spawn(e, do_transfer(net, 0, 2, 500'000, nullptr, &e));
  e.run();
  for (int l : level) EXPECT_EQ(l, 0);  // all flows ended
  EXPECT_GE(max_seen, 1);
}

TEST(Network, NoCollisionsBelowOverlapThreshold) {
  sim::Engine e;
  NetworkParams p;
  p.collision_coeff = 1.0;  // would always collide if overlap counted
  p.collision_free_transfers = 8;
  Network net(e, 4, p, sim::Rng(1));
  for (int i = 0; i < 4; ++i) {
    sim::spawn(e, do_transfer(net, i, (i + 1) % 4, 100'000, nullptr, &e));
  }
  e.run();
  EXPECT_EQ(net.stats().collisions, 0);
}

TEST(Network, HeavyOverlapCausesCollisions) {
  sim::Engine e;
  NetworkParams p;
  p.collision_coeff = 0.5;
  p.collision_free_transfers = 1;
  Network net(e, 8, p, sim::Rng(7));
  // 8 ranks all-to-all-ish burst: plenty of overlap, above collision size.
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s != d) sim::spawn(e, do_transfer(net, s, d, 400'000, nullptr, &e));
    }
  }
  e.run();
  EXPECT_GT(net.stats().collisions, 0);
  EXPECT_GT(net.stats().backoff_ns, 0);
}

TEST(Network, CollisionProbabilityGrowsWithSpeedRatio) {
  // Same traffic at speed_ratio 1.0 vs 0.43 (600/1400): higher ratio must
  // produce at least as many collisions on average across seeds.
  auto run_with_ratio = [](double ratio, int seed) {
    sim::Engine e;
    NetworkParams p;
    p.collision_coeff = 0.08;
    p.collision_free_transfers = 1;
    Network net(e, 8, p, sim::Rng(seed));
    auto xfer = [&](int s, int d) -> sim::Process {
      co_await net.transfer(s, d, 400'000, ratio);
    };
    for (int s = 0; s < 8; ++s) {
      for (int d = 0; d < 8; ++d) {
        if (s != d) sim::spawn(e, xfer(s, d));
      }
    }
    e.run();
    return net.stats().collisions;
  };
  std::int64_t fast = 0, slow = 0;
  for (int seed = 0; seed < 20; ++seed) {
    fast += run_with_ratio(1.0, seed);
    slow += run_with_ratio(600.0 / 1400.0, seed);
  }
  EXPECT_GT(fast, slow);
}

TEST(Network, DeterministicForEqualSeeds) {
  auto run_once = [](int seed) {
    sim::Engine e;
    NetworkParams p;
    p.collision_coeff = 0.2;
    p.collision_free_transfers = 0;
    Network net(e, 8, p, sim::Rng(seed));
    auto xfer = [&](int s, int d) -> sim::Process {
      co_await net.transfer(s, d, 300'000, 1.0);
    };
    for (int s = 0; s < 8; ++s) {
      sim::spawn(e, xfer(s, (s + 3) % 8));
    }
    e.run();
    return std::pair(e.now(), net.stats().backoff_ns);
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));  // and seeds matter
}

TEST(Network, RejectsEmptyNetwork) {
  sim::Engine e;
  EXPECT_THROW(Network(e, 0, NetworkParams{}, sim::Rng(1)), std::invalid_argument);
}

TEST(Network, RejectsZeroAndNegativeNodeCountsBeforeSizingPorts) {
  // A negative count is rejected as an invalid argument, not passed on to
  // the port vectors (where it would surface as std::length_error).
  sim::Engine e;
  for (int nodes : {0, -1, std::numeric_limits<int>::min()}) {
    try {
      Network net(e, nodes, NetworkParams{}, sim::Rng(1));
      ADD_FAILURE() << nodes << " nodes accepted";
    } catch (const std::invalid_argument& ex) {
      EXPECT_STREQ(ex.what(), "network needs at least one node") << nodes;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << nodes << " nodes threw " << ex.what();
    }
  }
}

// ---- Pinned transfer path ---------------------------------------------------
//
// Each case runs a small transfer pattern and asserts the event count, the
// engine's event-digest root (which folds every event's time, sequence,
// parent and scheduling-site label), a digest of the NIC activity and
// delivery callbacks, and the stats.  Any change to when or from where a
// transfer schedules a step moves them; re-pin only on an intended change of
// the simulated behaviour.

namespace {

struct NetPin {
  std::uint64_t events = 0;
  std::uint64_t event_hash = 0;
  std::uint64_t callback_hash = 0;  // NIC activity + deliveries, with times
  std::uint64_t rng_draws = 0;
  std::int64_t link_stalls = 0;
  std::int64_t collisions = 0;

  friend bool operator==(const NetPin&, const NetPin&) = default;
};

void PrintTo(const NetPin& p, std::ostream* os) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", %" PRIu64 ", %" PRId64
                ", %" PRId64 "}",
                p.events, p.event_hash, p.callback_hash, p.rng_draws, p.link_stalls,
                p.collisions);
  *os << buf;
}

// A network over `nodes` nodes with the event digest and RNG telemetry
// installed; `post(net, xfer)` posts the pattern, where xfer(src, dst, bytes)
// starts one transfer whose delivery is folded into the callback digest.
template <typename Post>
NetPin run_net_pinned(int nodes, NetworkParams params, Post post) {
  sim::Engine engine;
  sim::DigestStream events, callbacks, draws;
  sim::Engine::DeterminismHooks hooks;
  hooks.event_digest = &events;
  engine.set_determinism(hooks);
  sim::RngTelemetry::digest = &draws;
  sim::RngTelemetry::draws = 0;
  auto fold = [&](std::uint64_t kind, std::uint64_t a, std::uint64_t b) {
    const std::uint64_t rec[4] = {static_cast<std::uint64_t>(engine.now()), kind, a, b};
    callbacks.fold_record(rec, 4);
  };
  Network net(engine, nodes, params, sim::Rng(3), [&](int node, int delta) {
    fold(0, static_cast<std::uint64_t>(node), static_cast<std::uint64_t>(delta));
  });
  auto xfer = [&](int src, int dst, std::int64_t bytes) -> sim::Process {
    co_await net.transfer(src, dst, bytes, 1.0);
    fold(1, static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(dst));
  };
  post(engine, net, [&](int src, int dst, std::int64_t bytes) {
    sim::spawn(engine, xfer(src, dst, bytes));
  });
  engine.run();
  sim::RngTelemetry::digest = nullptr;
  EXPECT_EQ(net.in_flight(), 0);
  return NetPin{events.count, events.hash, callbacks.hash, sim::RngTelemetry::draws,
                net.stats().link_stalls, net.stats().collisions};
}

}  // namespace

TEST(NetPinned, FanInAndFanOutPortHandoffs) {
  // Three senders into node 2 (ingress handoffs) and node 0 sending to three
  // receivers (egress handoffs), posted at two instants.
  const NetPin pin = run_net_pinned(5, quiet_params(), [](sim::Engine& e, Network&, auto xfer) {
    xfer(0, 2, 300'000);
    xfer(1, 2, 100'000);
    xfer(3, 2, 20'000);
    xfer(0, 1, 50'000);
    xfer(0, 4, 64 * 1024);
    e.schedule_at(sim::from_millis(3), [xfer] { xfer(4, 2, 1000); xfer(0, 3, 1000); },
                  "test.post");
  });
  EXPECT_EQ(pin, (NetPin{35, 0x1658aff457f57acf, 0x0d3d0f09d8d0996e, 1, 0, 0}));
}

TEST(NetPinned, ZeroByteTransferSchedulesNoWireDelay) {
  const NetPin pin = run_net_pinned(3, quiet_params(), [](sim::Engine&, Network&, auto xfer) {
    xfer(0, 2, 1000);
    xfer(0, 1, 0);  // queued at node 0's egress behind the first
    xfer(1, 2, 0);  // queued at node 2's ingress behind the first
  });
  EXPECT_EQ(pin, (NetPin{12, 0xc97eaab43695f10f, 0xfc22a0d4d3091e14, 0, 0, 0}));
}

TEST(NetPinned, SelfTransferIsALocalCopy) {
  const NetPin pin = run_net_pinned(2, quiet_params(), [](sim::Engine&, Network&, auto xfer) {
    xfer(1, 1, 500'000);
    xfer(0, 1, 1000);
  });
  EXPECT_EQ(pin, (NetPin{6, 0x36d656f5d917d670, 0xdeb8340541915ffc, 0, 0, 0}));
}

TEST(NetPinned, StallOnDownSourceLink) {
  const NetPin pin = run_net_pinned(3, quiet_params(), [](sim::Engine& e, Network& net, auto xfer) {
    net.set_link_up(0, false);
    xfer(0, 1, 10'000);
    xfer(0, 2, 10'000);  // queued at the egress the stalled transfer holds
    xfer(2, 1, 10'000);  // queued at the ingress the stalled transfer holds
    e.schedule_at(sim::from_millis(2), [&net] { net.set_link_up(0, true); }, "test.link");
  });
  EXPECT_EQ(pin, (NetPin{16, 0x98ef59d7cdc9f5ac, 0xf9e01eb73d88d962, 0, 1, 0}));
}

TEST(NetPinned, StallOnDownDestinationLink) {
  const NetPin pin = run_net_pinned(3, quiet_params(), [](sim::Engine& e, Network& net, auto xfer) {
    net.set_link_up(1, false);
    xfer(0, 1, 10'000);
    xfer(2, 1, 10'000);
    e.schedule_at(sim::from_millis(2), [&net] { net.set_link_up(1, true); }, "test.link");
  });
  EXPECT_EQ(pin, (NetPin{11, 0x798eaf60e7f0c0cd, 0x821957025a7fc75b, 0, 1, 0}));
}

TEST(NetPinned, LinkFlapsBeforeTheStalledWakeRuns) {
  // Both ends down.  The source comes up and goes down again in one event,
  // so the stalled transfer's wake finds it down and parks again; once the
  // source is up for good the transfer waits on the destination, and a
  // source drop while it waits there does not send it back.
  const NetPin pin = run_net_pinned(3, quiet_params(), [](sim::Engine& e, Network& net, auto xfer) {
    net.set_link_up(0, false);
    net.set_link_up(1, false);
    xfer(0, 1, 10'000);
    xfer(2, 1, 10'000);
    e.schedule_at(sim::from_millis(1), [&net] {
      net.set_link_up(0, true);
      net.set_link_up(0, false);
    }, "test.link");
    e.schedule_at(sim::from_millis(2), [&net] { net.set_link_up(0, true); }, "test.link");
    e.schedule_at(sim::from_millis(3), [&net] { net.set_link_up(0, false); }, "test.link");
    e.schedule_at(sim::from_millis(4), [&net] {
      net.set_link_up(1, true);
      net.set_link_up(1, true);  // already up: wakes nothing twice
    }, "test.link");
    e.schedule_at(sim::from_millis(9), [&net] { net.set_link_up(0, true); }, "test.link");
  });
  EXPECT_EQ(pin, (NetPin{17, 0x805ecdcf353209fe, 0x6a5e65887487cb5b, 0, 1, 0}));
}

TEST(NetPinned, CollisionBoostPinsDrawsAndStats) {
  NetworkParams p;  // the default load/speed collision model, plus a boost
  p.collision_free_transfers = 1;
  const NetPin pin = run_net_pinned(6, p, [](sim::Engine& e, Network& net, auto xfer) {
    net.set_collision_boost(0.3);
    net.set_link_up(5, false);
    for (int s = 0; s < 5; ++s) {
      xfer(s, (s + 1) % 5, 400'000);
      xfer(s, 5, 300'000);
    }
    e.schedule_at(sim::from_millis(50), [&net] { net.set_link_up(5, true); }, "test.link");
  });
  EXPECT_EQ(pin, (NetPin{51, 0x7bb3d36addffe27a, 0x1564a706548ea5c1, 13, 1, 3}));
}

// ---- Teardown ---------------------------------------------------------------

namespace {

// Posts one transfer in each state a run can be cut in, then runs to
// `cut`: 0->1 on the wire, 0->2 queued at node 0's egress behind it, 3->1
// queued at node 1's ingress, 4->5 stalled on node 5's downed link.
void post_every_state(sim::Engine& e, Network& net, std::vector<sim::SimTime>& done) {
  net.set_link_up(5, false);
  auto xfer = [&](int src, int dst, std::int64_t bytes) -> sim::Process {
    co_await net.transfer(src, dst, bytes, 1.0);
    done.push_back(e.now());
  };
  sim::spawn(e, xfer(0, 1, 1'000'000));
  sim::spawn(e, xfer(0, 2, 1000));
  sim::spawn(e, xfer(3, 1, 1000));
  sim::spawn(e, xfer(4, 5, 1000));
  e.run_until(sim::from_millis(10));
}

}  // namespace

TEST(NetTeardown, NetworkThenEngineWithTransfersInEveryState) {
  // The leak checker (ASan with detect_leaks=1) confirms nothing survives.
  std::vector<sim::SimTime> done;
  std::optional<sim::Engine> engine(std::in_place);
  std::optional<Network> net(std::in_place, *engine, 6, quiet_params(), sim::Rng(1));
  post_every_state(*engine, *net, done);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(net->in_flight(), 4);
  EXPECT_EQ(net->stats().link_stalls, 1);
  engine->destroy_suspended_frames();
  net.reset();
  engine.reset();
}

TEST(NetTeardown, EngineThenNetworkWithTransfersInEveryState) {
  std::vector<sim::SimTime> done;
  std::optional<sim::Engine> engine(std::in_place);
  std::optional<Network> net(std::in_place, *engine, 6, quiet_params(), sim::Rng(1));
  post_every_state(*engine, *net, done);
  EXPECT_EQ(net->in_flight(), 4);
  engine.reset();
  net.reset();
  EXPECT_TRUE(done.empty());
}

TEST(Network, LinkQueriesRejectOutOfRangeNodes) {
  sim::Engine e;
  Network net(e, 4, quiet_params(), sim::Rng(1));
  EXPECT_THROW(net.link_up(4), std::out_of_range);
  EXPECT_THROW(net.link_up(-1), std::out_of_range);
  EXPECT_THROW(net.set_link_up(4, false), std::out_of_range);
  EXPECT_THROW(net.set_link_up(-1, true), std::out_of_range);
  EXPECT_TRUE(net.link_up(3));
}
