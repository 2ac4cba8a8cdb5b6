// Cluster interconnect model: a 100 Mb/s full-duplex switch (the paper's
// Cisco Catalyst 2950) with per-port FIFO service and an Ethernet-style
// collision/backoff penalty.
//
// A transfer from src to dst acquires src's egress port, then dst's
// ingress port (FIFO queues, event-driven — a port is never reserved into
// the future), occupies both for bytes/bandwidth, and completes one switch
// latency later.  Fan-in to one receiver serializes (the all-to-all hot
// spot); a sender's messages queue at its own NIC in posting order
// (head-of-line blocking, as with real TCP sockets); disjoint pairwise
// exchanges proceed in parallel.
//
// Each transfer is one pooled record, not a coroutine (DESIGN.md §3.5).  It
// runs as static steps that the engine, the ports and the links call back
// through sim::Continuation: egress -> ingress -> links -> wire -> deliver.
// The first step is scheduled as "process.spawn", a port handed to the next
// waiter as "net.port_handoff", wire time and latency as "process.delay",
// and a link-up wake as "event.set" (the labels are part of the event
// digest).  Every record not yet delivered is on an intrusive list that
// ~Network releases.
//
// Collision model (DESIGN.md §4.4): the paper observes that IS and SP run
// *faster below* peak CPU frequency and attributes it to collisions —
// "within a busy network, higher frequency may increase the probability of
// traffic collision and result longer waiting time for packet
// retransmission".  We encode that hypothesis directly: a large message
// risks a retransmission backoff with probability growing in the offered
// load (transfers in flight, queued or on the wire) and steeply in the
// injecting CPU's relative frequency (faster injection => burstier
// traffic).  Small messages never collide (they fit switch buffers).
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "telemetry/hub.hpp"

namespace pcd::net {

struct NetworkParams {
  double bandwidth_mbps = 100.0;                       // per port, full duplex
  sim::SimDuration latency = sim::from_micros(90.0);   // TCP small-message latency
  // Collision/backoff model.
  int collision_free_transfers = 2;       // offered load tolerated without risk
  double collision_coeff = 0.012;         // probability per excess in-flight transfer
  double collision_speed_exponent = 6.0;  // sensitivity to injection speed ratio
  double collision_prob_cap = 0.32;
  std::int64_t collision_min_bytes = 256 * 1024;  // bursts below this never collide
  sim::SimDuration backoff_min = sim::from_millis(5.0);
  sim::SimDuration backoff_max = sim::from_millis(15.0);
};

struct NetworkStats {
  std::int64_t transfers = 0;
  std::int64_t collisions = 0;
  sim::SimDuration backoff_ns = 0;
  std::int64_t bytes = 0;
  std::int64_t link_stalls = 0;  // transfers that had to wait out a downed link
};

class Network {
 public:
  /// `nic_activity(node, delta)` is invoked with +1/-1 as transfers begin /
  /// end wire occupancy on a node (drives NIC power).  May be empty.
  Network(sim::Engine& engine, int nodes, NetworkParams params, sim::Rng rng,
          sim::InlineFunction<void(int node, int delta)> nic_activity = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  /// Releases the transfers still in flight.  Pending engine events may
  /// still name them: never run the engine once its Network is gone.
  ~Network();

  int nodes() const { return static_cast<int>(egress_.size()); }
  const NetworkParams& params() const { return params_; }
  const NetworkStats& stats() const { return stats_; }
  /// Transfers posted but not yet delivered (queued or on the wire) — the
  /// offered load driving the collision probability.
  int in_flight() const { return in_flight_; }

  /// Mirrors NetworkStats into the registry (net_transfers_total,
  /// net_bytes_total, net_collisions_total, net_backoff_seconds_total).
  /// Null detaches.
  void attach_telemetry(telemetry::Hub* hub);

  /// Awaitable point-to-point transfer.  `speed_ratio` is the injecting
  /// CPU's current frequency divided by its maximum (drives the collision
  /// probability).  Completion = delivery at the receiver.
  struct [[nodiscard]] TransferAwaitable {
    Network* net;
    int src, dst;
    std::int64_t bytes;
    double speed_ratio;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      net->start_transfer(src, dst, bytes, speed_ratio, sim::Continuation::resume(h));
    }
    void await_resume() const {}
  };

  TransferAwaitable transfer(int src, int dst, std::int64_t bytes, double speed_ratio) {
    return TransferAwaitable{this, src, dst, bytes, speed_ratio};
  }

  /// Callback form of transfer(): `delivered` runs at delivery.
  void start_transfer(int src, int dst, std::int64_t bytes, double speed_ratio,
                      sim::Continuation delivered);

  /// Wire time of an uncontended transfer (no queueing, no collision, at
  /// nominal — undegraded — bandwidth).
  sim::SimDuration uncontended_time(std::int64_t bytes) const;

  /// Minimum latency over every link in the fabric.  Today all ports share
  /// NetworkParams::latency, so this is that value; heterogeneous per-link
  /// latencies must keep returning the fabric-wide minimum.  This bound is
  /// load-bearing for sharding: no message posted at time t can be
  /// delivered before t + min_latency(), which is exactly the conservative
  /// lookahead window ShardedEngine advances shards by (DESIGN.md §3.14).
  /// The constructor rejects non-positive latency — a zero here would
  /// silently collapse the lookahead to nothing.
  sim::SimDuration min_latency() const { return params_.latency; }

  /// Validates a parameter set the way the constructor does, but as
  /// structured issues (for RunConfig::validate): strictly positive latency
  /// and bandwidth.  `prefix` names the offending field ("cluster.network").
  static std::vector<std::pair<std::string, std::string>> validate_params(
      const NetworkParams& params, const std::string& prefix = "network");

  // ---- fault hooks (src/fault) ----

  /// Degrades effective per-port bandwidth to `factor` × nominal (duplex
  /// mismatch, failing switch fabric).  1.0 restores health.
  void set_bandwidth_factor(double factor);
  double bandwidth_factor() const { return bandwidth_factor_; }

  /// Adds a flat probability of retransmission backoff on top of the
  /// load/speed-driven collision model (noisy cabling).  0 restores health.
  void set_collision_boost(double boost);
  double collision_boost() const { return collision_boost_; }

  /// Link flap: while a node's link is down, its transfers (either
  /// direction) stall at the switch and resume when the link comes back.
  /// Both throw std::out_of_range for a node outside [0, nodes()).
  void set_link_up(int node, bool up);
  bool link_up(int node) const { return links_.at(static_cast<std::size_t>(node)).up; }

 private:
  /// Single-server FIFO resource (one per egress / ingress port).
  struct Port {
    bool busy = false;
    sim::Fifo<sim::Continuation> waiters;
  };

  /// A node's link to the switch; transfers stalled on it wait in order.
  struct Link {
    bool up = true;
    sim::Fifo<sim::Continuation> waiters;
  };

  struct Transfer;

  // Transfer steps, in order; each takes its record.
  static void transfer_egress(void* rec);
  static void transfer_ingress(void* rec);
  static void transfer_links(void* rec);
  static void transfer_wait_src(void* rec);
  static void transfer_wait_dst(void* rec);
  static void transfer_wire(void* rec);
  static void transfer_wire_done(void* rec);
  static void transfer_deliver(void* rec);

  /// Takes `port` now (true) or queues `next` for its handoff (false).
  static bool acquire(Port& port, sim::Continuation next);
  void release(Port& port);
  /// Runs `step` on `t` after `dt`; inline when dt <= 0, as sim::delay does.
  void after(sim::SimDuration dt, Transfer& t, void (*step)(void*));
  void free_transfer(Transfer& t);

  sim::Engine& engine_;
  NetworkParams params_;
  sim::Rng rng_;
  sim::InlineFunction<void(int, int)> nic_activity_;
  std::vector<Port> egress_;
  std::vector<Port> ingress_;
  std::vector<Link> links_;
  Transfer* live_ = nullptr;  // every undelivered transfer (intrusive list)
  double bandwidth_factor_ = 1.0;
  double collision_boost_ = 0.0;
  int in_flight_ = 0;
  NetworkStats stats_;
  telemetry::Counter* m_transfers_ = nullptr;
  telemetry::Counter* m_bytes_ = nullptr;
  telemetry::Counter* m_collisions_ = nullptr;
  telemetry::Counter* m_backoff_s_ = nullptr;
};

}  // namespace pcd::net
