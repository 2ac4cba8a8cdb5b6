// The simulated power-aware cluster (the paper's NEMO: 16 Pentium M nodes
// behind a 100 Mb switch, each with an ACPI battery; a Baytech strip spans
// all outlets).
#pragma once

#include <memory>
#include <vector>

#include "machine/node.hpp"
#include "net/network.hpp"
#include "power/meters.hpp"
#include "power/state_arena.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace pcd::machine {

struct ClusterConfig {
  int nodes = 16;
  NodeConfig node;
  net::NetworkParams network;
  power::BaytechParams baytech;
  std::uint64_t seed = 0x5eed;
  /// Global id of node 0.  A sharded run builds one Cluster per shard; the
  /// shard's nodes carry their machine-wide ids (plan.first[s] + local), so
  /// telemetry/fault/trace records name the same node regardless of shard
  /// count.  Single-cluster runs leave this 0 and ids equal indices.
  int first_node_id = 0;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  int size() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_.at(i); }
  const Node& node(int i) const { return *nodes_.at(i); }
  net::Network& network() { return *network_; }
  power::BaytechStrip& baytech() { return *baytech_; }
  const ClusterConfig& config() const { return config_; }

  /// The cluster-owned structure-of-arrays power state; every node's power
  /// model is a view over one lane.
  power::NodeStateArena& arena() { return arena_; }
  const power::NodeStateArena& arena() const { return arena_; }

  /// EXTERNAL control: "psetcpuspeed <mhz>" — set every node statically,
  /// in node order, through Node::set_cpuspeed under the External cause.
  void set_all_cpuspeed(int mhz);

  /// Wires the telemetry hub through the whole machine: node DVS decision
  /// logging, CPU transition events, ACPI/Baytech meter counters, and
  /// network collision/backoff counters.  Null detaches everywhere.
  void attach_telemetry(telemetry::Hub* hub);

  /// Exact total cluster energy so far (sum of node integrators).
  double total_energy_joules() const;

  /// Derives an independent RNG stream (for schedulers, workloads, ...).
  sim::Rng rng_stream() { return rng_.split(); }

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  sim::Rng rng_;
  power::NodeStateArena arena_;  // declared before nodes_: views unbind first
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<power::BaytechStrip> baytech_;
};

}  // namespace pcd::machine
