// The simulated power-aware cluster (the paper's NEMO: 16 Pentium M nodes
// behind a 100 Mb switch, each with an ACPI battery; a Baytech strip spans
// all outlets).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
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
  /// Global id of node 0.  build_shard_clusters gives each shard's nodes
  /// their machine-wide ids (plan.first[s] + local); single-cluster runs
  /// leave this 0 and ids equal indices.  Only observers read node ids,
  /// and a sharded run has none.
  int first_node_id = 0;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  int size() const { return nodes_.size(); }
  /// Node `i` (throws std::out_of_range outside [0, size())).  The nodes are
  /// one array in id order: &node(i + 1) == &node(i) + 1.
  Node& node(int i) { return nodes_[checked(i)]; }
  const Node& node(int i) const { return nodes_[checked(i)]; }
  net::Network& network() { return *network_; }
  power::BaytechStrip& baytech() { return *baytech_; }
  const ClusterConfig& config() const { return config_; }

  /// The cluster-wide power view: the shared power parameters and CPU power
  /// model, and the batch kernels over every node's lane.
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
  /// Nodes in one 64-byte-aligned allocation, constructed in place in id
  /// order and destroyed in the same order.
  class NodeArray {
   public:
    explicit NodeArray(int capacity);
    ~NodeArray();
    NodeArray(const NodeArray&) = delete;
    NodeArray& operator=(const NodeArray&) = delete;

    template <typename... Args>
    void emplace_back(Args&&... args) {
      new (&data_[size_]) Node(std::forward<Args>(args)...);
      ++size_;
    }
    Node* data() const { return data_; }
    int size() const { return size_; }
    Node& operator[](std::size_t i) const { return data_[i]; }

   private:
    Node* data_;
    int size_ = 0;
  };

  std::size_t checked(int i) const;

  sim::Engine& engine_;
  ClusterConfig config_;
  cpu::CpuPlatform platform_;    // declared before the nodes: outlives them
  sim::Rng rng_;
  power::NodeStateArena arena_;  // declared before the nodes: views unbind first
  NodeArray nodes_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<power::BaytechStrip> baytech_;
};

}  // namespace pcd::machine
