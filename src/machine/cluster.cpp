#include "machine/cluster.hpp"

#include <limits>
#include <stdexcept>

namespace pcd::machine {

namespace {

constexpr std::align_val_t kNodeAlign{alignof(Node)};

}  // namespace

Cluster::NodeArray::NodeArray(int capacity)
    : data_(static_cast<Node*>(
          ::operator new(sizeof(Node) * static_cast<std::size_t>(capacity), kNodeAlign))) {}

Cluster::NodeArray::~NodeArray() {
  for (int i = 0; i < size_; ++i) data_[i].~Node();
  ::operator delete(data_, kNodeAlign);
}

Cluster::Cluster(sim::Engine& engine, const ClusterConfig& config)
    : engine_(engine),
      config_(config),
      platform_{engine, config.node.operating_points, config.node.cpu},
      rng_(config.seed),
      arena_(config.nodes > 0 ? config.nodes : 1),
      nodes_(config.nodes > 0 ? config.nodes : 1) {
  if (config.nodes <= 0) throw std::invalid_argument("cluster needs at least one node");
  for (int i = 0; i < config.nodes; ++i) {
    nodes_.emplace_back(platform_, config.first_node_id + i, config_.node, rng_.split(),
                        arena_, i);
  }
  network_ = std::make_unique<net::Network>(
      engine, config.nodes, config.network, rng_.split(),
      [nodes = nodes_.data()](int node_id, int delta) {
        auto& pm = nodes[node_id].power();
        pm.set_nic_flows(pm.nic_flows() + delta);
      });
  std::vector<power::NodePowerModel*> outlets;
  outlets.reserve(static_cast<std::size_t>(nodes_.size()));
  for (int i = 0; i < nodes_.size(); ++i) outlets.push_back(&nodes_[i].power());
  baytech_ = std::make_unique<power::BaytechStrip>(engine, std::move(outlets),
                                                   config.baytech);
}

std::size_t Cluster::checked(int i) const {
  if (i < 0 || i >= nodes_.size()) throw std::out_of_range("cluster node index out of range");
  return static_cast<std::size_t>(i);
}

void Cluster::set_all_cpuspeed(int mhz) {
  for (int i = 0; i < nodes_.size(); ++i) {
    nodes_[i].set_cpuspeed(mhz, telemetry::DvsCause::External,
                    std::numeric_limits<double>::quiet_NaN(), "psetcpuspeed");
  }
}

void Cluster::attach_telemetry(telemetry::Hub* hub) {
  for (int i = 0; i < nodes_.size(); ++i) nodes_[i].attach_telemetry(hub);
  network_->attach_telemetry(hub);
  baytech_->attach_telemetry(hub);
}

double Cluster::total_energy_joules() const {
  // One batch pass over the arena: refresh dirty lanes, integrate all
  // lanes to now, then sum — the same doubles, in the same order, as
  // summing node(i).power().energy_joules() one node at a time.
  auto& arena = const_cast<power::NodeStateArena&>(arena_);
  arena.accrue_all(engine_.now());
  return arena_.total_joules();
}

}  // namespace pcd::machine
