#include "machine/cluster.hpp"

#include <limits>
#include <stdexcept>

namespace pcd::machine {

Cluster::Cluster(sim::Engine& engine, const ClusterConfig& config)
    : engine_(engine),
      config_(config),
      rng_(config.seed),
      arena_(config.nodes > 0 ? config.nodes : 1) {
  if (config.nodes <= 0) throw std::invalid_argument("cluster needs at least one node");
  nodes_.reserve(config.nodes);
  for (int i = 0; i < config.nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(engine, config.first_node_id + i,
                                            config.node, rng_.split(), &arena_, i));
  }
  network_ = std::make_unique<net::Network>(
      engine, config.nodes, config.network, rng_.split(),
      [this](int node_id, int delta) {
        auto& pm = nodes_.at(node_id)->power();
        pm.set_nic_flows(pm.nic_flows() + delta);
      });
  std::vector<power::NodePowerModel*> outlets;
  outlets.reserve(nodes_.size());
  for (auto& n : nodes_) outlets.push_back(&n->power());
  baytech_ = std::make_unique<power::BaytechStrip>(engine, std::move(outlets),
                                                   config.baytech);
}

void Cluster::set_all_cpuspeed(int mhz) {
  for (auto& n : nodes_) {
    n->set_cpuspeed(mhz, telemetry::DvsCause::External,
                    std::numeric_limits<double>::quiet_NaN(), "psetcpuspeed");
  }
}

void Cluster::attach_telemetry(telemetry::Hub* hub) {
  for (auto& n : nodes_) n->attach_telemetry(hub);
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
