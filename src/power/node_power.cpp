#include "power/node_power.hpp"

#include <bit>

namespace pcd::power {

NodePowerModel::NodePowerModel(sim::Engine& engine, cpu::Cpu& cpu,
                               NodePowerParams params, NodeStateArena* arena,
                               int lane)
    : engine_(engine), cpu_(cpu) {
  if (arena == nullptr) {
    owned_ = std::make_unique<NodeStateArena>(1);
    arena = owned_.get();
    lane = 0;
  }
  arena_ = arena;
  lane_ = lane;
  arena_->bind(lane_, this, engine.now(), params, cpu.table().highest());
  cpu_.set_change_listener({&NodePowerModel::on_cpu_change, this});
}

NodePowerModel::~NodePowerModel() {
  cpu_.set_change_listener({});
  arena_->unbind(lane_);
}

void NodePowerModel::on_cpu_change(void* self) {
  const auto* m = static_cast<const NodePowerModel*>(self);
  m->accrue();  // integrate the closing interval at the old draw...
  m->arena_->dirty_[static_cast<std::size_t>(m->lane_)] = 1;  // ...then mark stale
  m->note_step();
}

void NodePowerModel::set_digest(sim::DigestStream* digest, int node_id) {
  digest_ = digest;
  node_id_ = node_id;
}

double NodePowerModel::lane_total() const {
  const double* j = arena_->joules(lane_);
  return j[0] + j[1] + j[2] + j[3] + j[4];
}

void NodePowerModel::note_step_slow() const {
  const std::uint64_t rec[3] = {static_cast<std::uint64_t>(node_id_),
                                static_cast<std::uint64_t>(engine_.now()),
                                std::bit_cast<std::uint64_t>(lane_total())};
  digest_->fold_record(rec, 3);
}

void NodePowerModel::refresh_watts() const {
  const auto i = static_cast<std::size_t>(lane_);
  double* w = &arena_->watts_[i * NodeStateArena::kComponents];
  if (cpu_.offline()) {
    w[0] = w[1] = w[2] = w[3] = w[4] = 0.0;  // node dark: every component at 0 W
  } else {
    const NodePowerParams& p = *arena_->params_;
    w[0] = arena_->cpu_model_->watts(cpu_.power_op(), cpu_.activity());
    w[1] = p.mem_idle_watts + p.mem_active_watts * cpu_.mem_activity();
    w[2] = p.disk_watts;
    w[3] = p.nic_idle_watts + (arena_->nic_flows_[i] > 0 ? p.nic_active_watts : 0.0);
    w[4] = p.base_watts;
  }
  arena_->dirty_[i] = 0;
}

PowerBreakdown NodePowerModel::breakdown() const {
  if (arena_->dirty_[static_cast<std::size_t>(lane_)]) refresh_watts();
  const double* w = arena_->watts(lane_);
  PowerBreakdown b;
  b.cpu = w[0];
  b.memory = w[1];
  b.disk = w[2];
  b.nic = w[3];
  b.other = w[4];
  return b;
}


double NodePowerModel::energy_joules() const {
  accrue();
  return lane_total();
}

EnergyBreakdown NodePowerModel::energy_breakdown() const {
  accrue();
  const double* j = arena_->joules(lane_);
  EnergyBreakdown e;
  e.cpu = j[0];
  e.memory = j[1];
  e.disk = j[2];
  e.nic = j[3];
  e.other = j[4];
  return e;
}

void NodePowerModel::set_nic_flows(int flows) {
  const auto i = static_cast<std::size_t>(lane_);
  if (flows == arena_->nic_flows_[i]) return;
  accrue();
  arena_->nic_flows_[i] = flows;
  arena_->dirty_[i] = 1;  // the NIC component of the cached draw changed
  note_step();
}

}  // namespace pcd::power
