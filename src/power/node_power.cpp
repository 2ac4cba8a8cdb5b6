#include "power/node_power.hpp"

#include <bit>

namespace pcd::power {

NodePowerParams NodePowerParams::nemo() {
  NodePowerParams p;
  p.cpu = CpuPowerParams::pentium_m();
  p.base_watts = 7.7;
  p.mem_idle_watts = 1.2;
  p.mem_active_watts = 2.2;
  p.disk_watts = 0.5;
  p.nic_idle_watts = 0.6;
  p.nic_active_watts = 1.2;
  return p;
}

NodePowerParams NodePowerParams::pentium_iii_server() {
  NodePowerParams p;
  p.cpu = CpuPowerParams::pentium_iii();
  p.base_watts = 26.0;  // server board, PSU loss, fans
  p.mem_idle_watts = 4.0;
  p.mem_active_watts = 5.0;
  p.disk_watts = 6.0;
  p.nic_idle_watts = 1.0;
  p.nic_active_watts = 1.5;
  return p;
}

NodePowerModel::NodePowerModel(sim::Engine& engine, cpu::Cpu& cpu,
                               NodePowerParams params, NodeStateArena* arena,
                               int lane)
    : engine_(engine),
      cpu_(cpu),
      params_(params),
      cpu_model_(params.cpu, cpu.table().highest()) {
  if (arena == nullptr) {
    owned_ = std::make_unique<NodeStateArena>(1);
    arena = owned_.get();
    lane = 0;
  }
  arena_ = arena;
  lane_ = lane;
  arena_->bind(lane_, this, engine.now());
  cpu_.set_change_listener([this] {
    accrue();  // integrate the closing interval at the old draw...
    arena_->dirty_[static_cast<std::size_t>(lane_)] = 1;  // ...then mark stale
    note_step();
  });
}

NodePowerModel::~NodePowerModel() {
  cpu_.set_change_listener({});
  arena_->unbind(lane_);
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
    w[0] = cpu_model_.watts(cpu_.power_op(), cpu_.activity());
    w[1] = params_.mem_idle_watts + params_.mem_active_watts * cpu_.mem_activity();
    w[2] = params_.disk_watts;
    w[3] = params_.nic_idle_watts +
           (arena_->nic_flows_[i] > 0 ? params_.nic_active_watts : 0.0);
    w[4] = params_.base_watts;
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
