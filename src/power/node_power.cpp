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
  lane_index_ = lane;
  lane_.last = engine.now();
  arena_->bind(lane_index_, this, params, cpu.table());
  cpu_.set_change_listener({&NodePowerModel::on_cpu_change, this});
}

NodePowerModel::~NodePowerModel() {
  cpu_.set_change_listener({});
  arena_->unbind(lane_index_);
}

void NodePowerModel::on_cpu_change(void* self) {
  const auto* m = static_cast<const NodePowerModel*>(self);
  m->accrue();              // integrate the closing interval at the old draw...
  m->lane_.dirty = true;    // ...then mark stale
  m->note_step();
}

void NodePowerModel::accrue_slow(sim::SimTime now) const {
  const double dt = sim::to_seconds(now - lane_.last);
  if (dt > 0) {
    // Refresh only when there is an interval to price: with dt == 0 the
    // stale cache costs nothing, and any same-instant state changes all
    // land before time advances, so deferring the refresh is exact.
    if (lane_.dirty) refresh_watts();
    integrate(dt);
  }
  lane_.last = now;
}

void NodePowerModel::set_digest(sim::DigestStream* digest, int node_id) {
  digest_ = digest;
  node_id_ = node_id;
}

double NodePowerModel::lane_total() const {
  const double* j = lane_.joules;
  return j[0] + j[1] + j[2] + j[3] + j[4];
}

void NodePowerModel::note_step_slow() const {
  const std::uint64_t rec[3] = {static_cast<std::uint64_t>(node_id_),
                                static_cast<std::uint64_t>(now()),
                                std::bit_cast<std::uint64_t>(lane_total())};
  digest_->fold_record(rec, 3);
}

void NodePowerModel::refresh_watts() const {
  double* w = lane_.watts;
  if (cpu_.offline()) {
    w[0] = w[1] = w[2] = w[3] = w[4] = 0.0;  // node dark: every component at 0 W
  } else {
    const NodePowerParams& p = *arena_->params_;
    w[0] = arena_->cpu_model_->watts_at(cpu_.power_index(), cpu_.activity());
    w[1] = p.mem_idle_watts + p.mem_active_watts * cpu_.mem_activity();
    w[2] = p.disk_watts;
    w[3] = p.nic_idle_watts + (lane_.nic_flows > 0 ? p.nic_active_watts : 0.0);
    w[4] = p.base_watts;
  }
  lane_.dirty = false;
}

PowerBreakdown NodePowerModel::breakdown() const {
  if (lane_.dirty) refresh_watts();
  const double* w = lane_.watts;
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
  const double* j = lane_.joules;
  EnergyBreakdown e;
  e.cpu = j[0];
  e.memory = j[1];
  e.disk = j[2];
  e.nic = j[3];
  e.other = j[4];
  return e;
}

void NodePowerModel::set_nic_flows(int flows) {
  if (flows == lane_.nic_flows) return;
  accrue();
  lane_.nic_flows = flows;
  lane_.dirty = true;  // the NIC component of the cached draw changed
  note_step();
}

}  // namespace pcd::power
