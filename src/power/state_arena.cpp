#include "power/state_arena.hpp"

#include <stdexcept>

#include "power/node_power.hpp"

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

NodeStateArena::NodeStateArena(int nodes) {
  if (nodes <= 0) throw std::invalid_argument("arena needs at least one lane");
  views_.assign(static_cast<std::size_t>(nodes), nullptr);
}

void NodeStateArena::bind(int lane, NodePowerModel* view, const NodePowerParams& params,
                          const cpu::OperatingPointTable& table) {
  const auto i = static_cast<std::size_t>(lane);
  if (i >= views_.size()) throw std::out_of_range("arena lane out of range");
  if (views_[i] != nullptr) throw std::logic_error("arena lane already bound");
  if (!cpu_model_.has_value()) {
    params_ = params;
    cpu_model_.emplace(params.cpu, table);
  } else if (!(*params_ == params) || cpu_model_->table().points() != table.points()) {
    throw std::invalid_argument("every lane of an arena shares one power configuration");
  }
  views_[i] = view;
}

void NodeStateArena::unbind(int lane) {
  views_[static_cast<std::size_t>(lane)] = nullptr;
}

const PowerLane& NodeStateArena::lane_of(int lane) const {
  static const PowerLane kUnbound{};
  const NodePowerModel* view = views_[static_cast<std::size_t>(lane)];
  return view != nullptr ? view->lane_ : kUnbound;
}

void NodeStateArena::accrue_all(sim::SimTime now) {
  for (const NodePowerModel* view : views_) {
    if (view != nullptr && view->lane_.dirty && now > view->lane_.last) view->refresh_watts();
  }
  // With every lane that matters refreshed, the integration itself is one
  // pass of pure lane arithmetic.
  for (const NodePowerModel* view : views_) {
    if (view == nullptr) continue;
    const double dt = sim::to_seconds(now - view->lane_.last);
    if (dt > 0) view->integrate(dt);
    view->lane_.last = now;
  }
}

void NodeStateArena::refresh_all() {
  for (const NodePowerModel* view : views_) {
    if (view != nullptr && view->lane_.dirty) view->refresh_watts();
  }
}

double NodeStateArena::total_joules() const {
  double total = 0;
  for (const NodePowerModel* view : views_) {
    if (view != nullptr) total += view->lane_total();
  }
  return total;
}

}  // namespace pcd::power
