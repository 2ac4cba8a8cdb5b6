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
  const auto n = static_cast<std::size_t>(nodes);
  last_.assign(n, 0);
  watts_.assign(n * kComponents, 0.0);
  joules_.assign(n * kComponents, 0.0);
  dirty_.assign(n, 1);
  nic_flows_.assign(n, 0);
  views_.assign(n, nullptr);
}

void NodeStateArena::bind(int lane, NodePowerModel* view, sim::SimTime now,
                          const NodePowerParams& params, const cpu::OperatingPoint& top) {
  const auto i = static_cast<std::size_t>(lane);
  if (i >= views_.size()) throw std::out_of_range("arena lane out of range");
  if (views_[i] != nullptr) throw std::logic_error("arena lane already bound");
  if (!cpu_model_.has_value()) {
    params_ = params;
    cpu_model_.emplace(params.cpu, top);
  } else if (!(*params_ == params) || !(cpu_model_->top() == top)) {
    throw std::invalid_argument("every lane of an arena shares one power configuration");
  }
  views_[i] = view;
  last_[i] = now;
  dirty_[i] = 1;
  nic_flows_[i] = 0;
  for (int c = 0; c < kComponents; ++c) {
    watts_[i * kComponents + static_cast<std::size_t>(c)] = 0.0;
    joules_[i * kComponents + static_cast<std::size_t>(c)] = 0.0;
  }
}

void NodeStateArena::unbind(int lane) {
  views_[static_cast<std::size_t>(lane)] = nullptr;
}

void NodeStateArena::accrue_lane_slow(int lane, sim::SimTime now) {
  const auto i = static_cast<std::size_t>(lane);
  const double dt = sim::to_seconds(now - last_[i]);
  if (dt > 0) {
    // Refresh only when there is an interval to price: with dt == 0 the
    // stale cache costs nothing, and any same-instant state changes all
    // land before time advances, so deferring the refresh is exact.
    if (dirty_[i]) views_[i]->refresh_watts();
    double* j = &joules_[i * kComponents];
    const double* w = &watts_[i * kComponents];
    j[0] += w[0] * dt;
    j[1] += w[1] * dt;
    j[2] += w[2] * dt;
    j[3] += w[3] * dt;
    j[4] += w[4] * dt;
  }
  last_[i] = now;
}

void NodeStateArena::accrue_all(sim::SimTime now) {
  const std::size_t n = views_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty_[i] && views_[i] != nullptr && now > last_[i]) {
      views_[i]->refresh_watts();
    }
  }
  // With every lane that matters refreshed, the integration itself is one
  // dense vectorizable pass.
  for (std::size_t i = 0; i < n; ++i) {
    if (views_[i] == nullptr) continue;
    const double dt = sim::to_seconds(now - last_[i]);
    if (dt > 0) {
      double* j = &joules_[i * kComponents];
      const double* w = &watts_[i * kComponents];
      j[0] += w[0] * dt;
      j[1] += w[1] * dt;
      j[2] += w[2] * dt;
      j[3] += w[3] * dt;
      j[4] += w[4] * dt;
    }
    last_[i] = now;
  }
}

void NodeStateArena::refresh_all() {
  const std::size_t n = views_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty_[i] && views_[i] != nullptr) views_[i]->refresh_watts();
  }
}

double NodeStateArena::total_joules() const {
  double total = 0;
  const std::size_t n = views_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (views_[i] == nullptr) continue;
    const double* j = &joules_[i * kComponents];
    total += j[0] + j[1] + j[2] + j[3] + j[4];
  }
  return total;
}

}  // namespace pcd::power
