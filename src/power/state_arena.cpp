#include "power/state_arena.hpp"

#include <stdexcept>

#include "power/node_power.hpp"

namespace pcd::power {

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

void NodeStateArena::bind(int lane, NodePowerModel* view, sim::SimTime now) {
  const auto i = static_cast<std::size_t>(lane);
  if (i >= views_.size()) throw std::out_of_range("arena lane out of range");
  if (views_[i] != nullptr) throw std::logic_error("arena lane already bound");
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
