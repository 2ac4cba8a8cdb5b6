// Whole-node power model and exact energy accounting.
//
// Node power = CPU + memory + disk + NIC + base (Figure 1's component
// breakdown).  Every component's draw is a piecewise-constant function of
// simulation state, so energy is integrated exactly: the model accrues
// joules whenever any input changes and on every read.
//
// The integrator state itself (last-accrue tick, dirty bit, NIC flows,
// cached draw, cumulative joules) is the model's own PowerLane, its first
// member; the NodeStateArena it binds to holds the one NodePowerParams /
// CpuPowerModel all of its lanes share and walks the lanes for batch reads.
// The cluster passes its shared arena in; the standalone constructor (used
// by tests and single-node setups) owns a private one-lane arena, so the
// public API and the integration arithmetic are identical either way.
#pragma once

#include <memory>

#include "cpu/cpu.hpp"
#include "power/cpu_power.hpp"
#include "power/state_arena.hpp"
#include "sim/engine.hpp"

namespace pcd::power {

/// Instantaneous per-component wattage.
struct PowerBreakdown {
  double cpu = 0;
  double memory = 0;
  double disk = 0;
  double nic = 0;
  double other = 0;
  double total() const { return cpu + memory + disk + nic + other; }
};

/// Cumulative per-component energy (joules).
struct EnergyBreakdown {
  double cpu = 0;
  double memory = 0;
  double disk = 0;
  double nic = 0;
  double other = 0;
  double total() const { return cpu + memory + disk + nic + other; }
};

class NodePowerModel {
 public:
  /// Bound to `lane` of `arena`; with arena == nullptr the model owns a
  /// private one-lane arena (standalone use keeps working unchanged).
  NodePowerModel(sim::Engine& engine, cpu::Cpu& cpu, NodePowerParams params,
                 NodeStateArena* arena = nullptr, int lane = 0);
  ~NodePowerModel();

  NodePowerModel(const NodePowerModel&) = delete;
  NodePowerModel& operator=(const NodePowerModel&) = delete;

  /// Current per-component draw (served from the lane's cached watts,
  /// refreshed from live CPU state when stale — bit-identical to an eager
  /// recompute).
  PowerBreakdown breakdown() const;
  double watts() const { return breakdown().total(); }

  /// Exact cumulative node energy up to now.
  double energy_joules() const;
  /// Exact cumulative per-component energy up to now.
  EnergyBreakdown energy_breakdown() const;

  /// Number of network transfers currently touching this node (drives NIC
  /// active power).  Maintained by the network model.
  void set_nic_flows(int flows);
  int nic_flows() const { return lane_.nic_flows; }

  /// The engine the node runs on.
  sim::Engine& engine() const { return engine_; }

  /// The parameters shared by every lane of the backing arena.
  const NodePowerParams& params() const { return arena_->params(); }

  /// The backing arena and this model's lane in it.
  NodeStateArena& arena() { return *arena_; }
  const NodeStateArena& arena() const { return *arena_; }
  int lane() const { return lane_index_; }

  /// Determinism observability: while set, every *simulation-driven*
  /// integration step (CPU state change, NIC flow change) folds one record
  /// (node, t, cumulative joules) into the stream.  Pure reads also accrue
  /// lazily but are deliberately NOT folded — the digest must be a function
  /// of the simulation, not of who observed it.
  void set_digest(sim::DigestStream* digest, int node_id);

 private:
  friend class NodeStateArena;

  sim::SimTime now() const { return engine_.now(); }
  // The no-elapsed-time case (several notifies at one instant) is the
  // common one on the listener path; keep it call-free.
  void accrue() const {
    const sim::SimTime t = now();
    if (t != lane_.last) accrue_slow(t);
  }
  void accrue_slow(sim::SimTime now) const;
  /// Adds watts * dt to every component, in component order.
  void integrate(double dt) const {
    double* j = lane_.joules;
    const double* w = lane_.watts;
    j[0] += w[0] * dt;
    j[1] += w[1] * dt;
    j[2] += w[2] * dt;
    j[3] += w[3] * dt;
    j[4] += w[4] * dt;
  }
  void note_step() const {
    if (digest_ != nullptr) note_step_slow();
  }
  void note_step_slow() const;
  /// Recomputes the lane's cached per-component draw from live CPU state
  /// and clears the dirty bit.  The values are exactly the old eager
  /// breakdown()'s, so cached values match a fresh compute bit for bit.
  void refresh_watts() const;
  double lane_total() const;
  static void on_cpu_change(void* self);

  // The lane leads (in a machine::Node it directly follows the Cpu's hot
  // line): the CPU change listener and the NIC hook land on it.  Reads
  // accrue lazily, so it is mutable.
  mutable PowerLane lane_;
  sim::Engine& engine_;
  cpu::Cpu& cpu_;
  NodeStateArena* arena_ = nullptr;
  sim::DigestStream* digest_ = nullptr;
  std::unique_ptr<NodeStateArena> owned_;  // standalone ctor only
  int lane_index_ = 0;
  int node_id_ = -1;
};

}  // namespace pcd::power
