// Whole-node power model and exact energy accounting.
//
// Node power = CPU + memory + disk + NIC + base (Figure 1's component
// breakdown).  Every component's draw is a piecewise-constant function of
// simulation state, so energy is integrated exactly: the model accrues
// joules whenever any input changes and on every read.
//
// Since the SoA refactor the integrator state itself (last-accrue tick,
// cached draw, cumulative joules, NIC flows) lives in a NodeStateArena
// lane, and the arena also holds the one NodePowerParams / CpuPowerModel
// all of its lanes share; NodePowerModel is a thin view over its lane.  The
// cluster passes its shared arena in; the standalone constructor (used by
// tests and single-node setups) owns a private one-lane arena, so the
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
  /// View over `lane` of `arena`; with arena == nullptr the model owns a
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
  int nic_flows() const { return arena_->nic_flows(lane_); }

  /// The parameters shared by every lane of the backing arena.
  const NodePowerParams& params() const { return arena_->params(); }

  /// The backing arena and this view's lane in it.
  NodeStateArena& arena() { return *arena_; }
  const NodeStateArena& arena() const { return *arena_; }
  int lane() const { return lane_; }

  /// Determinism observability: while set, every *simulation-driven*
  /// integration step (CPU state change, NIC flow change) folds one record
  /// (node, t, cumulative joules) into the stream.  Pure reads also accrue
  /// lazily but are deliberately NOT folded — the digest must be a function
  /// of the simulation, not of who observed it.
  void set_digest(sim::DigestStream* digest, int node_id);

 private:
  friend class NodeStateArena;

  void accrue() const { arena_->accrue_lane(lane_, engine_.now()); }
  void note_step() const {
    if (digest_ != nullptr) note_step_slow();
  }
  void note_step_slow() const;
  /// Recomputes the lane's cached per-component draw from live CPU state
  /// and clears the dirty bit.  The expressions are exactly the old eager
  /// breakdown(), so cached values match a fresh compute bit for bit.
  void refresh_watts() const;
  double lane_total() const;
  static void on_cpu_change(void* self);

  sim::Engine& engine_;
  cpu::Cpu& cpu_;
  NodeStateArena* arena_ = nullptr;
  std::unique_ptr<NodeStateArena> owned_;  // standalone ctor only
  sim::DigestStream* digest_ = nullptr;
  int lane_ = 0;
  int node_id_ = -1;
};

}  // namespace pcd::power
