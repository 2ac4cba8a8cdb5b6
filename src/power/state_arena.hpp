// Per-node power integrator lanes and the cluster-wide view over them.
//
// Each node's integrator state — last-accrue tick, dirty bit, NIC flow
// count, cached per-component draw, cumulative per-component joules — is a
// PowerLane held inside its power::NodePowerModel, which a cluster keeps
// inside the node's contiguous machine::Node record right behind the CPU.
// A CPU state change therefore integrates into memory at a fixed offset
// from the CPU it came from.
//
// NodeStateArena is what stays cluster-wide: the one parameter block and
// CPU power model (with its per-point coefficients) that every lane
// shares, and a table of the bound views, in lane order, for the batch
// kernels (accrue_all, refresh_all, total_joules).
//
// Integration protocol (bit-identical to the per-object model):
//   - lane.watts caches the node's per-component draw as of the last
//     refresh; lane.dirty is set whenever simulation state may have
//     changed since (the CPU change listener fires *before* every change
//     and marks the lane after integrating the closing interval).
//   - An accrual refreshes a dirty lane from live CPU state, then
//     integrates joules += watts * dt.  Because every state change is
//     preceded by an accrual at the old draw, any un-integrated interval
//     is entirely under the *current* state, so a refresh at read time is
//     exact — the cached path reproduces the eager recompute bit for bit.
//   - Reads never fold digest records (the power digest is a function of
//     the simulation, not of who observed it); NodePowerModel::note_step
//     stays on the view.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/operating_point.hpp"
#include "power/cpu_power.hpp"
#include "sim/time.hpp"

namespace pcd::power {

class NodePowerModel;

struct NodePowerParams {
  CpuPowerParams cpu;
  double base_watts = 9.0;        // mainboard, bridges, PSU loss, panel off
  double mem_idle_watts = 1.2;    // DRAM refresh + standby
  double mem_active_watts = 2.2;  // extra at full DRAM activity
  double disk_watts = 0.8;        // spun down most of the time (no disk I/O modeled)
  double nic_idle_watts = 0.6;
  double nic_active_watts = 1.2;  // extra while a transfer touches this node

  friend bool operator==(const NodePowerParams&, const NodePowerParams&) = default;

  /// NEMO node: Dell Inspiron 8600 laptop, Pentium M 1.4 GHz.
  static NodePowerParams nemo();
  /// Pentium III server node used for the Figure 1 measurement.
  static NodePowerParams pentium_iii_server();
};


/// One node's integrator state.
struct PowerLane {
  /// Component lanes per node, in EnergyBreakdown order:
  /// cpu, memory, disk, nic, other.
  static constexpr int kComponents = 5;

  sim::SimTime last = 0;      // last-accrue tick
  std::int32_t nic_flows = 0; // live transfers touching the node
  bool dirty = true;          // watts cache stale?
  double watts[kComponents] = {};   // cached draw
  double joules[kComponents] = {};  // cumulative energy
};

class NodeStateArena {
 public:
  static constexpr int kComponents = PowerLane::kComponents;

  /// An arena of `nodes` lanes; lane i is served by the view bound to it.
  explicit NodeStateArena(int nodes);

  NodeStateArena(const NodeStateArena&) = delete;
  NodeStateArena& operator=(const NodeStateArena&) = delete;

  int size() const { return static_cast<int>(views_.size()); }

  /// The power parameters and CPU power model every lane shares: a
  /// cluster's nodes come from one NodeConfig, so one copy serves them all.
  /// Fixed by the first bind; valid once a lane has been bound.
  const NodePowerParams& params() const { return *params_; }
  const CpuPowerModel& cpu_model() const { return *cpu_model_; }

  /// Batch kernel: integrates every bound lane's cached draw up to `now`
  /// in one pass (dirty lanes are refreshed from live CPU state first).
  /// Pure read-side accrual — never folds digest records.
  void accrue_all(sim::SimTime now);

  /// Recomputes the cached draw of every dirty bound lane (no
  /// integration) so a subsequent sweep of breakdown() reads is pure
  /// lane loads.
  void refresh_all();

  /// Cumulative joules over all bound lanes, accumulated per lane in
  /// component order then summed in lane order — the same addition order
  /// as summing NodePowerModel::energy_joules() node by node.
  double total_joules() const;

  // ---- lane accessors (an unbound lane reads as zeros) ----

  int nic_flows(int lane) const { return lane_of(lane).nic_flows; }
  bool dirty(int lane) const { return lane_of(lane).dirty; }
  /// Cached per-component draw (kComponents doubles).  Valid when !dirty().
  const double* watts(int lane) const { return lane_of(lane).watts; }
  /// Cumulative per-component joules (kComponents doubles).
  const double* joules(int lane) const { return lane_of(lane).joules; }

 private:
  friend class NodePowerModel;

  /// Registers a view over `lane`.  The first bind fixes the shared
  /// parameters (the CPU model is built over `table`); a later bind with
  /// different ones throws.
  void bind(int lane, NodePowerModel* view, const NodePowerParams& params,
            const cpu::OperatingPointTable& table);
  void unbind(int lane);
  const PowerLane& lane_of(int lane) const;

  std::vector<NodePowerModel*> views_;      // bound view per lane (may be null)
  std::optional<NodePowerParams> params_;   // shared by every lane
  std::optional<CpuPowerModel> cpu_model_;
};

}  // namespace pcd::power
