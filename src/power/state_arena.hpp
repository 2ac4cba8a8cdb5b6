// Structure-of-arrays backing store for per-node power state.
//
// Every node's integrator state — last-accrue tick, cached per-component
// draw, cumulative per-component joules, NIC flow count — lives in
// contiguous lanes owned at the cluster layer, beside the one power
// parameter block and CPU power model all the lanes share.  power::NodePowerModel is a
// thin view over its lane: the public API and the exact piecewise-constant
// integration semantics are unchanged, but cluster-wide operations walk N
// dense lanes instead of N scattered heap objects.
//
// Integration protocol (bit-identical to the per-object model):
//   - watts_[lane] caches the node's per-component draw as of the last
//     refresh; dirty_[lane] is set whenever simulation state may have
//     changed since (the CPU change listener fires *before* every change
//     and marks the lane after integrating the closing interval).
//   - accrue_lane/accrue_all refresh dirty lanes from live CPU state, then
//     integrate joules += watts * dt.  Because every state change is
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


class NodeStateArena {
 public:
  /// Component lanes per node, in EnergyBreakdown order:
  /// cpu, memory, disk, nic, other.
  static constexpr int kComponents = 5;

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

  // ---- lane accessors ----

  int nic_flows(int lane) const { return nic_flows_[static_cast<std::size_t>(lane)]; }
  bool dirty(int lane) const { return dirty_[static_cast<std::size_t>(lane)] != 0; }
  /// Cached per-component draw (kComponents doubles).  Valid when !dirty().
  const double* watts(int lane) const {
    return &watts_[static_cast<std::size_t>(lane) * kComponents];
  }
  /// Cumulative per-component joules (kComponents doubles).
  const double* joules(int lane) const {
    return &joules_[static_cast<std::size_t>(lane) * kComponents];
  }

 private:
  friend class NodePowerModel;

  /// Registers a view over `lane` and resets the lane's integrator state.
  /// The first bind fixes the shared parameters (the CPU model's top point
  /// is `top`); a later bind with different ones throws.
  void bind(int lane, NodePowerModel* view, sim::SimTime now, const NodePowerParams& params,
            const cpu::OperatingPoint& top);
  void unbind(int lane);

  /// Per-lane accrual, shared by the view read path and accrue_all so the
  /// arithmetic (and therefore the doubles) is identical in both.
  // The no-elapsed-time case (several notifies at one instant) is the
  // common one on the listener path; keep it call-free.
  void accrue_lane(int lane, sim::SimTime now) {
    if (now == last_[static_cast<std::size_t>(lane)]) return;
    accrue_lane_slow(lane, now);
  }
  void accrue_lane_slow(int lane, sim::SimTime now);

  std::vector<sim::SimTime> last_;          // last-accrue tick
  std::vector<double> watts_;               // cached draw   [lane*5 + c]
  std::vector<double> joules_;              // cumulative    [lane*5 + c]
  std::vector<std::uint8_t> dirty_;         // watts cache stale?
  std::vector<std::int32_t> nic_flows_;     // live transfers touching node
  std::vector<NodePowerModel*> views_;      // bound view per lane (may be null)
  std::optional<NodePowerParams> params_;   // shared by every lane
  std::optional<CpuPowerModel> cpu_model_;
};

}  // namespace pcd::power
