// A power-aware cluster node: CPU with DVS + node power model + ACPI battery.
#pragma once

#include <limits>
#include <string>
#include <utility>

#include "cpu/cpu.hpp"
#include "power/meters.hpp"
#include "power/node_power.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "telemetry/hub.hpp"

namespace pcd::machine {

struct NodeConfig {
  cpu::OperatingPointTable operating_points = cpu::OperatingPointTable::pentium_m_1400();
  cpu::CpuConfig cpu;
  power::NodePowerParams power = power::NodePowerParams::nemo();
  power::AcpiBatteryParams battery;
};

/// One rank's record.  In a cluster the nodes are one contiguous array
/// (machine::Cluster).  A node is 64-byte aligned and leads with its Cpu,
/// a whole number of cache lines whose last line holds every field a state
/// change touches; the power model's lane starts on the next line, so a
/// state change integrates into the line after the one it updates.
class alignas(64) Node {
 public:
  /// A node of a cluster: its Cpu refers to the cluster's `platform` and
  /// its power model binds `lane` of the cluster's `arena`.
  Node(const cpu::CpuPlatform& platform, int id, const NodeConfig& config, sim::Rng rng,
       power::NodeStateArena& arena, int lane)
      : cpu_(platform, rng.split()),
        power_(platform.engine, cpu_, config.power, &arena, lane),
        battery_(power_, config.battery, rng.split()),
        id_(id) {
    init();
  }

  /// A standalone node: the Cpu keeps a private platform and the power
  /// model a private one-lane arena.
  Node(sim::Engine& engine, int id, const NodeConfig& config, sim::Rng rng)
      : cpu_(engine, config.operating_points, config.cpu, rng.split()),
        power_(engine, cpu_, config.power),
        battery_(power_, config.battery, rng.split()),
        id_(id) {
    init();
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  cpu::Cpu& cpu() { return cpu_; }
  const cpu::Cpu& cpu() const { return cpu_; }
  power::NodePowerModel& power() { return power_; }
  const power::NodePowerModel& power() const { return power_; }
  power::AcpiBattery& battery() { return battery_; }
  const power::AcpiBattery& battery() const { return battery_; }

  /// The PowerPack DVS control entry point (set_cpuspeed in Figure 3).
  /// Strategy code passes its cause (and, for the daemons, the utilization
  /// sample that triggered the decision) so the telemetry decision log can
  /// answer *why* a node changed speed.  No-op requests (already at `mhz`)
  /// are not logged, matching the CPU's "writing the current speed costs
  /// nothing" semantics.
  void set_cpuspeed(int mhz, telemetry::DvsCause cause = telemetry::DvsCause::Api,
                    double utilization = std::numeric_limits<double>::quiet_NaN(),
                    std::string detail = {}) {
    if (telemetry_ != nullptr && mhz != cpu_.frequency_mhz()) {
      telemetry_->record_decision({cpu_.engine().now(), id_, cpu_.frequency_mhz(),
                                   mhz, cause, utilization, std::move(detail)});
    }
    requested_mhz_ = mhz;
    cpu_.set_frequency_mhz(mhz);
  }

  /// Last speed any strategy *asked* for — diverges from the CPU's actual
  /// frequency when the DVS driver is stuck (the watchdog compares the two).
  int requested_mhz() const { return requested_mhz_; }

  /// Fault hooks: hard power loss and reboot.
  void power_off() { cpu_.power_off(); }
  void power_on() {
    cpu_.power_on();
    requested_mhz_ = cpu_.frequency_mhz();  // BIOS default, nothing requested yet
  }

  /// Attaches (or detaches, with null) the telemetry hub to this node: DVS
  /// decisions are logged here and completed transitions at the CPU.
  void attach_telemetry(telemetry::Hub* hub) {
    telemetry_ = hub;
    cpu_.attach_telemetry(hub, id_);
    battery_.attach_telemetry(hub, id_);
  }

 private:
  void init() {
    requested_mhz_ = cpu_.frequency_mhz();
    battery_.set_depleted({&Node::on_battery_depleted, this});
  }
  static void on_battery_depleted(void* self) {
    static_cast<Node*>(self)->handle_battery_depleted();
  }
  void handle_battery_depleted() {
    if (cpu_.offline()) return;
    cpu_.power_off();
    if (telemetry_ != nullptr) {
      telemetry_->record_fault({cpu_.engine().now(), id_, "battery_depleted",
                               telemetry::FaultPhase::Detected,
                               "smart battery empty: node lost power"});
    }
  }

  cpu::Cpu cpu_;                 // first: 64-byte aligned, hot line last
  power::NodePowerModel power_;  // lane first: right after the Cpu's hot line
  power::AcpiBattery battery_;
  telemetry::Hub* telemetry_ = nullptr;
  int id_;
  int requested_mhz_ = 0;
};

// The power lane starts on the line after the Cpu's hot line only while the
// Cpu is a whole number of cache lines (Cluster.NodesAreOneArrayInIdOrder
// checks the lane's offset in the record).
static_assert(sizeof(cpu::Cpu) % 64 == 0, "cpu::Cpu must be whole cache lines");

}  // namespace pcd::machine
