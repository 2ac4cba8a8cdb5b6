// A power-aware cluster node: CPU with DVS + node power model + ACPI battery.
#pragma once

#include <memory>

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

class Node {
 public:
  /// `arena`/`lane` select the node's backing lane in a cluster-owned
  /// power::NodeStateArena; without them the node's power model owns a
  /// private one-lane arena (standalone construction keeps working).
  Node(sim::Engine& engine, int id, const NodeConfig& config, sim::Rng rng,
       power::NodeStateArena* arena = nullptr, int lane = 0)
      : id_(id),
        cpu_(engine, config.operating_points, config.cpu, rng.split()),
        power_(engine, cpu_, config.power, arena, lane),
        battery_(engine, power_, config.battery, rng.split()),
        requested_mhz_(cpu_.frequency_mhz()) {
    battery_.set_depleted([this] { handle_battery_depleted(); });
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
  void handle_battery_depleted() {
    if (cpu_.offline()) return;
    cpu_.power_off();
    if (telemetry_ != nullptr) {
      telemetry_->record_fault({cpu_.engine().now(), id_, "battery_depleted",
                               telemetry::FaultPhase::Detected,
                               "smart battery empty: node lost power"});
    }
  }

  int id_;
  telemetry::Hub* telemetry_ = nullptr;
  cpu::Cpu cpu_;
  power::NodePowerModel power_;
  power::AcpiBattery battery_;
  int requested_mhz_;
};

}  // namespace pcd::machine
