// Simulated measurement instruments.
//
// The paper measures energy two independent ways (§4.2):
//   1. ACPI smart battery polling — remaining capacity in mWh (1 mWh =
//      3.6 J), refreshed only every 15–20 s, valid only while the node runs
//      on DC power.  Application energy = capacity(start) − capacity(end).
//   2. Baytech power-strip polling — per-outlet power averaged over
//      one-minute windows, reported via SNMP.
// Both are reproduced here as instruments reading the node's exact energy
// integrator through a quantizing/staleness filter, so the measurement
// error of the paper's methodology is part of the model.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "power/node_power.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "telemetry/hub.hpp"

namespace pcd::power {

struct AcpiBatteryParams {
  double capacity_mwh = 53000;  // Inspiron 8600 pack, ~53 Wh
  double refresh_min_s = 15.0;  // paper: "polling data updated every 15-20 seconds"
  double refresh_max_s = 20.0;
  double quantum_mwh = 1.0;     // smart-battery reporting granularity
};

/// Failure mode of the ACPI sensor path (the /proc/acpi reader), injectable
/// by the fault layer.  The battery itself keeps draining either way.
enum class SensorFault : std::uint8_t {
  None,     // healthy: refreshes report the quantized true value
  Stale,    // driver wedged: refreshes keep returning the last value
  Garbage,  // flaky SMBus: refreshes report random capacities
};

/// ACPI smart battery attached to one node, polled on the node's engine.
/// It keeps only the parameters it reads after construction (the refresh
/// bounds are drawn from once, in the constructor).
class AcpiBattery {
 public:
  AcpiBattery(NodePowerModel& node, AcpiBatteryParams params, sim::Rng rng);
  ~AcpiBattery() { stop_polling(); }

  AcpiBattery(const AcpiBattery&) = delete;
  AcpiBattery& operator=(const AcpiBattery&) = delete;

  /// Paper protocol step 1: fully charge (only sensible while on AC).
  void recharge_full();
  /// Paper protocol step 2: switch the node to DC; discharge begins.
  void disconnect_ac();
  /// Reconnect building power; discharge stops.
  void connect_ac();

  /// Begins the 15–20 s ACPI refresh loop (the refresh period and its phase
  /// are drawn once per battery).  Idempotent.
  void start_polling();
  void stop_polling();

  /// The value `/proc/acpi` would show: stale (last refresh) and quantized.
  double reported_remaining_mwh() const { return reported_mwh_; }
  /// Ground truth, for accuracy studies.  Clamped at 0: a pack cannot hold
  /// negative charge — past this point the node is simply dead.
  double true_remaining_mwh() const;

  /// Fault hooks ------------------------------------------------------
  void set_sensor_fault(SensorFault f) { sensor_fault_ = f; }
  /// Sudden capacity loss (cell failure): only `remaining_fraction` of the
  /// current true charge survives.
  void fail_capacity(double remaining_fraction);
  /// Invoked once when a refresh tick finds the pack empty while on DC
  /// (the node browns out); re-armed by recharge_full().
  void set_depleted(sim::Continuation cb) { on_depleted_ = cb; }
  std::optional<sim::SimTime> depleted_at() const { return depleted_at_; }

  double capacity_mwh() const { return capacity_mwh_; }
  sim::SimDuration refresh_period() const { return refresh_period_; }

  /// Counts ACPI refresh events as acpi_refreshes_total{node=...} so the
  /// measurement protocol's staleness window is observable.  Null detaches.
  void attach_telemetry(telemetry::Hub* hub, int node_id);

 private:
  void refresh_tick();
  double quantize(double mwh) const;

  NodePowerModel& node_;
  double capacity_mwh_;
  double quantum_mwh_;
  sim::Rng rng_;  // private stream for Garbage readings (drawn only then)
  sim::SimDuration refresh_period_;
  sim::SimDuration initial_phase_;

  double drained_joules_at_disconnect_ = 0;  // node energy when DC began
  double drained_mwh_before_ = 0;            // accumulated over past DC stints
  double level_mwh_;                         // capacity level (set by recharge)
  double reported_mwh_;

  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  telemetry::Counter* refreshes_ = nullptr;
  sim::Continuation on_depleted_;
  std::optional<sim::SimTime> depleted_at_;

  bool on_ac_ = true;
  bool polling_ = false;
  SensorFault sensor_fault_ = SensorFault::None;
};

struct BaytechParams {
  double window_s = 60.0;  // paper: "power related polling data is updated each minute"
};

/// One Baytech management-unit record: average outlet power per window.
struct BaytechRecord {
  sim::SimTime window_end = 0;
  std::vector<double> avg_watts;  // one entry per outlet
};

/// Baytech remote power strip: one outlet per node, plus remote on/off of
/// building power (used by the measurement protocol to flip nodes to DC).
class BaytechStrip {
 public:
  BaytechStrip(sim::Engine& engine, std::vector<NodePowerModel*> outlets,
               BaytechParams params = {});
  ~BaytechStrip() { stop_polling(); }

  BaytechStrip(const BaytechStrip&) = delete;
  BaytechStrip& operator=(const BaytechStrip&) = delete;

  void start_polling();
  void stop_polling();

  /// Fault hook: while set, the SNMP management unit stops answering —
  /// windows elapse but no records are appended (a gap in the log).
  void set_dropout(bool d) { dropout_ = d; }

  const std::vector<BaytechRecord>& records() const { return records_; }

  /// Integrates the per-minute records overlapping [t0, t1] into an energy
  /// estimate (joules over all outlets) — how the redundant measurement is
  /// used to verify ACPI numbers.
  double estimate_energy_joules(sim::SimTime t0, sim::SimTime t1) const;

  /// Counts completed one-minute windows as baytech_windows_total.
  void attach_telemetry(telemetry::Hub* hub);

 private:
  void tick();

  sim::Engine& engine_;
  std::vector<NodePowerModel*> outlets_;
  BaytechParams params_;
  std::vector<double> joules_at_window_start_;
  sim::SimTime window_start_ = 0;
  std::vector<BaytechRecord> records_;
  bool polling_ = false;
  bool dropout_ = false;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
  telemetry::Counter* windows_ = nullptr;
};

}  // namespace pcd::power
