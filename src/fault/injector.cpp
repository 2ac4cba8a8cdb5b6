#include "fault/injector.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

namespace pcd::fault {

FaultInjector::FaultInjector(sim::Engine& engine, machine::Cluster& cluster,
                             FaultPlan plan, sim::Rng rng, FaultReport* report)
    : engine_(engine),
      cluster_(cluster),
      plan_(std::move(plan)),
      rng_(rng),
      report_(report),
      down_since_(cluster.size(), -1) {}

void FaultInjector::record(int node, const char* kind, telemetry::FaultPhase phase,
                           std::string detail) {
  const double t_s = sim::to_seconds(engine_.now());
  // Report/telemetry entries carry the node's id (its index: fault plans
  // run on one whole cluster).
  const int id = node >= 0 ? cluster_.node(node).id() : node;
  if (report_ != nullptr) {
    report_->record(t_s, id, kind, telemetry::to_string(phase), detail);
  }
  if (hub_ != nullptr) {
    hub_->record_fault({engine_.now(), id, kind, phase, std::move(detail)});
  }
}

void FaultInjector::schedule(const FaultEvent& e) {
  pending_.push_back(
      engine_.schedule_in(sim::from_seconds(e.at_s), [this, e] { apply(e); },
                          "fault.inject"));
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  for (const auto& e : plan_.events) schedule(e);
  // Hazard arrivals: exponential inter-arrival times, all sampled now from
  // the injector's private stream so the schedule is a pure function of
  // (plan, seed).
  for (const auto& h : plan_.hazards) {
    // Defense in depth: RunConfig::validate() rejects non-positive MTBFs,
    // but a hazard that slips through (hand-armed injector) must not spin
    // forever generating zero-spaced arrivals.
    if (h.mtbf_s <= 0) continue;
    double t = 0;
    while (true) {
      const double u = rng_.uniform(0.0, 1.0);
      t += -std::log(1.0 - u) * h.mtbf_s;
      if (t > plan_.horizon_s) break;
      FaultEvent e;
      e.at_s = t;
      e.kind = h.kind;
      e.node = h.node >= 0
                   ? h.node
                   : static_cast<int>(rng_.uniform_int(
                         static_cast<std::uint64_t>(cluster_.size())));
      e.duration_s = h.duration_s;
      e.magnitude = h.magnitude;
      e.collision_boost = h.collision_boost;
      e.boot_delay_s = h.boot_delay_s;
      e.note = "hazard";
      schedule(e);
    }
  }
}

void FaultInjector::disarm() {
  for (auto id : pending_) engine_.cancel(id);
  pending_.clear();
  armed_ = false;
}

void FaultInjector::finalize() {
  if (report_ == nullptr) return;
  for (std::size_t i = 0; i < down_since_.size(); ++i) {
    if (down_since_[i] >= 0) {
      report_->node_downtime_s += sim::to_seconds(engine_.now() - down_since_[i]);
      down_since_[i] = -1;
    }
  }
  for (int i = 0; i < cluster_.size(); ++i) {
    report_->dvs_requests_dropped += cluster_.node(i).cpu().stats().dvs_requests_dropped;
  }
}

void FaultInjector::crash_node(int node, double boot_delay_s) {
  auto& n = cluster_.node(node);
  if (n.cpu().offline()) return;  // already dark
  n.power_off();
  down_since_[node] = engine_.now();
  char buf[160];
  if (ckpt_ != nullptr) {
    const double redo = ckpt_->redo_seconds(engine_.now());
    const double downtime = boot_delay_s + redo;
    std::snprintf(buf, sizeof buf,
                  "hard power loss; reboot in %.1f s + %.1f s redo from last checkpoint",
                  boot_delay_s, redo);
    record(node, "node_crash", telemetry::FaultPhase::Injected, buf);
    if (report_ != nullptr) report_->redo_s += redo;
    pending_.push_back(
        engine_.schedule_in(
            sim::from_seconds(downtime),
            [this, node, downtime] {
          cluster_.node(node).power_on();
          if (down_since_[node] >= 0 && report_ != nullptr) {
            report_->node_downtime_s +=
                sim::to_seconds(engine_.now() - down_since_[node]);
            ++report_->node_reboots;
          }
          down_since_[node] = -1;
          char msg[128];
          std::snprintf(msg, sizeof msg,
                        "rebooted after %.1f s, restarted from checkpoint", downtime);
          record(node, "node_crash", telemetry::FaultPhase::Recovered, msg);
            },
            "fault.reboot"));
  } else {
    record(node, "node_crash", telemetry::FaultPhase::Injected,
           "hard power loss; no checkpoint/restart armed — node stays down");
  }
}

void FaultInjector::apply(const FaultEvent& e) {
  char buf[160];
  switch (e.kind) {
    case FaultKind::NodeCrash:
      crash_node(e.node, e.boot_delay_s);
      return;  // crash_node records (reboot is its own schedule, not clear())
    case FaultKind::Straggler:
      cluster_.node(e.node).cpu().set_efficiency(e.magnitude);
      std::snprintf(buf, sizeof buf, "CPU efficiency degraded to %.0f%%",
                    e.magnitude * 100.0);
      record(e.node, "straggler", telemetry::FaultPhase::Injected, buf);
      break;
    case FaultKind::StuckDvs:
      cluster_.node(e.node).cpu().set_dvs_stuck(true);
      std::snprintf(buf, sizeof buf, "DVS driver wedged; pinned at %d MHz",
                    cluster_.node(e.node).cpu().frequency_mhz());
      record(e.node, "stuck_dvs", telemetry::FaultPhase::Injected, buf);
      break;
    case FaultKind::NicDegrade:
      cluster_.network().set_bandwidth_factor(e.magnitude);
      cluster_.network().set_collision_boost(e.collision_boost);
      std::snprintf(buf, sizeof buf,
                    "bandwidth down to %.0f%%, collision boost +%.2f",
                    e.magnitude * 100.0, e.collision_boost);
      record(-1, "nic_degrade", telemetry::FaultPhase::Injected, buf);
      break;
    case FaultKind::LinkFlap:
      cluster_.network().set_link_up(e.node, false);
      record(e.node, "link_flap", telemetry::FaultPhase::Injected,
             "switch link down; transfers stall");
      break;
    case FaultKind::BatteryFail: {
      auto& b = cluster_.node(e.node).battery();
      b.disconnect_ac();
      b.fail_capacity(e.magnitude);
      b.start_polling();  // depletion is detected at ACPI refresh granularity
      std::snprintf(buf, sizeof buf,
                    "AC lost; %.0f%% of pack charge survives (%.0f mWh)",
                    e.magnitude * 100.0, b.true_remaining_mwh());
      record(e.node, "battery_fail", telemetry::FaultPhase::Injected, buf);
      break;
    }
    case FaultKind::SensorDropout: {
      const auto mode = e.sensor == SensorMode::Stale ? power::SensorFault::Stale
                                                      : power::SensorFault::Garbage;
      if (e.node >= 0) {
        cluster_.node(e.node).battery().set_sensor_fault(mode);
      } else {
        for (int i = 0; i < cluster_.size(); ++i) {
          cluster_.node(i).battery().set_sensor_fault(mode);
        }
        cluster_.baytech().set_dropout(true);
      }
      record(e.node, "sensor_dropout", telemetry::FaultPhase::Injected,
             e.sensor == SensorMode::Stale ? "ACPI readings frozen"
                                           : "ACPI readings garbage");
      break;
    }
    case FaultKind::DaemonWedge:
      if (wedger_) wedger_(e.node);
      record(e.node, "daemon_wedge", telemetry::FaultPhase::Injected,
             "DVS daemon process hung");
      break;
  }
  if (e.duration_s > 0) {
    pending_.push_back(engine_.schedule_in(sim::from_seconds(e.duration_s),
                                           [this, e] { clear(e); },
                                           "fault.clear"));
  }
}

void FaultInjector::clear(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::Straggler:
      cluster_.node(e.node).cpu().set_efficiency(1.0);
      record(e.node, "straggler", telemetry::FaultPhase::Cleared,
             "CPU efficiency restored");
      break;
    case FaultKind::StuckDvs:
      cluster_.node(e.node).cpu().set_dvs_stuck(false);
      record(e.node, "stuck_dvs", telemetry::FaultPhase::Cleared,
             "DVS driver accepting writes again");
      break;
    case FaultKind::NicDegrade:
      cluster_.network().set_bandwidth_factor(1.0);
      cluster_.network().set_collision_boost(0.0);
      record(-1, "nic_degrade", telemetry::FaultPhase::Cleared,
             "network back to nominal");
      break;
    case FaultKind::LinkFlap:
      cluster_.network().set_link_up(e.node, true);
      record(e.node, "link_flap", telemetry::FaultPhase::Cleared,
             "switch link restored");
      break;
    case FaultKind::SensorDropout:
      if (e.node >= 0) {
        cluster_.node(e.node).battery().set_sensor_fault(power::SensorFault::None);
      } else {
        for (int i = 0; i < cluster_.size(); ++i) {
          cluster_.node(i).battery().set_sensor_fault(power::SensorFault::None);
        }
        cluster_.baytech().set_dropout(false);
      }
      record(e.node, "sensor_dropout", telemetry::FaultPhase::Cleared,
             "sensor path healthy");
      break;
    case FaultKind::NodeCrash:
    case FaultKind::BatteryFail:
    case FaultKind::DaemonWedge:
      break;  // no timed clear: recovery is the resilience layer's job
  }
}

}  // namespace pcd::fault
