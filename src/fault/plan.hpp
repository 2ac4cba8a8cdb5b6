// Fault plan: a deterministic, seeded schedule of what goes wrong during a
// run, plus the resilience mechanisms armed against it.
//
// Two ways to describe faults:
//   - scripted events: "node 3 crashes at t=12 s, reboots after 30 s" —
//     exact, replayable, the workhorse for tests and demos;
//   - hazard models: exponential inter-arrival times with a given MTBF,
//     sampled once up front from a split of the run's RNG — statistically
//     realistic background failure for ablation studies.
//
// An empty (default) plan is *zero-cost*: no RNG stream is drawn, no event
// is scheduled, and every run is bit-identical to one without the fault
// layer compiled in at all.  Tests assert this.
#pragma once

#include <string>
#include <vector>

namespace pcd::fault {

enum class FaultKind {
  NodeCrash,      // hard power loss; reboots after boot_delay_s (with C/R) or stays down
  Straggler,      // CPU retires cycles at `magnitude` x nominal (thermal throttle)
  StuckDvs,       // /proc DVS writes silently lost; operating point pinned
  NicDegrade,     // bandwidth drops to `magnitude` x nominal, + collision_boost
  LinkFlap,       // node's switch link down for duration_s
  BatteryFail,    // AC lost + only `magnitude` of the pack's charge survives
  SensorDropout,  // ACPI readings stale/garbage; node -1 also silences Baytech
  DaemonWedge,    // the DVS daemon process hangs (stops polling)
};

const char* to_string(FaultKind k);

/// How a SensorDropout presents at the ACPI reader.
enum class SensorMode { Stale, Garbage };

/// One scripted fault.  `node == -1` means cluster-wide where that makes
/// sense (NicDegrade, SensorDropout) or "pick per hazard" for hazards.
struct FaultEvent {
  double at_s = 0;
  FaultKind kind = FaultKind::NodeCrash;
  int node = -1;
  double duration_s = 0;     // 0 = permanent (until run end)
  double magnitude = 1.0;    // kind-specific (see FaultKind comments)
  double collision_boost = 0;
  double boot_delay_s = 30;  // NodeCrash: reboot time once recovery starts
  SensorMode sensor = SensorMode::Stale;
  std::string note;
};

// Scripted-event factories (the readable way to build plans).
FaultEvent node_crash(double at_s, int node, double boot_delay_s = 30);
FaultEvent straggler(double at_s, int node, double efficiency, double duration_s = 0);
FaultEvent stuck_dvs(double at_s, int node, double duration_s = 0);
FaultEvent nic_degrade(double at_s, double bandwidth_factor, double collision_boost = 0,
                       double duration_s = 0);
FaultEvent link_flap(double at_s, int node, double duration_s);
FaultEvent battery_fail(double at_s, int node, double remaining_fraction);
FaultEvent sensor_dropout(double at_s, int node, SensorMode mode, double duration_s = 0);
FaultEvent daemon_wedge(double at_s, int node);

/// Background failure process: arrivals ~ Exp(1/mtbf_s) over the horizon.
struct HazardModel {
  FaultKind kind = FaultKind::Straggler;
  double mtbf_s = 600;       // mean time between failures
  double duration_s = 5;     // 0 = permanent
  double magnitude = 0.5;
  double collision_boost = 0;
  double boot_delay_s = 30;
  int node = -1;             // -1: pick a node uniformly per arrival
};

struct WatchdogParams {
  double check_interval_s = 1.0;
  /// Consecutive checks with requested != actual frequency (and no
  /// transition in flight) before the node falls back to full speed.
  int stuck_checks_before_fallback = 3;
  /// Consecutive checks with a frozen daemon poll counter before restart.
  int missed_checks_before_restart = 3;
  double restart_backoff_s = 0.5;  // doubles per restart
  int max_restarts = 3;            // then give up and fall back
};

struct ResilienceParams {
  /// Per-node watchdog: detects wedged daemons (restart with backoff) and
  /// stuck DVS hardware (graceful degradation to full speed — the
  /// performance constraint survives, only the energy saving is lost).
  bool watchdog = false;
  WatchdogParams watchdog_params;

  /// Coordinated checkpoint/restart: > 0 arms a cluster-wide checkpoint
  /// every interval; a crashed node reboots and the cluster re-executes
  /// from the last checkpoint (modeled as the reboot stall plus redo time).
  /// 0 disables — a crash then fails the run (detected, not silent).
  double checkpoint_interval_s = 0;
  double checkpoint_cost_s = 0.5;  // cluster-wide stall per checkpoint

  /// MPI progress timeout: if no message completes and no work retires for
  /// this long, the run is declared failed (a structured RunResult, not an
  /// infinite simulation).  0 = auto (60 s when the plan injects faults,
  /// off otherwise); < 0 = force off.
  double mpi_timeout_s = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  std::vector<HazardModel> hazards;
  /// Hazard sampling horizon; arrivals past this are not generated.
  double horizon_s = 3600;
  ResilienceParams resilience;

  /// True when the plan will inject anything (needs an RNG stream + arming).
  bool injects() const { return !events.empty() || !hazards.empty(); }
  /// True when the fault layer must be wired into a run at all.
  bool active() const {
    return injects() || resilience.watchdog ||
           resilience.checkpoint_interval_s > 0 || resilience.mpi_timeout_s > 0;
  }
};

}  // namespace pcd::fault
