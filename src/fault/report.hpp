// FaultReport: what happened, what was detected, what recovered — the
// run-scoped record the fault layer attaches to core::RunResult.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcd::fault {

/// One lifecycle entry, mirrored from the telemetry fault log so the
/// report stands alone (telemetry may be disabled).
struct FaultRecord {
  double t_s = 0;
  int node = -1;  // -1 = cluster-wide
  std::string kind;
  std::string phase;  // injected / cleared / detected / recovered
  std::string detail;
};

struct FaultReport {
  std::vector<FaultRecord> events;

  // Counters.
  std::int64_t injected = 0;
  std::int64_t cleared = 0;
  std::int64_t detections = 0;
  std::int64_t recoveries = 0;
  std::int64_t daemon_restarts = 0;
  std::int64_t fallbacks = 0;      // nodes degraded to full speed
  std::int64_t node_reboots = 0;
  std::int64_t checkpoints = 0;
  std::int64_t dvs_requests_dropped = 0;  // summed from the CPUs at run end

  // Accumulated costs.
  double checkpoint_stall_s = 0;  // summed over stalled nodes
  double node_downtime_s = 0;     // summed over crashed nodes
  double redo_s = 0;              // work re-executed after restarts
  /// Cumulative watchdog restart backoff actually waited (summed over
  /// nodes): with backoff b doubling per restart and N restarts taken,
  /// each node contributes b * (2^N - 1).  The final give-up transition
  /// records this total in its event detail, so the cost of the escalation
  /// ladder is attributable even when the daemon never comes back.
  double daemon_backoff_s = 0;

  // Outcome.
  bool run_failed = false;
  std::string failure;

  /// Flight-recorder dumps captured on failure paths (one JSON document per
  /// watchdog fallback), oldest first.  Empty unless the run enabled the
  /// recorder (RunConfig::determinism.flight_recorder).
  std::vector<std::string> flight_recordings;

  void record(double t_s, int node, const char* kind, const char* phase,
              std::string detail);

  /// Human-readable multi-line summary (for reports and demos).
  std::string summary() const;
};

}  // namespace pcd::fault
