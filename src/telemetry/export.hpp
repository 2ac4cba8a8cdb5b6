// Telemetry exporters:
//   - Prometheus text exposition of the metrics registry,
//   - Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
//     tracer scopes as "X" complete events, DVS transitions and decisions
//     as "i" instant events, sampled node power as "C" counter events,
//   - CSV dump of the sampler time series.
#pragma once

#include <string>

#include "telemetry/determinism.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/tracer.hpp"

namespace pcd::telemetry {

/// JSON string escaping of `s` (no surrounding quotes): double quote,
/// backslash and every control character.  Every JSON document the project
/// writes (Chrome traces, flight-recorder dumps, service responses) escapes
/// its strings through this one function.
std::string json_escape(const std::string& s);

/// Prometheus text exposition format (one # TYPE line per family).
std::string to_prometheus(const std::vector<MetricSample>& samples);
std::string to_prometheus(const MetricsRegistry& registry);

/// Chrome trace-event JSON.  `tracer` may be null (DVS/power events only).
/// Events are emitted sorted by timestamp (ts in microseconds).  Process
/// and thread name metadata records give simulated ranks/nodes readable
/// track names.  When `determinism` carries a focused event capture, the
/// captured engine events are emitted as slices on a dedicated "engine"
/// process with parent->child provenance flow arrows.
std::string to_chrome_json(const TelemetrySnapshot& snapshot,
                           const trace::Tracer* tracer = nullptr,
                           const RunCapture* determinism = nullptr);

/// Sampler series as CSV:
///   node,t_s,freq_mhz,utilization,watts_cpu,...,watts_total
std::string series_csv(const TelemetrySnapshot& snapshot);

/// Decision log as CSV: t_s,node,from_mhz,to_mhz,cause,utilization,detail
std::string decisions_csv(const TelemetrySnapshot& snapshot);

/// Fault event log as CSV: t_s,node,kind,phase,detail
std::string faults_csv(const TelemetrySnapshot& snapshot);

}  // namespace pcd::telemetry
