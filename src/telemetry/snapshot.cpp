#include "telemetry/snapshot.hpp"

namespace pcd::telemetry {

double TelemetrySnapshot::metric_value(const std::string& name, const Labels& labels,
                                       double fallback) const {
  const std::string key = label_string(labels);
  for (const auto& s : metrics) {
    if (s.name == name && label_string(s.labels) == key) return s.value;
  }
  return fallback;
}

TelemetrySnapshot make_snapshot(const Hub& hub, const TimeSeriesSampler* sampler) {
  TelemetrySnapshot snap;
  snap.metrics = hub.registry().samples();
  snap.decisions = hub.decisions().entries();
  snap.decisions_dropped = hub.decisions().dropped();
  snap.transitions = hub.transitions();
  snap.faults = hub.faults();
  if (sampler != nullptr) {
    snap.sample_period_s = sampler->params().period_s;
    snap.series.reserve(sampler->nodes());
    for (int i = 0; i < sampler->nodes(); ++i) {
      snap.series.push_back(sampler->samples(i));
    }
  }
  return snap;
}

}  // namespace pcd::telemetry
