// Unit + integration tests for the telemetry subsystem: metrics registry,
// DVS decision log, time-series sampler, and the Prometheus / Chrome
// trace-event / CSV exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "service/json.hpp"
#include "sim/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/snapshot.hpp"

using namespace pcd;
using telemetry::DvsCause;
using telemetry::Labels;

// ---- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeBasics) {
  telemetry::MetricsRegistry reg;
  auto& c = reg.counter("events_total");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  auto& g = reg.gauge("level");
  g.set(7);
  g.add(-2);
  EXPECT_DOUBLE_EQ(g.value(), 5);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistry, LabelsInternOrderInsensitive) {
  telemetry::MetricsRegistry reg;
  auto& a = reg.counter("x_total", {{"node", "1"}, {"cause", "daemon"}});
  auto& b = reg.counter("x_total", {{"cause", "daemon"}, {"node", "1"}});
  EXPECT_EQ(&a, &b);  // same series
  auto& c = reg.counter("x_total", {{"node", "2"}, {"cause", "daemon"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  telemetry::MetricsRegistry reg;
  reg.counter("thing");
  EXPECT_THROW(reg.gauge("thing"), std::logic_error);
  EXPECT_THROW(reg.histogram("thing", {}, {1.0}), std::logic_error);
}

TEST(MetricsRegistry, HistogramCumulativeBuckets) {
  telemetry::MetricsRegistry reg;
  auto& h = reg.histogram("latency_seconds", {}, {0.001, 0.01, 0.1});
  h.observe(0.0005);
  h.observe(0.001);  // boundary counts in its own bucket (le semantics)
  h.observe(0.05);
  h.observe(5.0);    // above the top bound: only +Inf
  const auto& counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 2);  // <= 0.001
  EXPECT_EQ(counts[1], 2);  // <= 0.01
  EXPECT_EQ(counts[2], 3);  // <= 0.1
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0005 + 0.001 + 0.05 + 5.0);
  EXPECT_THROW(reg.histogram("bad", {}, {}), std::invalid_argument);
}

TEST(MetricsRegistry, SamplesFlattenEveryInstrument) {
  telemetry::MetricsRegistry reg;
  reg.counter("a_total", telemetry::label("node", std::int64_t{0})).inc();
  reg.gauge("b").set(2);
  reg.histogram("c", {}, {1.0}).observe(0.5);
  const auto samples = reg.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_DOUBLE_EQ(samples[0].value, 1);
  EXPECT_EQ(samples[2].type, telemetry::MetricType::Histogram);
  EXPECT_EQ(samples[2].count, 1);
}

// ---- decision log -----------------------------------------------------------

TEST(DecisionLog, RecordsAndCapsEntries) {
  telemetry::DecisionLog log(2);
  log.record({100, 0, 1400, 600, DvsCause::DaemonThreshold, 0.2, "down"});
  log.record({200, 1, 600, 1400, DvsCause::Internal, NAN, "up"});
  log.record({300, 0, 600, 800, DvsCause::Api, NAN, ""});
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.dropped(), 1);
  EXPECT_TRUE(log.entries()[0].has_utilization());
  EXPECT_FALSE(log.entries()[1].has_utilization());
  EXPECT_EQ(log.for_node(0).size(), 1u);
}

TEST(Hub, DecisionAndTransitionCounters) {
  telemetry::Hub hub;
  hub.record_decision({50, 3, 1400, 600, DvsCause::External, NAN, "psetcpuspeed"});
  hub.record_transition({60, 3, 1400, 600});
  hub.record_transition({90, 3, 600, 800});
  EXPECT_EQ(hub.decisions().entries().size(), 1u);
  EXPECT_EQ(hub.transitions().size(), 2u);
  const auto snap = telemetry::make_snapshot(hub);
  EXPECT_DOUBLE_EQ(
      snap.metric_value("dvs_transitions_total", telemetry::label("node", 3)), 2);
  EXPECT_DOUBLE_EQ(snap.metric_value("dvs_decisions_total", {{"cause", "external"}}),
                   1);
  EXPECT_DOUBLE_EQ(snap.metric_value("no_such_metric", {}, -7), -7);
}

// ---- sampler ----------------------------------------------------------------

TEST(Sampler, PeriodicSamplesWithDerivedUtilization) {
  sim::Engine e;
  telemetry::MetricsRegistry reg;
  telemetry::SamplerParams params;
  params.period_s = 0.1;
  params.capacity = 100;
  // Fake node: busy half the time, 10 W CPU, frequency fixed.
  telemetry::TimeSeriesSampler sampler(
      e, 1, params,
      [&e](int) {
        telemetry::NodeProbe p;
        p.freq_mhz = 800;
        p.busy_weighted_ns = static_cast<double>(e.now()) * 0.5;
        p.watts_cpu = 10;
        p.watts_other = 5;
        return p;
      },
      &reg);
  sampler.start();
  e.run_until(sim::from_seconds(1.05));
  sampler.stop();
  EXPECT_EQ(sampler.ticks(), 10);
  const auto samples = sampler.samples(0);
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[0].t, sim::from_seconds(0.1));
  EXPECT_EQ(samples[0].freq_mhz, 800);
  EXPECT_NEAR(samples[0].utilization, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(samples[0].watts_total(), 15);
  // Gauges mirror the last sample.
  const auto snap_samples = reg.samples();
  bool found = false;
  for (const auto& s : snap_samples) {
    if (s.name == "node_power_watts") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value, 15);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Sampler, RingBufferOverwritesOldest) {
  telemetry::RingBuffer<int> ring(3);
  for (int i = 0; i < 5; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.overwritten(), 2);
  EXPECT_EQ(ring.to_vector(), (std::vector<int>{2, 3, 4}));
}

TEST(Sampler, StopCancelsFutureTicks) {
  sim::Engine e;
  telemetry::SamplerParams params;
  params.period_s = 0.1;
  telemetry::TimeSeriesSampler sampler(e, 1, params,
                                       [](int) { return telemetry::NodeProbe{}; });
  sampler.start();
  e.run_until(sim::from_seconds(0.25));
  sampler.stop();
  e.run();  // drains without sampler events
  EXPECT_EQ(sampler.ticks(), 2);
}

// ---- exporters --------------------------------------------------------------

namespace {

// Minimal JSON well-formedness check: braces/brackets balance outside of
// strings, and strings/escapes terminate.
bool json_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

// Extracts every `"ts":<number>` in order of appearance.
std::vector<double> extract_ts(const std::string& json) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  std::size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

}  // namespace

TEST(Exporters, PrometheusTextExposition) {
  telemetry::Hub hub;
  hub.registry().counter("net_collisions_total").inc(4);
  hub.registry().gauge("node_power_watts", telemetry::label("node", 2)).set(23.5);
  hub.registry().histogram("d", {}, {1.0, 2.0}).observe(1.5);
  hub.record_transition({10, 0, 1400, 600});
  const std::string text = telemetry::to_prometheus(hub.registry());
  EXPECT_NE(text.find("# TYPE net_collisions_total counter"), std::string::npos);
  EXPECT_NE(text.find("net_collisions_total 4"), std::string::npos);
  EXPECT_NE(text.find("node_power_watts{node=\"2\"} 23.5"), std::string::npos);
  EXPECT_NE(text.find("dvs_transitions_total{node=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("d_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("d_sum 1.5"), std::string::npos);
  EXPECT_NE(text.find("d_count 1"), std::string::npos);
}

TEST(Exporters, ChromeJsonShapeAndMonotoneTimestamps) {
  sim::Engine e;
  trace::Tracer tracer(e, 1);
  e.schedule_at(0, [&] {
    auto s = new trace::Tracer::Scope(tracer.scope(0, trace::Cat::Compute, "work"));
    e.schedule_at(5000, [s] { delete s; });
  });
  e.run();

  telemetry::Hub hub;
  hub.record_decision({1000, 0, 1400, 600, DvsCause::DaemonThreshold, 0.12,
                       "usage 0.120 < min 0.20: jump to lowest"});
  hub.record_transition({2000, 0, 1400, 600});
  auto snap = telemetry::make_snapshot(hub);
  telemetry::NodeSample sample;
  sample.t = 3000;
  sample.watts_cpu = 8;
  snap.series.push_back({sample});

  const std::string json = telemetry::to_chrome_json(snap, &tracer);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // tracer scope
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // DVS instant
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // power counter
  EXPECT_NE(json.find("dvs 1400->600"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.12"), std::string::npos);
  const auto ts = extract_ts(json);
  ASSERT_GE(ts.size(), 5u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
}

TEST(Exporters, SeriesAndDecisionCsv) {
  telemetry::Hub hub;
  hub.record_decision({sim::from_seconds(1.5), 2, 1400, 800, DvsCause::Internal,
                       NAN, "before marked comm"});
  auto snap = telemetry::make_snapshot(hub);
  telemetry::NodeSample s;
  s.t = sim::from_seconds(0.5);
  s.freq_mhz = 1000;
  s.utilization = 0.25;
  s.watts_cpu = 10;
  snap.series.push_back({s});

  const std::string csv = telemetry::series_csv(snap);
  EXPECT_NE(csv.find("node,t_s,freq_mhz,utilization"), std::string::npos);
  EXPECT_NE(csv.find("0,0.500000000,1000,0.2500,10.000"), std::string::npos);

  const std::string dcsv = telemetry::decisions_csv(snap);
  EXPECT_NE(dcsv.find("t_s,node,from_mhz,to_mhz,cause"), std::string::npos);
  EXPECT_NE(dcsv.find("1.500000000,2,1400,800,internal,,\"before marked comm\""),
            std::string::npos);
}

// ---- end-to-end through the runner ------------------------------------------

namespace {

core::RunConfig daemon_telemetry_config() {
  core::RunConfig cfg;
  cfg.seed = 11;
  core::CpuspeedParams daemon;
  daemon.interval_s = 0.2;  // several polls within a tiny run
  cfg.daemon = daemon;
  cfg.collect_trace = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sampler.period_s = 0.05;
  return cfg;
}

}  // namespace

TEST(RunnerTelemetry, SnapshotCarriesRegistryDecisionsAndSeries) {
  const auto r = core::run_workload(apps::make_ft(0.2), daemon_telemetry_config());
  ASSERT_TRUE(r.telemetry.has_value());
  const auto& t = *r.telemetry;

  // (b) Prometheus dump: dvs_transitions_total, net_collisions_total, and a
  // per-node power gauge are all present.
  const std::string prom = telemetry::to_prometheus(t.metrics);
  EXPECT_NE(prom.find("dvs_transitions_total{node=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE net_collisions_total counter"), std::string::npos);
  EXPECT_NE(prom.find("node_power_watts{node=\"0\"}"), std::string::npos);

  // Registry totals agree with the runner's exact counters.
  double transitions = 0;
  for (const auto& s : t.metrics) {
    if (s.name == "dvs_transitions_total") transitions += s.value;
  }
  EXPECT_DOUBLE_EQ(transitions, static_cast<double>(r.dvs_transitions));
  EXPECT_DOUBLE_EQ(t.metric_value("net_collisions_total", {}, -1),
                   static_cast<double>(r.net_collisions));
  EXPECT_EQ(t.transitions.size(), static_cast<std::size_t>(r.dvs_transitions));

  // (c) Every CPUSPEED daemon decision carries the utilization sample that
  // caused it.
  ASSERT_FALSE(t.decisions.empty());
  int daemon_decisions = 0;
  for (const auto& d : t.decisions) {
    if (d.cause != DvsCause::DaemonThreshold) continue;
    ++daemon_decisions;
    ASSERT_TRUE(d.has_utilization());
    EXPECT_GE(d.utilization, 0.0);
    EXPECT_LE(d.utilization, 1.0);
    EXPECT_FALSE(d.detail.empty());
  }
  EXPECT_GT(daemon_decisions, 0);

  // Sampler series cover the run with per-component power.
  ASSERT_EQ(t.series.size(), static_cast<std::size_t>(apps::make_ft(0.2).ranks));
  ASSERT_FALSE(t.series[0].empty());
  for (const auto& s : t.series[0]) {
    EXPECT_GT(s.watts_total(), 0.0);
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }

  // (a) Chrome trace: well-formed, has scopes + instants, monotone ts.
  ASSERT_FALSE(t.chrome_trace_json.empty());
  EXPECT_TRUE(json_balanced(t.chrome_trace_json));
  EXPECT_NE(t.chrome_trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(t.chrome_trace_json.find("\"ph\":\"i\""), std::string::npos);
  const auto ts = extract_ts(t.chrome_trace_json);
  ASSERT_GT(ts.size(), 10u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
}

TEST(RunnerTelemetry, InternalAndExternalCausesAreAttributed) {
  core::RunConfig cfg;
  cfg.seed = 3;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample = false;
  cfg.static_mhz = 800;
  auto r = core::run_workload(apps::make_ep(0.05), cfg);
  ASSERT_TRUE(r.telemetry.has_value());
  ASSERT_FALSE(r.telemetry->decisions.empty());
  for (const auto& d : r.telemetry->decisions) {
    EXPECT_EQ(d.cause, DvsCause::External);
    EXPECT_EQ(d.to_mhz, 800);
  }

  core::RunConfig icfg;
  icfg.seed = 3;
  icfg.telemetry.enabled = true;
  icfg.telemetry.sample = false;
  icfg.hooks = core::internal_phase_hooks(1400, 600);
  const auto ir = core::run_workload(apps::make_ft(0.1), icfg);
  ASSERT_TRUE(ir.telemetry.has_value());
  bool saw_internal = false;
  for (const auto& d : ir.telemetry->decisions) {
    if (d.cause == DvsCause::Internal) saw_internal = true;
  }
  EXPECT_TRUE(saw_internal);
}

TEST(RunnerTelemetry, MeterCountersAreWired) {
  core::RunConfig cfg;
  cfg.seed = 5;
  cfg.telemetry.enabled = true;
  cfg.use_meters = true;
  const auto r = core::run_workload(apps::make_cg(0.1), cfg);
  ASSERT_TRUE(r.telemetry.has_value());
  // The 5-minute discharge alone guarantees ACPI refreshes and Baytech
  // windows.
  EXPECT_GT(r.telemetry->metric_value("acpi_refreshes_total",
                                      telemetry::label("node", 0), -1),
            0.0);
  EXPECT_GT(r.telemetry->metric_value("baytech_windows_total", {}, -1), 0.0);
}

TEST(RunnerTelemetry, TelemetryDoesNotPerturbTheRun) {
  core::RunConfig off;
  off.seed = 21;
  core::CpuspeedParams daemon;
  off.daemon = daemon;
  core::RunConfig on = off;
  on.telemetry.enabled = true;
  on.telemetry.sampler.period_s = 0.01;  // aggressive sampling
  const auto a = core::run_workload(apps::make_ft(0.2), off);
  const auto b = core::run_workload(apps::make_ft(0.2), on);
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.dvs_transitions, b.dvs_transitions);
  EXPECT_EQ(a.net_collisions, b.net_collisions);
}

// ---- strict JSON validation of the Chrome/Perfetto export -------------------
//
// The exporter output is validated with the campaign service's strict JSON
// parser (service/json.hpp) — one RFC 8259 implementation shared by the
// wire protocol, the result cache, and these tests.

TEST(Exporters, ProfiledRunChromeJsonParsesStrictly) {
  core::RunConfig cfg;
  cfg.seed = 7;
  cfg.profile = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample = false;
  const auto r = core::run_workload(apps::make_ft(0.1), cfg);
  ASSERT_TRUE(r.telemetry.has_value());
  const std::string& json = r.telemetry->chrome_trace_json;
  ASSERT_FALSE(json.empty());

  pcd::service::JsonError err;
  EXPECT_TRUE(pcd::service::json_parse(json, &err).has_value())
      << "JSON violation near offset " << err.pos << " (" << err.message
      << "): ..." << json.substr(err.pos > 40 ? err.pos - 40 : 0, 80);

  // Profiled slices carry energy; message edges appear as flow events.
  EXPECT_NE(json.find("\"energy_j\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// Free-form detail strings never break an export: a tab is escaped in
// every JSON document, and a 600-character detail survives whole (no
// fixed-size buffer cuts it) in the Chrome trace, the flight-recorder dump
// and both CSV logs.
TEST(Exporters, TabsAndLongDetailsSurviveEveryExport) {
  const std::string tab = "usage\t0.500: step down";
  const std::string long_detail(600, 'x');
  telemetry::Hub hub;
  hub.record_decision({1000, 0, 1400, 800, DvsCause::DaemonThreshold, 0.5, tab});
  hub.record_decision({2000, 1, 1400, 600, DvsCause::DaemonThreshold, 0.05, long_detail});
  hub.record_fault({3000, 2, "stuck_dvs", telemetry::FaultPhase::Injected, tab});
  hub.record_fault({4000, 3, "stuck_dvs", telemetry::FaultPhase::Detected, long_detail});
  const auto snap = telemetry::make_snapshot(hub);

  pcd::service::JsonError err;
  const auto trace = pcd::service::json_parse(telemetry::to_chrome_json(snap), &err);
  ASSERT_TRUE(trace.has_value()) << err.message << " at offset " << err.pos;
  const auto* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> details;
  for (const auto& ev : events->items()) {
    if (const auto* args = ev.find("args")) details.push_back(args->str_or("detail", ""));
  }
  EXPECT_EQ(std::count(details.begin(), details.end(), tab), 2);
  EXPECT_EQ(std::count(details.begin(), details.end(), long_detail), 2);

  const telemetry::FlightRecorder recorder(4);
  const auto dump = pcd::service::json_parse(recorder.dump_json(tab + long_detail, 0), &err);
  ASSERT_TRUE(dump.has_value()) << err.message << " at offset " << err.pos;
  EXPECT_EQ(dump->str_or("reason", ""), tab + long_detail);

  // Header plus one row per entry, each row whole and newline-terminated.
  for (const std::string& csv : {telemetry::decisions_csv(snap), telemetry::faults_csv(snap)}) {
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3) << csv;
    EXPECT_NE(csv.find(",\"" + long_detail + "\"\n"), std::string::npos);
  }
}

TEST(Exporters, PrometheusHelpAndLabelEscapingRoundTrip) {
  telemetry::MetricsRegistry reg;
  reg.set_help("odd_total", "counts \\ weird\nthings");
  reg.counter("odd_total", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = telemetry::to_prometheus(reg);

  // HELP escapes only backslash and newline.
  EXPECT_NE(text.find("# HELP odd_total counts \\\\ weird\\nthings"),
            std::string::npos);
  // Label values escape backslash, double quote, and newline.
  EXPECT_NE(text.find("odd_total{path=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos);

  // Round-trip: unescape the emitted label value and recover the original.
  const std::string needle = "path=\"";
  const auto start = text.find(needle) + needle.size();
  const auto quote_end = text.find("\"}", start);
  const std::string escaped = text.substr(start, quote_end - start);
  std::string unescaped;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      ++i;
      unescaped += escaped[i] == 'n' ? '\n' : escaped[i];
    } else {
      unescaped += escaped[i];
    }
  }
  EXPECT_EQ(unescaped, "a\\b\"c\nd");
}

TEST(Exporters, RunnerRegistersHelpForRunMetrics) {
  core::RunConfig cfg;
  cfg.seed = 9;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample = false;
  const auto r = core::run_workload(apps::make_ep(0.05), cfg);
  ASSERT_TRUE(r.telemetry.has_value());
  const std::string prom = telemetry::to_prometheus(r.telemetry->metrics);
  EXPECT_NE(prom.find("# HELP run_delay_seconds"), std::string::npos);
  EXPECT_NE(prom.find("# HELP run_energy_joules"), std::string::npos);
  EXPECT_NE(prom.find("# HELP mpi_messages_total"), std::string::npos);
  EXPECT_NE(prom.find("# HELP net_bytes_total"), std::string::npos);
}

TEST(RunnerTelemetry, RunSummaryRendersTables) {
  const auto r = core::run_workload(apps::make_ft(0.2), daemon_telemetry_config());
  const auto out = analysis::render_run_summary(r, 10);
  EXPECT_NE(out.find("run summary: FT"), std::string::npos);
  EXPECT_NE(out.find("top metrics"), std::string::npos);
  EXPECT_NE(out.find("dvs decisions"), std::string::npos);
  EXPECT_NE(out.find("per-rank comm/compute balance"), std::string::npos);
  EXPECT_NE(out.find("daemon"), std::string::npos);
}
