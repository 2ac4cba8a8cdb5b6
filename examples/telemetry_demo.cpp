// End-to-end tour of the telemetry subsystem: run an NPB code under the
// CPUSPEED daemon with the metrics registry, DVS decision log, and
// time-series sampler enabled, print the rendered run summary, and write
// the exporter outputs next to the binary:
//
//   trace.json       Chrome trace-event JSON — open in https://ui.perfetto.dev
//                    or chrome://tracing (rank scopes, DVS instants, power)
//   metrics.prom     Prometheus text exposition of the registry
//   power_series.csv per-node sampled power / frequency / utilization
//   decisions.csv    the DVS decision log with cause attribution
//
//   ./telemetry_demo [code] [scale]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "analysis/report.hpp"
#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "telemetry/export.hpp"

using namespace pcd;

namespace {

void write_file(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  std::printf("  wrote %-18s (%zu bytes)\n", path, content.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string code = argc > 1 ? argv[1] : "FT";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  auto workload = apps::npb_by_name(code, scale);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", code.c_str());
    return 1;
  }

  telemetry::TelemetryOptions topts;
  topts.enabled = true;            // registry + decision log + transitions
  topts.sampler.period_s = 0.050;  // Figure-1-style power sampling
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams::v1_2_1();
  cfg.collect_trace = true;  // rank scopes in the Chrome trace
  cfg.telemetry = topts;

  const auto result = core::run_workload(*workload, cfg);
  std::fputs(analysis::render_run_summary(result).c_str(), stdout);

  const auto& snap = *result.telemetry;
  std::printf("\nexports:\n");
  write_file("trace.json", snap.chrome_trace_json);
  write_file("metrics.prom", telemetry::to_prometheus(snap.metrics));
  write_file("power_series.csv", telemetry::series_csv(snap));
  write_file("decisions.csv", telemetry::decisions_csv(snap));
  std::printf(
      "\nload trace.json in Perfetto: rank timelines under 'ranks', DVS\n"
      "transitions and power counters under 'nodes'.\n");
  return 0;
}
