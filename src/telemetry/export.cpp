#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>

namespace pcd::telemetry {

namespace {

// Prometheus label-value escaping: backslash, double quote and newline.
// The CSV exports quote their text fields the same way.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// Appends every part to `out`: events carrying free-form strings are built
// this way, never through a fixed-size buffer.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (out += ... += parts);
}

// printf "%.<digits>f" of `v`.
std::string fixed(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_value(double v) {
  char buf[64];
  // %.17g round-trips doubles but prints integers compactly.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string prom_series(const std::string& name, const Labels& labels,
                        const std::string& extra_label, double value) {
  std::string line = name;
  if (!labels.empty() || !extra_label.empty()) {
    line += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) line += ',';
      first = false;
      line += k + "=\"" + escape_label(v) + "\"";
    }
    if (!extra_label.empty()) {
      if (!first) line += ',';
      line += extra_label;
    }
    line += '}';
  }
  line += ' ' + fmt_value(value) + '\n';
  return line;
}

}  // namespace

namespace {

// HELP text escaping per the exposition format: only backslash and
// newline (label values additionally escape double quotes, see
// escape_label()).
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string to_prometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  const std::string* last_family = nullptr;
  for (const auto& s : samples) {
    if (last_family == nullptr || *last_family != s.name) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + ' ' + escape_help(s.help) + '\n';
      }
      out += "# TYPE " + s.name + ' ' + to_string(s.type) + '\n';
      last_family = &s.name;
    }
    if (s.type == MetricType::Histogram) {
      for (std::size_t i = 0; i < s.bucket_bounds.size(); ++i) {
        out += prom_series(s.name + "_bucket", s.labels,
                           "le=\"" + fmt_value(s.bucket_bounds[i]) + "\"",
                           static_cast<double>(s.bucket_counts[i]));
      }
      out += prom_series(s.name + "_bucket", s.labels, "le=\"+Inf\"",
                         static_cast<double>(s.count));
      out += prom_series(s.name + "_sum", s.labels, "", s.value);
      out += prom_series(s.name + "_count", s.labels, "",
                         static_cast<double>(s.count));
    } else {
      out += prom_series(s.name, s.labels, "", s.value);
    }
  }
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  return to_prometheus(registry.samples());
}

std::vector<MetricSample> with_shard_label(std::vector<MetricSample> samples,
                                           int shard) {
  for (auto& s : samples) {
    s.labels.emplace_back("shard", std::to_string(shard));
  }
  return samples;
}

std::string to_prometheus_sharded(const TelemetrySnapshot& snapshot) {
  std::string out;
  for (std::size_t s = 0; s < snapshot.shard_metrics.size(); ++s) {
    out += to_prometheus(
        with_shard_label(snapshot.shard_metrics[s], static_cast<int>(s)));
  }
  return out;
}

std::string to_chrome_json(const TelemetrySnapshot& snapshot,
                           const trace::Tracer* tracer,
                           const RunCapture* determinism,
                           const std::vector<int>* rank_shards) {
  // Shard-provenance layout: rank r's track lives under its shard's
  // process (pid 10 + shard) instead of the merged pid-0 "ranks" process.
  const bool sharded = rank_shards != nullptr && !rank_shards->empty();
  auto rank_pid = [&](int rank) {
    return sharded ? 10 + (*rank_shards)[static_cast<std::size_t>(rank)] : 0;
  };
  // Collect (ts, json) pairs, sort by ts so the stream is monotone.
  struct Ev {
    double ts;
    std::string json;
  };
  std::vector<Ev> events;
  char buf[512];

  auto us = [](sim::SimTime t) { return static_cast<double>(t) / 1000.0; };

  if (tracer != nullptr) {
    for (int rank = 0; rank < tracer->ranks(); ++rank) {
      for (const auto& r : tracer->records(rank)) {
        const char* name = (r.label != nullptr && r.label[0] != '\0')
                               ? r.label
                               : trace::to_string(r.cat);
        std::string args = "{\"peer\":" + std::to_string(r.peer) +
                           ",\"bytes\":" + std::to_string(r.bytes);
        if (r.energy_j != 0 || r.cycles != 0) {
          // Energy-annotated slice (the profiler's attribution probe ran).
          args += ",\"energy_j\":" + fmt_value(r.energy_j) +
                  ",\"cpu_energy_j\":" + fmt_value(r.cpu_energy_j) +
                  ",\"cycles\":" + fmt_value(r.cycles);
        }
        args += '}';
        std::string json;
        append(json, "{\"name\":\"", json_escape(name), "\",\"cat\":\"",
               trace::to_string(r.cat), "\",\"ph\":\"X\",\"ts\":", fixed(us(r.begin), 3),
               ",\"dur\":", fixed(us(r.end - r.begin), 3),
               ",\"pid\":", std::to_string(rank_pid(rank)),
               ",\"tid\":", std::to_string(rank), ",\"args\":", args, "}");
        events.push_back({us(r.begin), std::move(json)});
      }
    }
    // Message edges as Perfetto flow events: an arrow from the send instant
    // on the source rank to the receive completion on the destination rank.
    std::int64_t id = 0;
    for (const auto& m : tracer->messages()) {
      ++id;
      if (!m.complete()) continue;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"msg\",\"cat\":\"mpi_msg\",\"ph\":\"s\","
                    "\"id\":%lld,\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"bytes\":%lld,\"tag\":%d}}",
                    static_cast<long long>(id), us(m.t_send), rank_pid(m.src),
                    m.src, static_cast<long long>(m.bytes), m.tag);
      events.push_back({us(m.t_send), buf});
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"msg\",\"cat\":\"mpi_msg\",\"ph\":\"f\",\"bp\":\"e\","
                    "\"id\":%lld,\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                    static_cast<long long>(id), us(m.t_recv_done),
                    rank_pid(m.dst), m.dst);
      events.push_back({us(m.t_recv_done), buf});
    }
  }

  for (const auto& t : snapshot.transitions) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"dvs %d->%d\",\"cat\":\"dvs\",\"ph\":\"i\","
                  "\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\","
                  "\"args\":{\"from_mhz\":%d,\"to_mhz\":%d}}",
                  t.from_mhz, t.to_mhz, us(t.t), t.node, t.from_mhz, t.to_mhz);
    events.push_back({us(t.t), buf});
  }

  for (const auto& d : snapshot.decisions) {
    std::string args = "{\"from_mhz\":" + std::to_string(d.from_mhz) +
                       ",\"to_mhz\":" + std::to_string(d.to_mhz) +
                       ",\"cause\":\"" + to_string(d.cause) + "\"";
    if (d.has_utilization()) args += ",\"utilization\":" + fmt_value(d.utilization);
    if (!d.detail.empty()) append(args, ",\"detail\":\"", json_escape(d.detail), "\"");
    args += '}';
    std::string json;
    append(json, "{\"name\":\"decision ", to_string(d.cause),
           "\",\"cat\":\"dvs_decision\",\"ph\":\"i\",\"ts\":", fixed(us(d.t), 3),
           ",\"pid\":1,\"tid\":", std::to_string(d.node), ",\"s\":\"t\",\"args\":", args,
           "}");
    events.push_back({us(d.t), std::move(json)});
  }

  for (const auto& f : snapshot.faults) {
    const std::string kind = json_escape(f.kind);
    std::string json;
    append(json, "{\"name\":\"fault ", kind, " ", to_string(f.phase),
           "\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":", fixed(us(f.t), 3),
           ",\"pid\":1,\"tid\":", std::to_string(f.node < 0 ? 0 : f.node),
           ",\"s\":\"", f.node < 0 ? "g" : "t", "\",\"args\":{\"kind\":\"", kind,
           "\",\"phase\":\"", to_string(f.phase), "\",\"detail\":\"",
           json_escape(f.detail), "\"}}");
    events.push_back({us(f.t), std::move(json)});
  }

  for (std::size_t node = 0; node < snapshot.series.size(); ++node) {
    for (const auto& s : snapshot.series[node]) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"node%zu power\",\"cat\":\"sampler\",\"ph\":\"C\","
                    "\"ts\":%.3f,\"pid\":1,"
                    "\"args\":{\"cpu\":%.3f,\"memory\":%.3f,\"disk\":%.3f,"
                    "\"nic\":%.3f,\"other\":%.3f}}",
                    node, us(s.t), s.watts_cpu, s.watts_memory, s.watts_disk,
                    s.watts_nic, s.watts_other);
      events.push_back({us(s.t), buf});
    }
  }

  // Captured engine events (determinism focused capture): one short slice
  // per dispatch under a dedicated process, with provenance flow arrows
  // from each event's scheduling parent.
  if (determinism != nullptr && !determinism->events.empty()) {
    for (const auto& e : determinism->events) {
      std::string json;
      append(json, "{\"name\":\"", json_escape(e.site),
             "\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":", fixed(us(e.t), 3),
             ",\"dur\":0.001,\"pid\":2,\"tid\":0,\"args\":{\"seq\":",
             std::to_string(e.seq), ",\"parent\":", std::to_string(e.parent),
             ",\"index\":", std::to_string(e.index),
             ",\"rng_draws\":", std::to_string(e.rng_draws), "}}");
      events.push_back({us(e.t), std::move(json)});
      if (e.parent == 0) continue;
      const auto pit = determinism->chain.find(e.parent);
      if (pit == determinism->chain.end()) continue;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"prov\",\"cat\":\"provenance\",\"ph\":\"s\","
                    "\"id\":%llu,\"ts\":%.3f,\"pid\":2,\"tid\":0}",
                    static_cast<unsigned long long>(e.seq), us(pit->second.t));
      events.push_back({us(pit->second.t), buf});
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"prov\",\"cat\":\"provenance\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":%llu,\"ts\":%.3f,\"pid\":2,\"tid\":0}",
                    static_cast<unsigned long long>(e.seq), us(e.t));
      events.push_back({us(e.t), buf});
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.ts < b.ts; });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  if (sharded) {
    // One Perfetto process row per shard, named with its rank range.
    const int shards = 1 + *std::max_element(rank_shards->begin(),
                                             rank_shards->end());
    bool first = true;
    for (int s = 0; s < shards; ++s) {
      int lo = -1, hi = -1;
      for (std::size_t r = 0; r < rank_shards->size(); ++r) {
        if ((*rank_shards)[r] != s) continue;
        if (lo < 0) lo = static_cast<int>(r);
        hi = static_cast<int>(r);
      }
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"ts\":0,\"args\":{\"name\":\"shard %d (ranks %d-%d)\"}}",
                    first ? "" : ",\n", 10 + s, s, lo, hi);
      first = false;
      out += buf;
    }
    out += ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"ts\":0,"
           "\"args\":{\"name\":\"nodes\"}}";
  } else {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"ts\":0,"
           "\"args\":{\"name\":\"ranks\"}},\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"ts\":0,"
           "\"args\":{\"name\":\"nodes\"}}";
  }
  // Thread-name metadata so tracks render as "rank N" / "node N" instead of
  // bare numeric tids.
  if (tracer != nullptr) {
    for (int rank = 0; rank < tracer->ranks(); ++rank) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"rank %d\"}}",
                    rank_pid(rank), rank, rank);
      out += buf;
    }
  }
  {
    std::vector<int> node_tids;
    auto note_tid = [&node_tids](int node) {
      if (node < 0) return;
      if (std::find(node_tids.begin(), node_tids.end(), node) == node_tids.end()) {
        node_tids.push_back(node);
      }
    };
    for (const auto& t : snapshot.transitions) note_tid(t.node);
    for (const auto& d : snapshot.decisions) note_tid(d.node);
    for (const auto& f : snapshot.faults) note_tid(f.node);
    for (std::size_t n = 0; n < snapshot.series.size(); ++n) {
      note_tid(static_cast<int>(n));
    }
    std::sort(node_tids.begin(), node_tids.end());
    for (int node : node_tids) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"node %d\"}}",
                    node, node);
      out += buf;
    }
  }
  if (determinism != nullptr && !determinism->events.empty()) {
    out += ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"ts\":0,"
           "\"args\":{\"name\":\"engine\"}}";
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
           "\"ts\":0,\"args\":{\"name\":\"event dispatch\"}}";
  }
  for (const auto& e : events) {
    out += ",\n";
    out += e.json;
  }
  out += "\n]}\n";
  return out;
}

std::string series_csv(const TelemetrySnapshot& snapshot) {
  std::string out =
      "node,t_s,freq_mhz,utilization,watts_cpu,watts_memory,watts_disk,"
      "watts_nic,watts_other,watts_total\n";
  char line[256];
  for (std::size_t node = 0; node < snapshot.series.size(); ++node) {
    for (const auto& s : snapshot.series[node]) {
      std::snprintf(line, sizeof line,
                    "%zu,%.9f,%d,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n", node,
                    sim::to_seconds(s.t), s.freq_mhz, s.utilization, s.watts_cpu,
                    s.watts_memory, s.watts_disk, s.watts_nic, s.watts_other,
                    s.watts_total());
      out += line;
    }
  }
  return out;
}

std::string faults_csv(const TelemetrySnapshot& snapshot) {
  std::string out = "t_s,node,kind,phase,detail\n";
  for (const auto& f : snapshot.faults) {
    append(out, fixed(sim::to_seconds(f.t), 9), ",", std::to_string(f.node), ",",
           escape_label(f.kind), ",", to_string(f.phase), ",\"", escape_label(f.detail),
           "\"\n");
  }
  return out;
}

std::string decisions_csv(const TelemetrySnapshot& snapshot) {
  std::string out = "t_s,node,from_mhz,to_mhz,cause,utilization,detail\n";
  for (const auto& d : snapshot.decisions) {
    append(out, fixed(sim::to_seconds(d.t), 9), ",", std::to_string(d.node), ",",
           std::to_string(d.from_mhz), ",", std::to_string(d.to_mhz), ",",
           to_string(d.cause), ",",
           d.has_utilization() ? fmt_value(d.utilization) : std::string(), ",\"",
           escape_label(d.detail), "\"\n");
  }
  return out;
}

}  // namespace pcd::telemetry
