#include "service/request.hpp"

#include <cinttypes>
#include <cstdio>

#include "apps/npb.hpp"
#include "core/daemon.hpp"
#include "sim/provenance.hpp"

namespace pcd::service {

namespace {

bool parse_strategy(const JsonValue& v, StrategyPoint* out, std::string* error) {
  if (!v.is_object()) {
    *error = "strategies entries must be objects";
    return false;
  }
  out->label = v.str_or("label", "");
  out->static_mhz = static_cast<int>(v.int_or("static_mhz", 0));
  out->daemon = v.str_or("daemon", "");
  if (!out->daemon.empty() && out->daemon != "v1.1" && out->daemon != "v1.2.1") {
    *error = "unknown daemon version '" + out->daemon + "' (v1.1 or v1.2.1)";
    return false;
  }
  if (!out->daemon.empty() && out->static_mhz != 0) {
    *error = "strategy '" + out->label + "' sets both daemon and static_mhz";
    return false;
  }
  if (out->label.empty()) {
    out->label = !out->daemon.empty()
                     ? "auto-" + out->daemon
                     : (out->static_mhz > 0 ? std::to_string(out->static_mhz)
                                            : std::string("full"));
  }
  return true;
}

}  // namespace

std::optional<SpecRequest> SpecRequest::from_json(const JsonValue& v,
                                                 std::string* error) {
  if (!v.is_object()) {
    if (error != nullptr) *error = "request must be a JSON object";
    return std::nullopt;
  }
  SpecRequest req;
  std::string err;
  if (const JsonValue* w = v.find("workloads"); w != nullptr) {
    if (!w->is_array()) {
      err = "workloads must be an array of code names";
    } else {
      for (const auto& item : w->items()) {
        if (!item.is_string()) {
          err = "workloads entries must be strings";
          break;
        }
        req.workloads.push_back(item.as_string());
      }
    }
  }
  req.scale = v.num_or("scale", req.scale);
  req.trials = static_cast<int>(v.int_or("trials", req.trials));
  req.seed = static_cast<std::uint64_t>(v.int_or("seed", 1));
  req.digests = v.bool_or("digests", req.digests);
  req.slice_s = v.num_or("slice_s", req.slice_s);
  req.deadline_s = v.num_or("deadline_s", req.deadline_s);
  req.budget_s = v.num_or("budget_s", req.budget_s);
  if (err.empty()) {
    if (const JsonValue* s = v.find("strategies"); s != nullptr) {
      if (!s->is_array()) {
        err = "strategies must be an array";
      } else {
        for (const auto& item : s->items()) {
          StrategyPoint p;
          if (!parse_strategy(item, &p, &err)) break;
          req.strategies.push_back(std::move(p));
        }
      }
    }
  }
  if (err.empty() && req.scale <= 0) err = "scale must be > 0";
  if (err.empty() && req.trials < 1) err = "trials must be >= 1";
  if (err.empty() && req.deadline_s < 0) err = "deadline_s must be >= 0";
  if (err.empty() && req.budget_s < 0) err = "budget_s must be >= 0";
  if (!err.empty()) {
    if (error != nullptr) *error = std::move(err);
    return std::nullopt;
  }
  return req;
}

JsonValue SpecRequest::to_json() const {
  JsonValue v = JsonValue::object();
  JsonValue ws = JsonValue::array();
  for (const auto& w : workloads) ws.push(JsonValue::of(w));
  v.set("workloads", std::move(ws));
  v.set("scale", JsonValue::of(scale));
  v.set("trials", JsonValue::of(trials));
  v.set("seed", JsonValue::of(static_cast<std::int64_t>(seed)));
  v.set("digests", JsonValue::of(digests));
  v.set("slice_s", JsonValue::of(slice_s));
  if (!strategies.empty()) {
    JsonValue ss = JsonValue::array();
    for (const auto& s : strategies) {
      JsonValue p = JsonValue::object();
      p.set("label", JsonValue::of(s.label));
      if (!s.daemon.empty()) {
        p.set("daemon", JsonValue::of(s.daemon));
      } else if (s.static_mhz != 0) {
        p.set("static_mhz", JsonValue::of(s.static_mhz));
      }
      ss.push(std::move(p));
    }
    v.set("strategies", std::move(ss));
  }
  if (deadline_s > 0) v.set("deadline_s", JsonValue::of(deadline_s));
  if (budget_s > 0) v.set("budget_s", JsonValue::of(budget_s));
  return v;
}

std::optional<campaign::ExperimentSpec> SpecRequest::to_spec(
    std::string* error) const {
  if (workloads.empty()) {
    if (error != nullptr) *error = "request names no workloads";
    return std::nullopt;
  }
  campaign::ExperimentSpec spec;
  for (const auto& name : workloads) {
    auto w = apps::npb_by_name(name, scale);
    if (!w.has_value()) {
      if (error != nullptr) *error = "unknown workload '" + name + "'";
      return std::nullopt;
    }
    spec.workload(std::move(*w), name);
  }
  core::RunConfig base;
  base.seed = seed;
  base.slice_s = slice_s;
  spec.base(base);

  std::vector<StrategyPoint> points = strategies;
  if (points.empty()) points.push_back(StrategyPoint{"full", 0, ""});
  std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>>
      values;
  values.reserve(points.size());
  for (const auto& p : points) {
    if (!p.daemon.empty()) {
      const core::CpuspeedParams params = p.daemon == "v1.1"
                                              ? core::CpuspeedParams::v1_1()
                                              : core::CpuspeedParams::v1_2_1();
      values.emplace_back(p.label,
                          [params](core::RunConfig& c) { c.daemon = params; });
    } else {
      const int mhz = p.static_mhz;
      values.emplace_back(p.label,
                          [mhz](core::RunConfig& c) { c.static_mhz = mhz; });
    }
  }
  spec.axis(campaign::Axis::strategies("strategy", std::move(values)));
  spec.trials(trials);
  spec.collect_digests(digests);
  return spec;
}

std::uint64_t SpecRequest::cell_key(const std::string& workload_label,
                                    const std::string& strategy_label) const {
  const StrategyPoint* strat = nullptr;
  for (const auto& s : strategies) {
    if (s.label == strategy_label) {
      strat = &s;
      break;
    }
  }
  // Canonical identity record.  Hex-float doubles so the text (and the key)
  // is exact; the daemon version tag stands in for its parameter set (the
  // factories are the only source of those parameters).
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "pcd-cell-v1|wl=%s|scale=%a|trials=%d|seed=%" PRIu64
                "|dig=%d|slice=%a|strat=%s|mhz=%d|daemon=%s",
                workload_label.c_str(), scale, trials, seed, digests ? 1 : 0,
                slice_s, strategy_label.c_str(),
                strat != nullptr ? strat->static_mhz : 0,
                strat != nullptr ? strat->daemon.c_str() : "");
  return sim::digest_cstr(buf);
}

}  // namespace pcd::service
