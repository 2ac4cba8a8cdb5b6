#include "telemetry/flight_recorder.hpp"

#include <bit>
#include <cstdio>

#include "telemetry/export.hpp"

namespace pcd::telemetry {

FlightRecorder::FlightRecorder(std::size_t entries) {
  if (entries < 2) entries = 2;
  ring_.resize(std::bit_ceil(entries));
  mask_ = ring_.size() - 1;
}

std::vector<sim::EventProvenance> FlightRecorder::entries() const {
  std::vector<sim::EventProvenance> out;
  const std::uint64_t n = head_ < ring_.size() ? head_ : ring_.size();
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

std::string FlightRecorder::dump_json(const std::string& reason,
                                      sim::SimTime now) const {
  std::string out = "{\"reason\":\"" + json_escape(reason) + "\"";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"t_ns\":%llu,\"recorded\":%llu,\"retained\":%zu,\"state\":{",
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(recorded()),
                static_cast<std::size_t>(head_ < ring_.size() ? head_ : ring_.size()));
  out += buf;
  bool first = true;
  for (const auto& [name, fn] : providers_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + fn();
  }
  out += "},\"events\":[";
  first = true;
  for (const sim::EventProvenance& p : entries()) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof buf, "{\"index\":%llu,\"seq\":%llu,\"parent\":%llu,",
                  static_cast<unsigned long long>(p.index),
                  static_cast<unsigned long long>(p.seq),
                  static_cast<unsigned long long>(p.parent));
    out += buf;
    out += "\"site\":\"" + json_escape(p.site) + "\"";
    std::snprintf(buf, sizeof buf, ",\"t_ns\":%llu,\"rng_draws\":%llu}",
                  static_cast<unsigned long long>(p.t),
                  static_cast<unsigned long long>(p.rng_draws));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace pcd::telemetry
