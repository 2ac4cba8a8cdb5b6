// RunPin: the fingerprint of a small simulated run, for tests that pin a
// code path's exact behaviour.  It covers every engine event (time, seq,
// parent, site), each node's CPU state after every event, the cluster's
// energy and /proc busy time to the last bit, and the trace records.  Two
// implementations of one path that pin equal schedule the same events,
// change CPU state at the same instants and integrate power in the same
// order.
#pragma once

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "machine/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/provenance.hpp"
#include "trace/tracer.hpp"

namespace pcd::pins {

struct RunPin {
  std::uint64_t events = 0;
  std::uint64_t event_hash = 0;   // engine digest of (t, seq, parent, site)
  std::uint64_t state_hash = 0;   // every node's CPU state after each event
  std::uint64_t energy_bits = 0;  // cluster energy at the end, as double bits
  std::uint64_t busy_hash = 0;    // per node: busy-weighted ns, retired cycles
  std::uint64_t trace_hash = 0;   // every trace record (0 when untraced)

  friend bool operator==(const RunPin&, const RunPin&) = default;
};

inline void PrintTo(const RunPin& p, std::ostream* os) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                ", 0x%016" PRIx64 ", 0x%016" PRIx64 "}",
                p.events, p.event_hash, p.state_hash, p.energy_bits, p.busy_hash,
                p.trace_hash);
  *os << buf;
}

/// Install on the engine before spawning anything; read pin() after the run.
class PinProbe final : public sim::EventObserver {
 public:
  PinProbe(sim::Engine& engine, machine::Cluster& cluster) : cluster_(cluster) {
    sim::Engine::DeterminismHooks hooks;
    hooks.event_digest = &events_;
    hooks.observer = this;
    hooks.per_event = true;
    engine.set_determinism(hooks);
  }

  void on_event(const sim::EventProvenance&) override {
    std::uint64_t w = 0;
    for (int n = 0; n < cluster_.size(); ++n) {
      w = w * 8 + static_cast<std::uint64_t>(cluster_.node(n).cpu().state());
    }
    states_.fold(w);
  }
  void on_checkpoint(std::uint64_t) override {}

  RunPin pin(const trace::Tracer* tracer) const {
    RunPin p{events_.count, events_.hash, states_.hash,
             std::bit_cast<std::uint64_t>(cluster_.total_energy_joules()), 0, 0};
    sim::DigestStream busy;
    for (int n = 0; n < cluster_.size(); ++n) {
      const auto& cpu = cluster_.node(n).cpu();
      busy.fold(std::bit_cast<std::uint64_t>(cpu.busy_weighted_ns()));
      busy.fold(std::bit_cast<std::uint64_t>(cpu.retired_sensitive_cycles()));
    }
    p.busy_hash = busy.hash;
    if (tracer != nullptr) {
      sim::DigestStream records;
      for (int r = 0; r < tracer->ranks(); ++r) {
        for (const auto& rec : tracer->records(r)) {
          const std::uint64_t w[7] = {
              static_cast<std::uint64_t>(r),         static_cast<std::uint64_t>(rec.cat),
              static_cast<std::uint64_t>(rec.begin), static_cast<std::uint64_t>(rec.end),
              static_cast<std::uint64_t>(rec.peer),  static_cast<std::uint64_t>(rec.bytes),
              sim::digest_cstr(rec.label)};
          records.fold_record(w, 7);
        }
      }
      p.trace_hash = records.hash;
    }
    return p;
  }

 private:
  machine::Cluster& cluster_;
  sim::DigestStream events_;
  sim::DigestStream states_;
};

}  // namespace pcd::pins
