// Determinism-observability primitives for the event engine.
//
// The simulator's correctness story is bit-identical determinism: a run is
// a pure function of its RunConfig.  When two runs *do* diverge, a mismatch
// in a 64-bit fingerprint says nothing about where.  This header defines the
// low-level pieces the observability layer (telemetry/determinism.hpp) is
// built from:
//
//   - DigestStream: a rolling FNV-1a hash + element count.  Subsystems fold
//     their externally visible decision stream into one (event dispatches,
//     RNG draws, power-integration steps, MPI message matches), so two runs
//     can be compared stream-by-stream without retaining the streams.
//   - EventProvenance: the compact causal record of one dispatched event —
//     who scheduled it (parent event), from where (site label), when, and
//     how many RNG draws its callback made.  Walking parent links
//     reconstructs any event's causal chain back to the run's root.
//   - EventObserver: the engine-side hook that delivers provenance records
//     and digest checkpoints to a collector.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace pcd::sim {

/// Rolling FNV-1a (64-bit) over machine words, plus the number of words
/// folded.  Equal streams have equal (hash, count); the count localizes a
/// divergence even when the hashes collide on length-prefix weirdness.
struct DigestStream {
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t hash = kBasis;
  std::uint64_t count = 0;

  void fold(std::uint64_t w) {
    hash = (hash ^ w) * kPrime;
    ++count;
  }
  /// Folds several words as one element (count advances by one): used for
  /// composite records like an MPI match (src, dst, tag, bytes, t).
  void fold_record(const std::uint64_t* words, int n) {
    std::uint64_t h = hash;
    for (int i = 0; i < n; ++i) h = (h ^ words[i]) * kPrime;
    hash = h;
    ++count;
  }

  void reset() {
    hash = kBasis;
    count = 0;
  }
};

/// FNV-1a of a C string; used to fold scheduling-site labels into digests.
inline std::uint64_t digest_cstr(const char* s) {
  std::uint64_t h = DigestStream::kBasis;
  if (s != nullptr) {
    for (; *s != '\0'; ++s) {
      h = (h ^ static_cast<unsigned char>(*s)) * DigestStream::kPrime;
    }
  }
  return h;
}

/// FNV-1a of a byte span: the result cache's record checksums and the
/// campaign fingerprint.
inline std::uint64_t digest_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = DigestStream::kBasis;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * DigestStream::kPrime;
  return h;
}

/// Causal record of one dispatched event.  `site` points at the static
/// string literal passed to Engine::schedule_* — the engine never copies or
/// frees it, so labels must have static storage duration.
struct EventProvenance {
  std::uint64_t index = 0;      // dispatch ordinal within the run (1-based)
  std::uint64_t seq = 0;        // the event's global sequence number
  std::uint64_t parent = 0;     // seq of the event whose callback scheduled it
                                // (0 = scheduled outside any event: a root)
  const char* site = "";        // scheduling-site label
  SimTime t = 0;                // dispatch time
  std::uint64_t rng_draws = 0;  // RNG draws made by this event's callback
};

/// Thread-local RNG telemetry shared between Rng (the producer) and the
/// determinism collector (the consumer) without coupling the two headers.
/// While `digest` is set, every Rng::next_u64 on this thread folds its
/// output into the stream and bumps `draws`; the engine differences `draws`
/// around each callback to attribute RNG consumption to events.  Null
/// digest (the default) keeps next_u64 at one predictable branch.
struct RngTelemetry {
  static inline thread_local std::uint64_t draws = 0;
  static inline thread_local DigestStream* digest = nullptr;
};

/// Engine-side observer.  `on_event` fires after each callback returns (so
/// rng_draws is final) — only when Engine::DeterminismHooks::per_event is
/// set, because a virtual call per dispatch is the expensive tier.
/// `on_checkpoint` fires every time the inline event digest crosses a
/// checkpoint boundary (count & checkpoint_mask == 0), cheap and amortized.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_event(const EventProvenance& p) = 0;
  virtual void on_checkpoint(std::uint64_t events_dispatched) = 0;
};

}  // namespace pcd::sim
