// Crash-safe, fingerprint-keyed result cache for the campaign service.
//
// On disk the cache is a single append-only log of self-verifying records:
//
//   PCDC1 <key:16hex> <payload-bytes> <payload-digest:16hex>\n
//   <payload>\n
//
// where the payload is a strict-JSON serialization of one CellResult with
// hex-float doubles (byte-exact round trip) and the digest is FNV-1a over
// the payload bytes.  Appends are a single write(2) followed by fsync, so
// the only state a crash (kill -9 included) can leave behind is a torn
// *tail*: recovery scans the log, keeps every verified record, and
// truncates the file at the first malformed / short / digest-mismatched
// byte.  Everything before that point is provably intact.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "campaign/result.hpp"

namespace pcd::service {

struct CacheStats {
  std::int64_t entries = 0;    // live entries in memory
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t recovered = 0;  // entries recovered from the log at open
                               // (the last verified record of each key)
  std::int64_t corrupt = 0;    // framed records whose digest did not verify
  std::int64_t torn_bytes = 0; // bytes truncated off the log tail at open

  double hit_ratio() const {
    const std::int64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  /// `dir` is created if missing; "" disables persistence (pure in-memory).
  /// `sync` fsyncs every append (the crash-safety contract; tests that
  /// hammer the cache may turn it off).
  explicit ResultCache(std::string dir, bool sync = true);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Thread-safe.  A hit returns a decoded copy; hit/miss counters update.
  std::optional<campaign::CellResult> lookup(std::uint64_t key);

  /// Thread-safe.  Overwrites an existing key in memory; the log append is
  /// one write + fsync (last record wins at recovery).
  void insert(std::uint64_t key, const campaign::CellResult& cell);

  /// Graceful-drain hook: fsyncs the log (the only flush when `sync` is
  /// off).  No-op without a cache dir.
  void sync();

  CacheStats stats() const;

  // Payload codec (exposed for tests): strict JSON, hex-float doubles.
  // decode returns false on any malformed or missing field.
  static std::string encode(const campaign::CellResult& cell);
  static bool decode(const std::string& payload, campaign::CellResult* out);

 private:
  void recover();

  std::string log_path() const { return dir_ + "/results.log"; }

  mutable std::mutex mu_;
  std::string dir_;
  bool sync_;
  int log_fd_ = -1;
  std::map<std::uint64_t, std::string> entries_;  // key -> encoded payload
  CacheStats stats_;
};

}  // namespace pcd::service
