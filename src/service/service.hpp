// CampaignService: the resilient campaign server's in-process core.
//
// A fixed worker pool executes SpecRequests on the existing work-stealing
// CampaignRunner, with the robustness layer the paper's methodology never
// needed interactively but a long-running service does:
//
//   - admission control: a bounded queue; when it is full (or the service
//     is draining) submissions are shed immediately with a structured
//     Rejected{reason, retry_after} instead of queueing unboundedly;
//   - deadlines and budgets: every run gets a wall-clock ceiling and every
//     request a total budget, enforced through the cooperative
//     cancel/deadline hooks threaded into RunConfig (zero digest
//     perturbation — see core/runner.hpp);
//   - retry with backoff: transiently failed cells (fault-injected runs,
//     deadline overruns) are re-run after exponential backoff with
//     deterministic jitter, up to max_retries; spec errors are permanent
//     and never retried;
//   - result cache: completed clean cells persist in the crash-safe
//     fingerprint-keyed ResultCache, so a re-submitted campaign (or an
//     overlapping one) re-runs only what it must;
//   - chaos hook: a deterministic per-(cell, attempt) coin injects a
//     configured FaultPlan into early attempts — the test harness for the
//     whole retry path.  Chaos-touched results are never cached, and a
//     chaos-touched attempt is always retried while retries remain, so
//     surviving responses converge to the clean run's digest root.
//
// Everything is in-process (the AF_UNIX wire lives in service/server.hpp),
// so tests exercise admission, retries, and the cache without networking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/result.hpp"
#include "fault/plan.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"
#include "telemetry/metrics.hpp"

namespace pcd::service {

/// Deterministic fault injection into early attempts: with probability
/// `probability`, an attempt with index < max_attempt runs under `plan`.
/// The coin is a pure function of (seed, cell key, attempt), so a chaos
/// campaign is replayable.
struct ChaosOptions {
  fault::FaultPlan plan;
  double probability = 0;  // 0 = chaos off
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  int max_attempt = 1;  // only attempts 0 .. max_attempt-1 are eligible
};

struct ServiceOptions {
  int workers = 2;           // request-executing threads
  int campaign_threads = 0;  // per-request CampaignRunner threads (0 = auto)

  /// Admission: requests waiting for a worker beyond this are shed.
  std::size_t max_queue = 8;

  /// Applied when the request leaves the knob at 0.
  double default_deadline_s = 0;  // per-run wall ceiling
  double default_budget_s = 0;    // per-request wall budget

  int max_retries = 2;           // per cell, transient failures only
  double retry_backoff_s = 0.05; // base interval; doubles per round
  double retry_jitter = 0.25;    // +/- fraction, deterministic per (key, round)

  std::string cache_dir;   // "" = in-memory cache only
  bool cache_sync = true;  // fsync every cache append

  /// Service-level counters/gauges (campaign_service_*).  The registry is
  /// not handed to the inner CampaignRunners: it is not thread-safe, and
  /// the service serializes its own updates under one lock.
  telemetry::MetricsRegistry* metrics = nullptr;

  ChaosOptions chaos;
};

enum class Status {
  Ok,         // campaign executed (individual cells may still carry failures)
  Rejected,   // shed at admission; retry_after_s estimates when to come back
  Error,      // the request itself is malformed (never retried)
  Cancelled,  // cancelled by the client or service shutdown
};

const char* to_string(Status s);

struct Response {
  Status status = Status::Error;
  std::string reason;       // Rejected/Error/Cancelled detail; Ok caveats
  double retry_after_s = 0; // Rejected only: suggested backoff

  campaign::CampaignResult result;  // cells present for Ok (and partial ends)
  std::uint64_t fingerprint = 0;    // result.fingerprint()

  int cache_hits = 0;
  int cache_misses = 0;
  int retries = 0;  // cell re-runs this request triggered

  /// Black-box dumps from failed runs (flight recorder + watchdog
  /// fallbacks), for post-mortem without re-running.
  std::vector<std::string> flight_recordings;
};

class CampaignService {
 public:
  explicit CampaignService(ServiceOptions options = {});
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Handle for one submission.  Every submit() — including one that was
  /// shed — yields a ticket whose wait() returns the structured response.
  struct Ticket {
    std::uint64_t id = 0;
  };

  /// Admission: never blocks.  Shedding completes the ticket immediately
  /// with Status::Rejected and a retry_after_s estimate.
  Ticket submit(SpecRequest req);

  /// Blocks until the ticket's request completes and returns its response.
  /// A ticket can be waited on once; unknown tickets return Error.
  Response wait(Ticket t);

  /// submit + wait.
  Response execute(SpecRequest req) { return wait(submit(std::move(req))); }

  /// Raises the request's cancel token: queued requests complete as
  /// Cancelled without running; an executing request aborts at its next
  /// event-batch boundary.
  void cancel(Ticket t);

  /// Graceful drain: stop admitting, finish everything accepted, stop the
  /// workers, fsync the cache log.  Idempotent.
  void drain();

  /// Immediate stop: stop admitting, cancel queued and in-flight requests,
  /// join the workers.  The cache log is already durable (per-append
  /// fsync, unless `cache_sync` is off).  Idempotent.
  void shutdown_now();

  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t queue_depth() const;
  bool draining() const;

 private:
  // Tests reach before_run_ through this peer; nothing else sets it.
  friend struct CampaignServiceTestPeer;

  struct Job {
    std::uint64_t id = 0;
    SpecRequest req;
    std::atomic<bool> cancel{false};
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response response;
  };

  void worker_loop();
  Response run_request(Job& job);
  void complete(const std::shared_ptr<Job>& job, Response resp);
  void backoff_wait(Job& job, int round, std::uint64_t key);
  bool chaos_coin(std::uint64_t key, int attempt) const;
  double retry_after_locked() const;
  void stop_workers();

  ServiceOptions options_;
  ResultCache cache_;
  // Runs on the worker after a job is taken off the queue and found not
  // cancelled, just before it executes: lets a test hold a worker busy for
  // as long as it needs.  Set before the first submit(); empty otherwise.
  std::function<void()> before_run_;

  std::mutex stop_mu_;  // serializes worker joins (drain vs shutdown_now)
  mutable std::mutex mu_;
  std::condition_variable cv_;       // workers: queue/not-stopping
  std::condition_variable idle_cv_;  // drain: queue empty + nothing in flight
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::vector<std::shared_ptr<Job>> running_;
  std::vector<std::thread> workers_;
  std::uint64_t next_id_ = 0;
  int in_flight_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  bool workers_stopped_ = false;
  double ewma_request_s_ = 1.0;  // retry_after estimator

  // Metric handles (null when options_.metrics is null).
  telemetry::Counter* m_requests_ = nullptr;
  telemetry::Counter* m_shed_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_cache_hits_ = nullptr;
  telemetry::Counter* m_cache_misses_ = nullptr;
  telemetry::Counter* m_cancelled_ = nullptr;
  telemetry::Gauge* m_queue_depth_ = nullptr;
};

}  // namespace pcd::service
