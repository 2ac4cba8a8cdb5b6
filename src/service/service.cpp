#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "campaign/runner.hpp"

namespace pcd::service {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

bool contains(const std::string& s, const char* sub) {
  return s.find(sub) != std::string::npos;
}

/// SplitMix64 finalizer: the deterministic mixer behind the chaos coin and
/// the retry jitter (no global RNG — replayable per (seed, key, round)).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

enum class Outcome { Success, Permanent, Transient, Cancelled };

Outcome classify(const campaign::CellResult& cell, bool plan_valid) {
  if (!plan_valid) return Outcome::Permanent;
  const bool failed = cell.failures > 0 || cell.result.failed;
  if (!failed) return Outcome::Success;
  auto any_error = [&](const char* sub) {
    if (contains(cell.result.failure, sub)) return true;
    for (const auto& e : cell.errors) {
      if (contains(e, sub)) return true;
    }
    return false;
  };
  if (any_error("cancelled")) return Outcome::Cancelled;
  // Fault-injected failures are the transient class of the taxonomy: the
  // injection was infrastructure, not the spec, so a clean re-run can
  // succeed.  Deadline overruns retry too (bounded by max_retries) — a
  // loaded box may simply have been slow.
  if (cell.result.fault_report.has_value() &&
      cell.result.fault_report->injected > 0) {
    return Outcome::Transient;
  }
  if (any_error("deadline exceeded")) return Outcome::Transient;
  // Everything else is deterministic for a share-nothing run: re-running
  // the same RunConfig reproduces the same failure.
  return Outcome::Permanent;
}

void collect_recordings(const campaign::CellResult& cell, Response* resp) {
  if (cell.result.determinism.has_value() &&
      !cell.result.determinism->flight_recording.empty()) {
    resp->flight_recordings.push_back(cell.result.determinism->flight_recording);
  }
  if (cell.result.fault_report.has_value()) {
    for (const auto& dump : cell.result.fault_report->flight_recordings) {
      resp->flight_recordings.push_back(dump);
    }
  }
}

/// A cell the service never ran (budget exhausted, cancelled while queued
/// in the retry set): same shape a fully failed run would have, so the TSV
/// and the client see a structured per-cell error.
campaign::CellResult synthetic_failure(const campaign::CellPlan& plan,
                                       const std::string& why) {
  campaign::CellResult cell;
  cell.index = plan.index;
  cell.workload = plan.workload_label;
  cell.labels = plan.labels;
  cell.numbers = plan.numbers;
  cell.numeric = plan.numeric;
  cell.config_issues = plan.issues;
  cell.runs = 0;
  cell.failures = 1;
  cell.errors.push_back(why);
  cell.result.failed = true;
  cell.result.failure = why;
  return cell;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Rejected: return "rejected";
    case Status::Error: return "error";
    case Status::Cancelled: return "cancelled";
  }
  return "?";
}

CampaignService::CampaignService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir, options_.cache_sync) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    m.set_help("campaign_service_requests_total", "Requests submitted");
    m.set_help("campaign_service_shed_total", "Requests shed at admission");
    m.set_help("campaign_service_retries_total", "Cell re-runs after transient failures");
    m.set_help("campaign_service_cache_hits_total", "Cells served from the result cache");
    m.set_help("campaign_service_cache_misses_total", "Cells that had to run");
    m.set_help("campaign_service_cancelled_total", "Requests cancelled before completion");
    m.set_help("campaign_service_queue_depth", "Requests waiting for a worker");
    m_requests_ = &m.counter("campaign_service_requests_total");
    m_shed_ = &m.counter("campaign_service_shed_total");
    m_retries_ = &m.counter("campaign_service_retries_total");
    m_cache_hits_ = &m.counter("campaign_service_cache_hits_total");
    m_cache_misses_ = &m.counter("campaign_service_cache_misses_total");
    m_cancelled_ = &m.counter("campaign_service_cancelled_total");
    m_queue_depth_ = &m.gauge("campaign_service_queue_depth");
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CampaignService::~CampaignService() { shutdown_now(); }

std::size_t CampaignService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool CampaignService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_ || stopping_;
}

double CampaignService::retry_after_locked() const {
  // Work ahead of a re-submission: everything queued or running, spread
  // over the workers, at the recent per-request pace.
  const double waiting = static_cast<double>(queue_.size() + in_flight_ + 1);
  return waiting * ewma_request_s_ / static_cast<double>(options_.workers);
}

CampaignService::Ticket CampaignService::submit(SpecRequest req) {
  auto job = std::make_shared<Job>();
  job->req = std::move(req);

  Response rejected;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->id = ++next_id_;
    jobs_[job->id] = job;
    if (m_requests_ != nullptr) m_requests_->inc();
    if (draining_ || stopping_) {
      shed = true;
      rejected.status = Status::Rejected;
      rejected.reason = "service is draining; not admitting new campaigns";
      rejected.retry_after_s = 0;
    } else if (queue_.size() >= options_.max_queue) {
      shed = true;
      rejected.status = Status::Rejected;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "admission queue full (%zu waiting); shedding load",
                    queue_.size());
      rejected.reason = buf;
      rejected.retry_after_s = retry_after_locked();
      if (m_shed_ != nullptr) m_shed_->inc();
    } else {
      queue_.push_back(job);
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->set(static_cast<double>(queue_.size()));
      }
    }
  }
  if (shed) {
    complete(job, std::move(rejected));
  } else {
    cv_.notify_one();
  }
  return Ticket{job->id};
}

Response CampaignService::wait(Ticket t) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(t.id);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    Response resp;
    resp.status = Status::Error;
    resp.reason = "unknown or already-collected ticket";
    return resp;
  }
  Response out;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return job->done; });
    out = std::move(job->response);
  }
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.erase(t.id);
  return out;
}

void CampaignService::cancel(Ticket t) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(t.id);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) return;
  job->cancel.store(true, std::memory_order_relaxed);
  job->cv.notify_all();
}

void CampaignService::complete(const std::shared_ptr<Job>& job, Response resp) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->response = std::move(resp);
    job->done = true;
  }
  job->cv.notify_all();
}

void CampaignService::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with nothing left
      job = queue_.front();
      queue_.pop_front();
      ++in_flight_;
      running_.push_back(job);
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->set(static_cast<double>(queue_.size()));
      }
    }

    const auto t0 = Clock::now();
    Response resp;
    if (job->cancel.load(std::memory_order_relaxed)) {
      resp.status = Status::Cancelled;
      resp.reason = "cancelled while queued";
    } else {
      if (before_run_) before_run_();
      resp = run_request(*job);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
      --in_flight_;
      ewma_request_s_ = 0.8 * ewma_request_s_ + 0.2 * elapsed_s(t0);
      if (m_cancelled_ != nullptr && resp.status == Status::Cancelled) {
        m_cancelled_->inc();
      }
    }
    complete(job, std::move(resp));
    idle_cv_.notify_all();
  }
}

bool CampaignService::chaos_coin(std::uint64_t key, int attempt) const {
  const auto& chaos = options_.chaos;
  if (chaos.probability <= 0 || attempt >= chaos.max_attempt) return false;
  const std::uint64_t h =
      mix64(chaos.seed ^ mix64(key ^ static_cast<std::uint64_t>(attempt)));
  return unit_interval(h) < chaos.probability;
}

void CampaignService::backoff_wait(Job& job, int round, std::uint64_t key) {
  double interval =
      options_.retry_backoff_s * static_cast<double>(1LL << std::min(round, 20));
  if (options_.retry_jitter > 0) {
    // Deterministic jitter in [1 - j, 1 + j]: decorrelates concurrent
    // clients without drawing from any shared RNG.
    const double u = unit_interval(
        mix64(key ^ (static_cast<std::uint64_t>(round) << 32) ^ 0xa5a5a5a5ULL));
    interval *= 1.0 + options_.retry_jitter * (2.0 * u - 1.0);
  }
  std::unique_lock<std::mutex> lock(job.mu);
  job.cv.wait_for(lock, std::chrono::duration<double>(interval), [&] {
    return job.cancel.load(std::memory_order_relaxed);
  });
}

Response CampaignService::run_request(Job& job) {
  const auto t0 = Clock::now();
  Response resp;

  std::string err;
  auto spec_opt = job.req.to_spec(&err);
  if (!spec_opt.has_value()) {
    resp.status = Status::Error;
    resp.reason = err;
    return resp;
  }
  campaign::ExperimentSpec& spec = *spec_opt;

  std::vector<campaign::CellPlan> plans;
  try {
    plans = spec.expand_lenient();
  } catch (const std::exception& e) {
    resp.status = Status::Error;
    resp.reason = e.what();
    return resp;
  }

  const double budget =
      job.req.budget_s > 0 ? job.req.budget_s : options_.default_budget_s;
  const double deadline =
      job.req.deadline_s > 0 ? job.req.deadline_s : options_.default_deadline_s;

  struct Slot {
    campaign::CellPlan plan;
    std::uint64_t key = 0;
    int attempt = 0;
    bool chaos = false;  // chaos applied to the attempt about to run / just run
  };

  std::vector<campaign::CellResult> cells;
  std::vector<Slot> pending;
  cells.reserve(plans.size());
  for (auto& plan : plans) {
    const std::string strategy = plan.labels.empty() ? "" : plan.labels.front();
    Slot slot;
    slot.key = job.req.cell_key(plan.workload_label, strategy);
    if (plan.valid()) {
      if (auto hit = cache_.lookup(slot.key); hit.has_value()) {
        hit->index = plan.index;  // matrix position in THIS request
        cells.push_back(std::move(*hit));
        ++resp.cache_hits;
        continue;
      }
      ++resp.cache_misses;
    }
    slot.plan = std::move(plan);
    pending.push_back(std::move(slot));
  }
  if (options_.metrics != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (m_cache_hits_ != nullptr) m_cache_hits_->inc(resp.cache_hits);
    if (m_cache_misses_ != nullptr) m_cache_misses_->inc(resp.cache_misses);
  }

  bool cancelled = false;
  bool budget_hit = false;
  int round = 0;
  while (!pending.empty()) {
    if (job.cancel.load(std::memory_order_relaxed)) {
      cancelled = true;
      for (auto& slot : pending) {
        cells.push_back(synthetic_failure(slot.plan, "request cancelled"));
      }
      pending.clear();
      break;
    }
    double remaining_s = 0;
    if (budget > 0) {
      remaining_s = budget - elapsed_s(t0);
      if (remaining_s <= 0) {
        budget_hit = true;
        for (auto& slot : pending) {
          cells.push_back(synthetic_failure(
              slot.plan, "request budget exhausted before the cell ran"));
        }
        pending.clear();
        break;
      }
    }

    // Chaos marking for this round: early attempts may run under the chaos
    // FaultPlan; the flag also forces a clean re-run afterwards.
    for (auto& slot : pending) {
      slot.chaos = chaos_coin(slot.key, slot.attempt);
      slot.plan.config.faults =
          slot.chaos ? options_.chaos.plan : fault::FaultPlan{};
    }

    campaign::CampaignOptions copts;
    copts.threads = options_.campaign_threads;
    copts.cancel = &job.cancel;
    copts.run_deadline_s = deadline;
    if (budget > 0 &&
        (copts.run_deadline_s <= 0 || copts.run_deadline_s > remaining_s)) {
      copts.run_deadline_s = remaining_s;
    }

    std::vector<campaign::CellPlan> round_plans;
    round_plans.reserve(pending.size());
    for (const auto& slot : pending) round_plans.push_back(slot.plan);
    campaign::CampaignResult partial =
        campaign::CampaignRunner(copts).run_cells(spec, std::move(round_plans));

    std::vector<Slot> next;
    int retries_this_round = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Slot& slot = pending[i];
      campaign::CellResult& cell = partial.cells[i];
      Outcome outcome = classify(cell, slot.plan.valid());
      // A chaos-touched attempt never stands as the final word while
      // retries remain: even a "success" under injected faults is a
      // different trajectory than the clean run, so it is re-run clean
      // (and never cached).
      if (slot.chaos && outcome != Outcome::Cancelled) {
        outcome = Outcome::Transient;
      }
      const bool attempts_left = slot.attempt < options_.max_retries;
      if (outcome == Outcome::Transient && attempts_left) {
        collect_recordings(cell, &resp);
        ++slot.attempt;
        ++retries_this_round;
        next.push_back(std::move(slot));
        continue;
      }
      if (outcome == Outcome::Success && slot.plan.valid() && !slot.chaos) {
        cache_.insert(slot.key, cell);
      } else {
        collect_recordings(cell, &resp);
      }
      cells.push_back(std::move(cell));
    }
    if (retries_this_round > 0) {
      resp.retries += retries_this_round;
      if (options_.metrics != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        if (m_retries_ != nullptr) m_retries_->inc(retries_this_round);
      }
    }
    pending = std::move(next);
    if (!pending.empty()) backoff_wait(job, round, pending.front().key);
    ++round;
  }

  std::sort(cells.begin(), cells.end(),
            [](const campaign::CellResult& a, const campaign::CellResult& b) {
              return a.index < b.index;
            });
  for (const auto& a : spec.axes()) resp.result.axis_names.push_back(a.name);
  resp.result.cells = std::move(cells);
  resp.result.total_runs = spec.total_runs();
  resp.result.threads = options_.campaign_threads;
  resp.result.wall_s = elapsed_s(t0);
  resp.fingerprint = resp.result.fingerprint();

  // A cancel that landed mid-round (the runner aborted its cells at a batch
  // boundary, but the round loop never saw the flag at its top) still makes
  // the request Cancelled, not Ok-with-failures.
  if (job.cancel.load(std::memory_order_relaxed)) cancelled = true;
  if (cancelled) {
    resp.status = Status::Cancelled;
    resp.reason = "request cancelled";
  } else {
    resp.status = Status::Ok;
    if (budget_hit) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "request budget (%.2f s) exhausted", budget);
      resp.reason = buf;
    }
  }
  return resp;
}

void CampaignService::stop_workers() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  workers_stopped_ = true;
}

void CampaignService::drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (workers_stopped_) return;
    draining_ = true;
    idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
    stopping_ = true;
  }
  stop_workers();
  cache_.sync();
}

void CampaignService::shutdown_now() {
  std::vector<std::shared_ptr<Job>> to_cancel;
  std::vector<std::shared_ptr<Job>> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_stopped_) return;
    draining_ = true;
    stopping_ = true;
    for (auto& job : queue_) queued.push_back(job);
    queue_.clear();
    if (m_queue_depth_ != nullptr) m_queue_depth_->set(0);
    to_cancel = running_;
  }
  for (auto& job : queued) {
    Response resp;
    resp.status = Status::Cancelled;
    resp.reason = "service shutting down";
    complete(job, std::move(resp));
  }
  for (auto& job : to_cancel) {
    job->cancel.store(true, std::memory_order_relaxed);
    job->cv.notify_all();
  }
  stop_workers();
}

}  // namespace pcd::service
