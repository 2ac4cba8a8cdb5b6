#include "sim/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcd::sim {

ShardedEngine::ShardedEngine(int shards, SimDuration lookahead,
                             ShardedEngineOptions options)
    : lookahead_(lookahead), options_(options) {
  if (shards <= 0) {
    throw std::invalid_argument("ShardedEngine: shard count must be positive, got " +
                                std::to_string(shards));
  }
  if (lookahead <= 0) {
    throw std::invalid_argument(
        "ShardedEngine: lookahead must be >= 1 ns (derive it from "
        "Network::min_latency(), which is validated strictly positive), got " +
        std::to_string(lookahead));
  }
  engines_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) engines_.push_back(std::make_unique<Engine>());
  outboxes_.resize(static_cast<std::size_t>(shards));
  worker_errors_.resize(static_cast<std::size_t>(shards));
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

void ShardedEngine::post(int from, int to, SimTime t, Callback cb,
                         const char* site) {
  if (from < 0 || from >= shards() || to < 0 || to >= shards()) {
    throw std::out_of_range("ShardedEngine::post: shard index out of range");
  }
  const SimTime sender_now = engines_[static_cast<std::size_t>(from)]->now();
  if (t < sender_now + lookahead_) {
    throw std::logic_error(
        "ShardedEngine::post: conservative lookahead violated at site '" +
        std::string(site) + "': deliver time " + std::to_string(t) +
        " < sender now " + std::to_string(sender_now) + " + lookahead " +
        std::to_string(lookahead_));
  }
  Outbox& box = outboxes_[static_cast<std::size_t>(from)];
  box.msgs.push_back(Pending{t, box.next_order++, to, site, std::move(cb)});
}

void ShardedEngine::inject_outboxes(RunStats& stats) {
  inject_scratch_.clear();
  for (auto& box : outboxes_) {
    for (auto& m : box.msgs) inject_scratch_.push_back(std::move(m));
    box.msgs.clear();
  }
  if (inject_scratch_.empty()) return;
  // Injection order is part of the deterministic contract: destination
  // engines assign sequence numbers in injection order, so two messages
  // landing at the same instant tie-break by (source shard, posting order)
  // — properties of the simulation, not of thread timing.  The source-shard
  // component of the key is recovered from `order`'s owner by sorting the
  // per-source boxes in shard order above and using a stable sort here.
  std::stable_sort(inject_scratch_.begin(), inject_scratch_.end(),
                   [](const Pending& a, const Pending& b) { return a.t < b.t; });
  for (auto& m : inject_scratch_) {
    engines_[static_cast<std::size_t>(m.to)]->schedule_at(m.t, std::move(m.cb),
                                                          m.site);
    ++stats.posts;
  }
  inject_scratch_.clear();
}

void ShardedEngine::start_workers() {
  workers_.reserve(engines_.size());
  for (int s = 0; s < shards(); ++s) {
    workers_.emplace_back([this, s] { worker_main(s); });
  }
}

void ShardedEngine::worker_main(int s) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    SimTime target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      target = target_;
    }
    try {
      engines_[static_cast<std::size_t>(s)]->run_until(target);
    } catch (...) {
      worker_errors_[static_cast<std::size_t>(s)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_workers_;
    }
    cv_done_.notify_one();
  }
}

void ShardedEngine::advance_all(SimTime target) {
  if (!options_.parallel || shards() == 1) {
    for (auto& e : engines_) e->run_until(target);
    return;
  }
  if (workers_.empty()) start_workers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_ = target;
    running_workers_ = shards();
    ++epoch_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return running_workers_ == 0; });
  }
  for (auto& err : worker_errors_) {
    if (err) {
      std::exception_ptr ex = err;
      for (auto& e : worker_errors_) e = nullptr;
      std::rethrow_exception(ex);
    }
  }
}

ShardedEngine::RunStats ShardedEngine::run(
    SimTime until, const std::function<bool(SimTime)>& on_barrier) {
  RunStats stats;
  std::uint64_t processed_before = 0;
  for (auto& e : engines_) processed_before += e->events_processed();
  horizon_ = 0;
  for (auto& e : engines_) horizon_ = std::max(horizon_, e->now());

  for (;;) {
    // Barrier: every engine parked, workers idle.  Drain cross-shard
    // messages first so the control callback and the next-window minimum
    // both see them.
    inject_outboxes(stats);
    if (on_barrier && !on_barrier(horizon_)) break;
    // The control callback may have scheduled or cancelled events — and a
    // post() from the driver is legal here — so re-drain before measuring.
    inject_outboxes(stats);

    SimTime next = kNoLimit;
    bool any = false;
    for (auto& e : engines_) {
      if (auto t = e->next_event_time()) {
        any = true;
        next = std::min(next, *t);
      }
    }
    if (!any) break;            // globally idle and no message in flight
    if (next > until) {         // nothing left inside the bound
      advance_all(until);
      horizon_ = until;
      break;
    }
    // Conservative window: events at t >= next post cross-shard work no
    // earlier than next + lookahead, so everything in [next, E] is safe to
    // run without hearing from other shards.
    SimTime end = (next >= until - lookahead_ + 1) ? until
                                                   : next + lookahead_ - 1;
    advance_all(end);
    horizon_ = end;
    ++stats.windows;
    if (end == until) break;
  }

  std::uint64_t processed_after = 0;
  for (auto& e : engines_) processed_after += e->events_processed();
  stats.events = processed_after - processed_before;
  stats.horizon = horizon_;
  return stats;
}

}  // namespace pcd::sim
