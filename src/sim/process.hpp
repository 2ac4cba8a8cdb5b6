// Process-oriented simulation on top of the event engine, using C++20
// coroutines.  A simulated MPI rank, the CPUSPEED daemon, or a measurement
// loop is written as an ordinary coroutine:
//
//   sim::Process rank_main(NodeHandle node, ...) {
//     co_await sim::delay(sim::kMillisecond);
//     co_await comm.alltoall(rank, bytes);
//   }
//   sim::spawn(engine, rank_main(node, ...));
//
// Lifetime model: the coroutine frame is owned by the engine from spawn()
// until completion (it self-destroys at final suspend).  Process is a
// move-only handle linked to the frame by a back-pointer in the promise:
// completion copies the done flag and any exception into the handle, so the
// common fire-and-forget spawn allocates nothing beyond the frame itself.
// Frames still suspended when the engine is destroyed are cleaned up by
// ~Engine (the back-pointer is detached first, so dropped or held handles
// never dangle).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"

namespace pcd::sim {

class Process {
 public:
  struct promise_type {
    Engine* engine_ptr = nullptr;
    Process* owner = nullptr;  // the live handle, if any (kept current on move)
    std::exception_ptr exception;
    std::vector<std::coroutine_handle<>> waiters;
    std::uint32_t frame_slot = 0;

    // Coroutine frames cycle through the thread-local pool; spawning a rank
    // process costs a freelist pop instead of a malloc on the steady state.
    static void* operator new(std::size_t bytes) { return pool_alloc(bytes); }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      pool_free(p, bytes);
    }

    Engine* engine() const { return engine_ptr; }

    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Publish completion into the owning handle, wake joiners through
        // the engine queue (preserving FIFO ordering at the current
        // timestamp), then self-destroy.
        promise_type& p = h.promise();
        Engine* engine = p.engine_ptr;
        std::exception_ptr ex = p.exception;
        auto waiters = std::move(p.waiters);
        if (p.owner != nullptr) {
          p.owner->done_ = true;
          p.owner->exception_ = ex;
          p.owner->handle_ = nullptr;
        }
        if (engine != nullptr) engine->unregister_frame(p.frame_slot);
        h.destroy();
        if (engine == nullptr) return;
        if (ex && waiters.empty()) {
          engine->post_orphan_exception(ex);
        }
        for (auto w : waiters) {
          engine->schedule_in(0, [w] { w.resume(); }, "process.join");
        }
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)),
        started_(other.started_),
        done_(other.done_),
        exception_(std::move(other.exception_)) {
    if (handle_) handle_.promise().owner = this;
  }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      release();
      handle_ = std::exchange(other.handle_, nullptr);
      started_ = other.started_;
      done_ = other.done_;
      exception_ = std::move(other.exception_);
      if (handle_) handle_.promise().owner = this;
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { release(); }

  bool done() const { return done_; }
  bool started() const { return started_; }
  bool failed() const { return exception_ != nullptr; }

  /// Joins the process: suspends until it completes; rethrows its exception.
  /// The Process handle must outlive the join (it is where completion lands).
  auto operator co_await() const {
    struct Awaiter {
      const Process* p;
      bool await_ready() const { return p->done_; }
      void await_suspend(std::coroutine_handle<> h) {
        p->handle_.promise().waiters.push_back(h);
      }
      void await_resume() const {
        if (p->exception_) std::rethrow_exception(p->exception_);
      }
    };
    return Awaiter{this};
  }

 private:
  friend Process spawn(Engine& engine, Process proc);

  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {
    handle_.promise().owner = this;
  }

  void release() {
    if (!handle_) return;
    if (!started_) {
      handle_.destroy();  // never spawned: the handle still owns the frame
    } else {
      handle_.promise().owner = nullptr;  // fire-and-forget: frame lives on
    }
    handle_ = nullptr;
  }

  // Engine teardown notifier: the frame is about to be destroyed with its
  // owner handle still live, so the handle must forget it first.
  static void detach_frame(std::coroutine_handle<> raw) {
    auto h = std::coroutine_handle<promise_type>::from_address(raw.address());
    promise_type& p = h.promise();
    if (p.owner != nullptr) {
      p.owner->handle_ = nullptr;
      p.owner = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
  bool started_ = false;
  bool done_ = false;
  std::exception_ptr exception_;
};

/// Launches a process: the coroutine body starts running at the engine's
/// current time (as a queued event, so spawn order = run order).  Returns a
/// handle usable for joining; the handle may be dropped for fire-and-forget.
inline Process spawn(Engine& engine, Process proc) {
  assert(proc.handle_ && !proc.started_ && "process already spawned");
  auto h = proc.handle_;
  h.promise().engine_ptr = &engine;
  h.promise().frame_slot = engine.register_frame(h, &Process::detach_frame);
  proc.started_ = true;
  engine.schedule_in(0, [h] { h.resume(); }, "process.spawn");
  return proc;
}

/// Awaitable that suspends the current process for `dt` nanoseconds.
struct DelayAwaiter {
  SimDuration dt;
  bool await_ready() const { return dt <= 0; }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> h) {
    Engine* engine = h.promise().engine();
    engine->schedule_in(dt, [h]() mutable { h.resume(); }, "process.delay");
  }
  void await_resume() const {}
};

inline DelayAwaiter delay(SimDuration dt) { return DelayAwaiter{dt}; }

/// One-shot broadcast event: waiters suspend until set() is called; waiting
/// on an already-set event does not suspend.  reset() re-arms it.
///
/// A waiter is a Continuation, so frame-free awaiters (the MPI layer's
/// blocking calls) can park their own step function on it; a coroutine
/// parks through wait(), which resumes it.  Each wake-up runs from its own
/// "event.set" event, first waiter first.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(&engine) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set() {
    if (signaled()) return;
    const Continuation first = std::exchange(w0_, Continuation{&set_mark, nullptr});
    if (first.fn != nullptr) engine_->schedule_in(0, first, "event.set");
    if (rest_) {
      auto waiters = std::move(rest_);
      for (const Continuation& w : *waiters) engine_->schedule_in(0, w, "event.set");
    }
  }

  void reset() {
    if (signaled()) w0_ = {};
  }
  bool signaled() const { return w0_.fn == &set_mark; }
  std::size_t waiter_count() const {
    return (w0_.fn != nullptr && !signaled() ? 1 : 0) + (rest_ ? rest_->size() : 0);
  }

  /// Runs `then` once the event is set.  The event must not be set yet
  /// (a set event runs nothing later).
  void when_set(Continuation then) {
    assert(!signaled());
    if (w0_.fn == nullptr) {
      w0_ = then;
    } else {
      if (!rest_) rest_ = std::make_unique<std::vector<Continuation>>();
      rest_->push_back(then);
    }
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const { return ev->signaled(); }
      void await_suspend(std::coroutine_handle<> h) {
        ev->when_set(Continuation::resume(h));
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  // w0_.fn while the event is set.  A set event has no waiters (set()
  // schedules them all), so the first-waiter slot doubles as the flag.
  static void set_mark(void*) {}

  Engine* engine_;
  // Nearly every event (message delivered, request done) has exactly one
  // waiter; the inline slot makes that case allocation-free.  Further
  // waiters go to an overflow vector behind a pointer, created on demand,
  // which keeps an Event at 32 bytes (every MPI request holds one).
  Continuation w0_;
  std::unique_ptr<std::vector<Continuation>> rest_;
};

}  // namespace pcd::sim
