// Op: a lazy, awaitable coroutine for composable simulation operations.
//
// Unlike Process (eagerly spawned, detachable, joined through shared state),
// an Op starts only when awaited and resumes its awaiter on completion via
// symmetric transfer.  The simulated MPI collectives return Ops so that
//
//   co_await comm.alltoall(rank, bytes);
//
// composes naturally inside rank processes with no heap-allocated join
// state per call.  The awaiting coroutine owns the Op frame (RAII).
//
// Engine propagation: the child's promise learns the engine from its parent
// at await time, so sim::delay() and friends work at any nesting depth.
//
// An Op returns no value: a result goes back through state the caller
// passes in or the coroutine captures.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace pcd::sim {

class [[nodiscard]] Op {
 public:
  struct promise_type {
    Engine* engine_ptr = nullptr;
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    // Op frames are a hot allocation in a collective-heavy run (every
    // collective and every collective stage is one); recycle them through
    // the thread-local pool.
    static void* operator new(std::size_t bytes) { return pool_alloc(bytes); }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      pool_free(p, bytes);
    }

    Engine* engine() const { return engine_ptr; }

    Op get_return_object() {
      return Op(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Op(Op&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;
  Op& operator=(Op&&) = delete;
  ~Op() {
    if (h_) h_.destroy();
  }

  bool done() const noexcept { return h_ && h_.done(); }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept { return false; }
    template <typename ParentPromise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<ParentPromise> parent) noexcept {
      h.promise().continuation = parent;
      h.promise().engine_ptr = parent.promise().engine();
      assert(h.promise().engine_ptr != nullptr);
      return h;  // symmetric transfer: start the child now
    }
    void await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
    }
  };

  auto operator co_await() & = delete;  // awaiting must consume the Op
  auto operator co_await() && { return Awaiter{h_}; }

 private:
  explicit Op(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace pcd::sim
