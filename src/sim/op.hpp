// Op<T>: a lazy, awaitable coroutine for composable simulation operations.
//
// Unlike Process (eagerly spawned, detachable, joined through shared state),
// an Op starts only when awaited and resumes its awaiter on completion via
// symmetric transfer.  The simulated MPI layer returns Ops so that
//
//   co_await comm.alltoall(rank, bytes);
//
// composes naturally inside rank processes with no heap-allocated join
// state per call.  The awaiting coroutine owns the Op frame (RAII).
//
// Engine propagation: the child's promise learns the engine from its parent
// at await time, so sim::delay() and friends work at any nesting depth.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace pcd::sim {

template <typename T>
class [[nodiscard]] Op;

namespace detail {

struct OpPromiseBase {
  Engine* engine_ptr = nullptr;
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  // Op frames are the single hottest allocation in an MPI-heavy run (every
  // point-to-point call and every collective stage is one); recycle them
  // through the thread-local pool.  Inherited by both Op<T> promise types.
  static void* operator new(std::size_t bytes) { return pool_alloc(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    pool_free(p, bytes);
  }

  Engine* engine() const { return engine_ptr; }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Op {
 public:
  struct promise_type : detail::OpPromiseBase {
    std::optional<T> value;
    Op get_return_object() {
      return Op(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
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
    T await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      return std::move(*h.promise().value);
    }
  };

  auto operator co_await() & = delete;  // awaiting must consume the Op
  auto operator co_await() && { return Awaiter{h_}; }

 private:
  explicit Op(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Op<void> {
 public:
  struct promise_type : detail::OpPromiseBase {
    Op get_return_object() {
      return Op(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
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
      return h;
    }
    void await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
    }
  };

  auto operator co_await() & = delete;
  auto operator co_await() && { return Awaiter{h_}; }

 private:
  explicit Op(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace pcd::sim
