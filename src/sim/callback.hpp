// Continuation: a plain {function, argument} pair, and InlineFunction: a
// move-only callable with small-buffer storage.
//
// Continuation is the simulator's 16-byte callback: what CPU work, network
// transfers, event waiters, the CPU change listener and the battery
// depletion hook run.  The event engine stores it (and any other trivially
// copyable callable of up to 16 bytes) directly in its 64-byte event nodes,
// so InlineFunction is no longer on the per-event path.
//
// InlineFunction stores any callable up to kInlineCallableSize bytes in the
// object itself and falls back to the heap only for oversized captures;
// move-only callables are accepted (std::function rejects them).  It serves
// the few once-per-run hooks that capture more than a pointer: the
// network's NIC-activity hook, the telemetry sampler's probe and prelude,
// and cross-shard messages waiting in a ShardedEngine outbox.
#pragma once

#include <coroutine>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pcd::sim {

/// What runs when a unit of CPU work or a network transfer completes: a
/// function pointer and the pointer it is called with.  Two words, no
/// ownership, no heap — the MPI layer's message records pass a step
/// function and themselves; a coroutine awaiting the same work passes its
/// handle through resume().
struct Continuation {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;

  void operator()() const { fn(arg); }

  /// Resumes coroutine `h`.
  static Continuation resume(std::coroutine_handle<> h) {
    return {[](void* a) { std::coroutine_handle<>::from_address(a).resume(); }, h.address()};
  }
};

/// Inline capacity of InlineFunction: up to four pointer-sized captures
/// plus a vtable of one pointer fit without touching the heap; a
/// std::function<void()> itself (32 bytes on the usual ABIs) also fits, so
/// wrapping legacy callables stays allocation-free.
inline constexpr std::size_t kInlineCallableSize = 48;

template <typename Signature, std::size_t Capacity = kInlineCallableSize>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<void*>(static_cast<const void*>(buf_)),
                        std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct the callable from `src` storage into `dst` storage and
    // destroy the source (for heap-stored callables this just moves the
    // owning pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  struct InlineOps {
    static D* get(void* storage) { return std::launder(reinterpret_cast<D*>(storage)); }
    static R invoke(void* storage, Args&&... args) {
      return (*get(storage))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*get(src)));
      get(src)->~D();
    }
    static void destroy(void* storage) noexcept { get(storage)->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& slot(void* storage) { return *std::launder(reinterpret_cast<D**>(storage)); }
    static R invoke(void* storage, Args&&... args) {
      return (*slot(storage))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(slot(src));
    }
    static void destroy(void* storage) noexcept { delete slot(storage); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace pcd::sim
