// Thread-local free-list pool for the simulator's hottest transient
// allocations: coroutine frames (Process and Op bodies), the MPI layer's
// per-message records and the network's per-transfer records.  A CG-shaped
// 4096-rank run churns through millions of such objects, all short-lived
// and drawn from a handful of size classes, so malloc round-trips dominate
// the profile; recycling them through a per-thread LIFO free list removes
// that cost without changing event counts, ordering, or RNG draws (memory
// addresses never feed the digests).
//
// Layout: 128 buckets at 16-byte granularity (up to 2048 bytes), so a
// block wastes at most 15 bytes: the MPI layer's send and receive records
// (144 and 128 bytes with their shared_ptr control block) and the small Op
// frames are under 150 bytes, where 64-byte classes would waste up to 56
// bytes each and spread a 4096-rank working set over more cache lines.
// Larger requests fall through to ::operator new/delete.  Each thread owns
// its lists outright — no locks; blocks freed on a different thread than
// they were allocated on simply migrate to the freeing thread's pool.
//
// Teardown: the pool is a function-local thread_local.  A trivially-
// destructible `destroyed` flag (which therefore outlives the pool's
// destructor) lets late frees during thread exit fall back to plain
// ::operator delete instead of touching a dead free list.
//
// Under AddressSanitizer the pool is compiled out entirely so poisoning,
// use-after-free detection, and leak accounting keep full precision.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define PCD_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCD_FRAME_POOL_DISABLED 1
#endif
#endif

namespace pcd::sim {

namespace framepool_detail {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kBuckets = 128;
inline constexpr std::size_t kMaxPooled = kGranule * kBuckets;  // 2048 bytes

/// Size class of a pooled request: bytes rounded up to kGranule, minus one.
constexpr std::size_t bucket_index(std::size_t bytes) noexcept {
  return (bytes + kGranule - 1) / kGranule - 1;
}

#ifndef PCD_FRAME_POOL_DISABLED

struct Pool {
  void* heads[kBuckets] = {};
  bool* destroyed = nullptr;

  ~Pool() {
    for (void*& h : heads) {
      while (h != nullptr) {
        void* next = *static_cast<void**>(h);
        ::operator delete(h);
        h = next;
      }
    }
    if (destroyed != nullptr) *destroyed = true;
  }
};

inline Pool* tls_pool() noexcept {
  // `gone` is trivially destructible, so it stays readable through the whole
  // thread-exit sequence; the pool's destructor flips it when the lists die.
  static thread_local bool gone = false;
  static thread_local Pool pool;
  if (gone) return nullptr;
  pool.destroyed = &gone;
  return &pool;
}

#endif  // !PCD_FRAME_POOL_DISABLED

}  // namespace framepool_detail

inline void* pool_alloc(std::size_t bytes) {
#ifdef PCD_FRAME_POOL_DISABLED
  return ::operator new(bytes);
#else
  using namespace framepool_detail;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooled) return ::operator new(bytes);
  const std::size_t b = bucket_index(bytes);
  Pool* p = tls_pool();
  if (p != nullptr && p->heads[b] != nullptr) {
    void* r = p->heads[b];
    p->heads[b] = *static_cast<void**>(r);
    return r;
  }
  return ::operator new((b + 1) * kGranule);
#endif
}

inline void pool_free(void* ptr, [[maybe_unused]] std::size_t bytes) noexcept {
  if (ptr == nullptr) return;
#ifdef PCD_FRAME_POOL_DISABLED
  ::operator delete(ptr);
#else
  using namespace framepool_detail;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooled) {
    ::operator delete(ptr);
    return;
  }
  Pool* p = tls_pool();
  if (p == nullptr) {  // thread is tearing down; its lists are gone
    ::operator delete(ptr);
    return;
  }
  const std::size_t b = bucket_index(bytes);
  *static_cast<void**>(ptr) = p->heads[b];
  p->heads[b] = ptr;
#endif
}

/// Minimal allocator over the pool, for allocate_shared of the MPI layer's
/// per-message records (control block + record become one pooled block).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_free(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace pcd::sim
