// Continuation: a plain {function, argument} pair.
//
// Continuation is the simulator's 16-byte callback: what CPU work, network
// transfers, event waiters, the CPU change listener and the battery
// depletion hook run.  The event engine stores it (and any other trivially
// copyable callable of up to 16 bytes) directly in its 64-byte event nodes.
// The hooks set once per run (the network's NIC-activity hook, the
// telemetry sampler's probe and prelude) and cross-shard messages waiting
// in a ShardedEngine outbox are plain std::function: a capture of one
// pointer fits its local buffer, so those hooks allocate nothing.
#pragma once

#include <coroutine>

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

}  // namespace pcd::sim
