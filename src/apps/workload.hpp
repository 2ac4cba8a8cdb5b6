// Workload framework: applications as coroutine "phase programs".
//
// Each NPB replica (and swim, and the microbenchmarks) is a factory that
// builds one rank process.  Rank processes interleave:
//   - compute phases (on-chip cycles + memory stalls, sliced so utilization
//     sampling and power traces see realistic interleave),
//   - MPI communication with the paper's per-code patterns.
//
// INTERNAL scheduling (paper §3.3/§5.3) attaches through DvsHooks: the
// workload calls the hooks at the same source locations where the paper
// inserts set_cpuspeed() calls (Figures 10 and 13).
#pragma once

#include <coroutine>
#include <functional>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/op.hpp"
#include "sim/process.hpp"
#include "trace/tracer.hpp"

namespace pcd::apps {

/// Hook points for INTERNAL DVS control, mirroring where API calls are
/// inserted in the paper's source listings.
struct DvsHooks {
  using Fn = std::function<void(mpi::CommBase&, int rank)>;
  /// Called once per rank at MPI_Init time (heterogeneous per-rank speeds,
  /// Figure 13).
  Fn at_start;
  /// Called around the dominant communication phase the profile identified
  /// (Figure 10: set_cpuspeed(low) before mpi_alltoall, high after).
  Fn before_marked_comm;
  Fn after_marked_comm;
  /// Called around *every* communication call — the first rejected CG
  /// policy (§5.3.2: "scale down CPU speed during communication").
  Fn before_any_comm;
  Fn after_any_comm;
  /// Called around every MPI_Wait — the second rejected CG policy.
  Fn before_wait;
  Fn after_wait;
};

/// Shared context handed to every rank process.
struct AppContext {
  mpi::CommBase* comm = nullptr;
  trace::Tracer* tracer = nullptr;
  const DvsHooks* hooks = nullptr;
  /// Compute phases are sliced into chunks of roughly this duration so the
  /// CPUSPEED daemon's utilization windows see the true busy/idle mix.
  double slice_s = 0.050;

  void call(const DvsHooks::Fn& fn, int rank) const {
    if (hooks != nullptr && fn) fn(*comm, rank);
  }
};

/// A runnable workload: name + rank count + rank-process factory.
struct Workload {
  std::string name;        // e.g. "FT.C.8"
  int ranks = 1;
  int iterations = 1;
  std::string description;
  std::function<sim::Process(AppContext&, int rank)> make_rank;
};

/// Executes a compute phase: `onchip_s` of on-chip work (expressed in
/// seconds at the node's top frequency) interleaved with `mem_s` of
/// frequency-insensitive memory stalls, sliced per ctx.slice_s.
/// `mem_act` overrides the power activity of the stalls (< 0 = default);
/// cache-miss-bound compute (LU) keeps the core nearly fully active while
/// streaming stalls (swim) do not.
///
/// A plain awaiter, not a coroutine: the phase starts when awaited and
/// steps its slices as CPU work continuations, with its loop state in the
/// awaiting frame.  Each slice half opens its trace scope (traced runs)
/// before its work starts and closes it when the work completes, and the
/// last completion resumes the caller from inside that dispatch.
class [[nodiscard]] ComputePhase {
 public:
  ComputePhase(AppContext& ctx, int rank, double onchip_s, double mem_s, double mem_act)
      : ctx_(&ctx), rank_(rank), on_per_(onchip_s), mem_per_(mem_s), mem_act_(mem_act) {}
  ComputePhase(const ComputePhase&) = delete;
  ComputePhase& operator=(const ComputePhase&) = delete;

  bool await_ready();
  bool await_suspend(std::coroutine_handle<> caller) {
    caller_ = caller;
    return run_slices();
  }
  void await_resume() const {}

 private:
  bool run_slices();
  static void slice_done(void* self);

  AppContext* ctx_;
  cpu::Cpu* cpu_ = nullptr;
  int rank_;
  int slices_ = 0;
  int next_ = 0;  // next slice half: 2 * slice + (0 on-chip, 1 stall)
  double on_per_;   // the phase totals until await_ready splits them
  double mem_per_;
  double mem_act_;
  std::coroutine_handle<> caller_;
  trace::ScopeBox scope_;
};

inline ComputePhase compute_phase(AppContext& ctx, int rank, double onchip_s, double mem_s,
                                  double mem_act = -1) {
  return ComputePhase(ctx, rank, onchip_s, mem_s, mem_act);
}

}  // namespace pcd::apps
