// NPB replica implementations and their calibration constants.
//
// Calibration (DESIGN.md §4): Table 2's delay rows fit
//     D(f)/D(1400) = 1 + w_cpu * (1400/f - 1)
// to within ~2%, which pins each code's on-chip (frequency-sensitive)
// fraction w_cpu.  The split of the remaining time between memory stalls
// and communication is set from the paper's trace observations (FT §5.3.1,
// CG §5.3.2) and from each code's published characteristics; the energy
// rows then emerge from the power model.
//
// Base-time budget at 1400 MHz is ~60 s per code at scale 1.0 (the paper
// runs for minutes so that ACPI polling is accurate; our exact integrator
// does not need that, and the dedicated ACPI bench studies the error).
#include "apps/npb.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

namespace pcd::apps {

namespace {

// Tag space for the replicas' explicit point-to-point messages.
constexpr int kTagExchangeA = 101;
constexpr int kTagExchangeB = 102;
constexpr int kExchangeTags[] = {kTagExchangeA, kTagExchangeB};  // CG's two per cycle
constexpr int kTagSweep = 110;

// ---- FT: communication-bound, all-to-all transposes ------------------------
//
// Figure 9 observations: comm:comp ~ 2:1, dominated by alltoall, long
// iterations, balanced ranks.  w_cpu = 0.0975 (delay(600) = 1.13).
// Per iteration at 1400: on-chip 0.2925 s, memory 0.7275 s, alltoall wire
// ~1.98 s (7 pairwise rounds of 3.54 MB at 12.5 MB/s).

struct FtSpec {
  int ranks = 8;
  int iterations = 20;
  double onchip_s = 0.2925;
  double mem_s = 0.7275;
  double alltoall_mb = 3.54;
};

sim::Process ft_rank(AppContext& ctx, FtSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int iters = std::max(2, static_cast<int>(std::lround(spec.iterations * scale)));
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    co_await compute_phase(ctx, rank, spec.onchip_s, spec.mem_s);
    // The paper's Figure 10 insertion points: set_cpuspeed(low) before the
    // all-to-all, set_cpuspeed(high) after.
    ctx.call(ctx.hooks ? ctx.hooks->before_marked_comm : nullptr, rank);
    ctx.call(ctx.hooks ? ctx.hooks->before_any_comm : nullptr, rank);
    co_await comm.alltoall(rank, static_cast<std::int64_t>(spec.alltoall_mb * 1e6));
    ctx.call(ctx.hooks ? ctx.hooks->after_any_comm : nullptr, rank);
    ctx.call(ctx.hooks ? ctx.hooks->after_marked_comm : nullptr, rank);
  }
  co_await comm.allreduce(rank, 64);  // final checksum
}

// ---- CG: frequent synchronization, per-rank asymmetry ------------------------
//
// Figure 12 observations: Wait and Send are the major events, cycles are
// short (transition overhead non-negligible), ranks 4-7 have a larger
// comm-to-comp ratio than ranks 0-3.  w_cpu = 0.105.
//
// Inner cycle (all ranks): on-chip 3.5 ms + base memory 6 ms, exchange with
// the partner rank (i <-> i+P/2), ranks 0..P/2-1 do 13 ms of extra
// memory-bound matrix work while the upper ranks wait in recv, exchange
// back, small allreduce.  Slowing the upper ranks delays their sends and
// stalls the lower ranks (tight bidirectional dependency), so — as the
// paper measured — heterogeneous scheduling buys no free slack.

struct CgSpec {
  int ranks = 8;
  int cycles = 1800;
  double onchip_s = 0.0035;
  double mem_base_s = 0.006;
  double mem_extra_s = 0.013;  // lower half only
  double exchange_kb = 64.0;
};

sim::Process cg_rank(AppContext& ctx, CgSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  const int half = spec.ranks / 2;
  const int partner = rank < half ? rank + half : rank - half;
  const bool lower = rank < half;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int cycles = std::max(1, static_cast<int>(std::lround(spec.cycles * scale)));
  const auto bytes = static_cast<std::int64_t>(spec.exchange_kb * 1024);

  for (int it = 0; it < cycles; ++it) {
    if (ctx.tracer && it % 24 == 0) ctx.tracer->mark_iteration(rank);
    co_await compute_phase(ctx, rank, spec.onchip_s, spec.mem_base_s);
    // Two partner exchanges per cycle, the lower half computing between
    // them: post both sides, then wait for the send and the receive.
    for (const int tag : kExchangeTags) {
      if (tag == kTagExchangeB && lower) {
        co_await compute_phase(ctx, rank, 0.0, spec.mem_extra_s);
      }
      ctx.call(ctx.hooks ? ctx.hooks->before_any_comm : nullptr, rank);
      auto rr = comm.irecv(rank, partner, tag);
      auto sr = comm.isend(rank, partner, tag, bytes);
      ctx.call(ctx.hooks ? ctx.hooks->before_wait : nullptr, rank);
      const mpi::Comm::Request reqs[] = {std::move(sr), std::move(rr)};
      co_await comm.waitall(rank, reqs);
      ctx.call(ctx.hooks ? ctx.hooks->after_wait : nullptr, rank);
      ctx.call(ctx.hooks ? ctx.hooks->after_any_comm : nullptr, rank);
    }
    co_await comm.allreduce(rank, 16);  // rho
  }
}

// ---- EP: embarrassingly parallel -------------------------------------------
//
// Type I crescendo: pure on-chip work, near-linear slowdown, no energy
// benefit from DVS.  w_cpu = 1.0.

struct EpSpec {
  int ranks = 8;
  int iterations = 16;
  double onchip_s = 3.64;
  double mem_s = 0.11;
};

sim::Process ep_rank(AppContext& ctx, EpSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int iters = std::max(2, static_cast<int>(std::lround(spec.iterations * scale)));
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    co_await compute_phase(ctx, rank, spec.onchip_s, spec.mem_s);
  }
  for (int i = 0; i < 3; ++i) co_await comm.allreduce(rank, 64);  // sx, sy, counts
}

// ---- IS: bursty all-to-all-v, collision-prone --------------------------------
//
// Type IV crescendo: near-flat delay, linear energy saving; the paper's
// anomaly (fastest run *below* peak frequency) comes from the collision/
// backoff model firing on IS's bursts of large key exchanges.

struct IsSpec {
  int ranks = 8;
  int iterations = 10;
  double onchip_s = 1.35;   // key counting/ranking is branchy integer work
  double mem_s = 0.25;
  int chunks = 24;
  double chunk_kb = 333.0;  // per-pair per chunk: above collision_min_bytes
};

sim::Process is_rank(AppContext& ctx, IsSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const auto chunk_bytes = static_cast<std::int64_t>(spec.chunk_kb * 1024);
  std::vector<std::int64_t> sizes(spec.ranks, chunk_bytes);
  sizes[rank] = 0;
  const int iters = std::max(2, static_cast<int>(std::lround(spec.iterations * scale)));
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    co_await compute_phase(ctx, rank, spec.onchip_s, spec.mem_s);
    co_await comm.allreduce(rank, 1024);  // bucket size exchange
    ctx.call(ctx.hooks ? ctx.hooks->before_marked_comm : nullptr, rank);
    for (int c = 0; c < spec.chunks; ++c) {
      // Key redistribution: all sends posted at once (burst) — the
      // collision-prone traffic shape behind the paper's IS anomaly.
      co_await comm.alltoallv_burst(rank, sizes);
    }
    ctx.call(ctx.hooks ? ctx.hooks->after_marked_comm : nullptr, rank);
  }
}

// ---- LU: wavefront sweeps, frequent small messages ---------------------------
//
// Type II: compute-heavy (w_cpu = 0.435); the daemon sees high utilization
// and keeps full speed (auto ~ 1.01/0.96 in Table 2).

struct LuSpec {
  int ranks = 8;
  int iterations = 250;
  double onchip_s = 0.1044;
  double mem_s = 0.115;
  double sweep_kb = 45.0;
};

sim::Process lu_rank(AppContext& ctx, LuSpec spec, double scale, int rank) {
  // The 2-D wavefront keeps every rank busy almost all the time: each
  // sub-iteration computes a block, then exchanges thin pencils with both
  // ring neighbours (nonblocking, overlapped), so the CPUSPEED daemon sees
  // near-full utilization — which is why the paper's LU "auto" column is
  // equivalent to no DVS.
  auto& comm = *ctx.comm;
  const int p = spec.ranks;
  const int next = (rank + 1) % p;
  const int prev = (rank - 1 + p) % p;
  const auto bytes = static_cast<std::int64_t>(spec.sweep_kb * 1024);
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int iters = std::max(1, static_cast<int>(std::lround(spec.iterations * scale)));
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer && it % 5 == 0) ctx.tracer->mark_iteration(rank);
    for (int sweep = 0; sweep < 2; ++sweep) {  // lower then upper triangular
      const int tag = kTagSweep + sweep;
      const int to = sweep == 0 ? next : prev;
      const int from = sweep == 0 ? prev : next;
      auto rr = comm.irecv(rank, from, tag);
      auto sr = comm.isend(rank, to, tag, bytes);
      // LU's "memory" time is pointer-chasing cache misses: the core stays
      // nearly fully active (hence LU's near-EP power profile in Table 2).
      co_await compute_phase(ctx, rank, spec.onchip_s / 2, spec.mem_s / 2, 0.95);
      const mpi::Comm::Request reqs[] = {std::move(sr), std::move(rr)};
      co_await comm.waitall(rank, reqs);
    }
  }
  co_await comm.allreduce(rank, 64);
}

// ---- MG: multigrid V-cycle, memory heavy -------------------------------------
//
// Type II; blended utilization sits below the daemon's up-threshold, which
// is why CPUSPEED drags MG to low speed (auto 1.32/0.87).  w_cpu = 0.2925.

struct MgSpec {
  int ranks = 8;
  int iterations = 50;
  double onchip_s = 0.351;
  double mem_s = 0.432;
  double top_level_mb = 2.0;  // halved per level, exchanged up+down the cycle
  int levels = 6;
};

sim::Process mg_rank(AppContext& ctx, MgSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  const int p = spec.ranks;
  const int partner = rank ^ 1;  // nearest-neighbour halo partner
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int iters = std::max(1, static_cast<int>(std::lround(spec.iterations * scale)));
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    // Down-cycle: restrict; up-cycle: prolongate.  Compute is spread across
    // levels (coarse levels are cheap), halos shrink 4x per level.
    for (int pass = 0; pass < 2; ++pass) {
      double level_mb = spec.top_level_mb;
      double level_onchip = spec.onchip_s / 2 * 0.75;
      double level_mem = spec.mem_s / 2 * 0.75;
      for (int l = 0; l < spec.levels; ++l) {
        co_await compute_phase(ctx, rank, level_onchip, level_mem);
        if (p > 1) {
          ctx.call(ctx.hooks ? ctx.hooks->before_any_comm : nullptr, rank);
          auto rr = comm.irecv(rank, partner, kTagExchangeA + l);
          auto sr = comm.isend(rank, partner, kTagExchangeA + l,
                               static_cast<std::int64_t>(level_mb * 1e6));
          const mpi::Comm::Request reqs[] = {std::move(sr), std::move(rr)};
          co_await comm.waitall(rank, reqs);
          ctx.call(ctx.hooks ? ctx.hooks->after_any_comm : nullptr, rank);
        }
        level_mb /= 4.0;
        level_onchip /= 3.0;
        level_mem /= 3.0;
      }
    }
    co_await comm.allreduce(rank, 64);  // residual norm
  }
}

// ---- BT / SP: 9-rank pseudo-applications -------------------------------------
//
// Ring face-exchanges per directional sweep.  BT (w_cpu = 0.39) is Type II;
// SP (w_cpu = 0.135) is Type III with mild collision sensitivity (its
// Table 2 row shows delay 0.99 at 1200 MHz).

struct SweepSpec {
  int ranks = 9;
  int iterations = 60;
  double onchip_s = 0.39;
  double mem_s = 0.33;
  double face_kb = 583.0;  // per exchange; 6 exchanges per iteration
  int chunks_per_face = 1; // SP chunks its faces into collision-prone bursts
};

sim::Process sweep_rank(AppContext& ctx, SweepSpec spec, double scale, int rank) {
  auto& comm = *ctx.comm;
  const int p = spec.ranks;
  const int next = (rank + 1) % p;
  const int prev = (rank - 1 + p) % p;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  const int iters = std::max(2, static_cast<int>(std::lround(spec.iterations * scale)));
  const auto chunk_bytes =
      static_cast<std::int64_t>(spec.face_kb * 1024 / spec.chunks_per_face);
  for (int it = 0; it < iters; ++it) {
    if (ctx.tracer && it % 2 == 0) ctx.tracer->mark_iteration(rank);
    for (int dir = 0; dir < 3; ++dir) {  // x, y, z sweeps
      co_await compute_phase(ctx, rank, spec.onchip_s / 3, spec.mem_s / 3);
      for (int side = 0; side < 2; ++side) {
        const int to = side == 0 ? next : prev;
        const int from = side == 0 ? prev : next;
        ctx.call(ctx.hooks ? ctx.hooks->before_any_comm : nullptr, rank);
        for (int c = 0; c < spec.chunks_per_face; ++c) {
          const int tag = kTagExchangeA + dir * 8 + side * 4 + (c % 4);
          auto rr = comm.irecv(rank, from, tag);
          auto sr = comm.isend(rank, to, tag, chunk_bytes);
          const mpi::Comm::Request reqs[] = {std::move(sr), std::move(rr)};
          co_await comm.waitall(rank, reqs);
        }
        ctx.call(ctx.hooks ? ctx.hooks->after_any_comm : nullptr, rank);
      }
    }
  }
  co_await comm.allreduce(rank, 64);
}

// ---- swim / microbenchmarks ---------------------------------------------------

sim::Process swim_rank(AppContext& ctx, int iterations, double onchip_s, double mem_s,
                       double mem_act, int rank) {
  for (int it = 0; it < iterations; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    co_await compute_phase(ctx, rank, onchip_s, mem_s, mem_act);
  }
}

sim::Process pingpong_rank(AppContext& ctx, int iterations, std::int64_t bytes,
                           int rank) {
  auto& comm = *ctx.comm;
  for (int it = 0; it < iterations; ++it) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    if (rank == 0) {
      co_await comm.send(0, 1, kTagExchangeA, bytes);
      co_await comm.recv(0, 1, kTagExchangeB);
    } else {
      co_await comm.recv(1, 0, kTagExchangeA);
      co_await comm.send(1, 0, kTagExchangeB, bytes);
    }
  }
}

}  // namespace

// ---- factories ---------------------------------------------------------------

Workload make_ft(double scale) {
  FtSpec spec;
  Workload w;
  w.name = "FT.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "3-D FFT: alltoall transposes, comm:comp ~ 2:1, balanced";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return ft_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_cg(double scale) {
  CgSpec spec;
  Workload w;
  w.name = "CG.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.cycles;
  w.description = "conjugate gradient: short cycles, Wait/Send dominant, rank asymmetry";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return cg_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_ep(double scale) {
  EpSpec spec;
  Workload w;
  w.name = "EP.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "embarrassingly parallel: pure on-chip compute";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return ep_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_is(double scale) {
  IsSpec spec;
  Workload w;
  w.name = "IS.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "integer sort: bursty key redistribution (collision-prone)";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return is_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_lu(double scale) {
  LuSpec spec;
  Workload w;
  w.name = "LU.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "LU: pipelined wavefront sweeps, frequent small messages";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return lu_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_mg(double scale) {
  MgSpec spec;
  Workload w;
  w.name = "MG.C.8";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "multigrid V-cycle: memory-heavy with level halo exchanges";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return mg_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_bt(double scale) {
  SweepSpec spec;  // BT defaults
  Workload w;
  w.name = "BT.C.9";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "block-tridiagonal: directional sweeps with face exchanges";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return sweep_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_sp(double scale) {
  SweepSpec spec;
  spec.iterations = 100;
  spec.onchip_s = 0.081;
  spec.mem_s = 0.18;
  spec.face_kb = 700.0;
  spec.chunks_per_face = 2;  // 350 KB bursts: above the collision threshold
  Workload w;
  w.name = "SP.C.9";
  w.ranks = spec.ranks;
  w.iterations = spec.iterations;
  w.description = "scalar-pentadiagonal: comm-heavier sweeps, mild collision sensitivity";
  w.make_rank = [spec, scale](AppContext& ctx, int rank) {
    return sweep_rank(ctx, spec, scale, rank);
  };
  return w;
}

Workload make_swim(double scale) {
  Workload w;
  w.name = "swim";
  w.ranks = 1;
  w.iterations = 60;
  w.description = "SPEC 2000 swim: single-node memory-bound (Figure 2)";
  const int iters = std::max(1, static_cast<int>(std::lround(60 * scale)));
  w.iterations = iters;
  w.make_rank = [iters](AppContext& ctx, int rank) {
    // swim's array sweeps keep the core fairly active between misses.
    return swim_rank(ctx, iters, 0.19, 0.81, /*mem_act=*/0.55, rank);
  };
  return w;
}

Workload make_micro_cpu_bound(double scale) {
  Workload w;
  w.name = "micro.cpu";
  w.ranks = 1;
  w.iterations = 30;
  w.description = "PowerPack microbenchmark: CPU-bound (register/L1 loop)";
  const int iters = std::max(1, static_cast<int>(std::lround(30 * scale)));
  w.iterations = iters;
  w.make_rank = [iters](AppContext& ctx, int rank) {
    return swim_rank(ctx, iters, 1.0, 0.0, -1, rank);
  };
  return w;
}

Workload make_micro_memory_bound(double scale) {
  Workload w;
  w.name = "micro.mem";
  w.ranks = 1;
  w.iterations = 30;
  w.description = "PowerPack microbenchmark: memory-bound (strided misses)";
  const int iters = std::max(1, static_cast<int>(std::lround(30 * scale)));
  w.iterations = iters;
  w.make_rank = [iters](AppContext& ctx, int rank) {
    return swim_rank(ctx, iters, 0.1, 0.9, -1, rank);
  };
  return w;
}

Workload make_micro_comm_bound(double scale) {
  Workload w;
  w.name = "micro.comm";
  w.ranks = 2;
  w.iterations = 100;
  w.description = "PowerPack microbenchmark: communication-bound (1 MB ping-pong)";
  const int iters = std::max(1, static_cast<int>(std::lround(100 * scale)));
  w.iterations = iters;
  w.make_rank = [iters](AppContext& ctx, int rank) {
    return pingpong_rank(ctx, iters, 1'000'000, rank);
  };
  return w;
}

std::vector<Workload> all_npb(double scale) {
  return {make_bt(scale), make_cg(scale), make_ep(scale), make_ft(scale),
          make_is(scale), make_lu(scale), make_mg(scale), make_sp(scale)};
}

std::optional<Workload> npb_by_name(const std::string& name, double scale) {
  std::string key;
  for (char c : name) {
    if (c == '.') break;
    key += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (key == "FT") return make_ft(scale);
  if (key == "CG") return make_cg(scale);
  if (key == "EP") return make_ep(scale);
  if (key == "IS") return make_is(scale);
  if (key == "LU") return make_lu(scale);
  if (key == "MG") return make_mg(scale);
  if (key == "BT") return make_bt(scale);
  if (key == "SP") return make_sp(scale);
  if (key == "SWIM") return make_swim(scale);
  return std::nullopt;
}

}  // namespace pcd::apps
