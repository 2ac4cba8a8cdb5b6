// Building a custom workload against the public API: a two-phase "weather
// mini-app" (dense compute + halo exchange + global reduce), then finding
// its best DVS schedule.
//
// This is the path a downstream user takes to evaluate DVS scheduling for
// their own application before touching a real power-aware cluster.
#include <cstdio>

#include "apps/workload.hpp"
#include "campaign/sweeps.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"

using namespace pcd;

namespace {

// One rank of the mini-app.  Phases per step:
//   - dense stencil update: mostly on-chip with some memory traffic,
//   - halo exchange with both ring neighbours (nonblocking),
//   - global residual reduction.
sim::Process weather_rank(apps::AppContext& ctx, int rank, int steps) {
  auto& comm = *ctx.comm;
  const int p = comm.size();
  const int left = (rank + p - 1) % p;
  const int right = (rank + 1) % p;
  ctx.call(ctx.hooks ? ctx.hooks->at_start : nullptr, rank);
  for (int s = 0; s < steps; ++s) {
    if (ctx.tracer) ctx.tracer->mark_iteration(rank);
    co_await apps::compute_phase(ctx, rank, /*onchip_s=*/0.12, /*mem_s=*/0.08);

    ctx.call(ctx.hooks ? ctx.hooks->before_marked_comm : nullptr, rank);
    auto r1 = comm.irecv(rank, left, 1);
    auto r2 = comm.irecv(rank, right, 2);
    auto s1 = comm.isend(rank, right, 1, 600'000);
    auto s2 = comm.isend(rank, left, 2, 600'000);
    const mpi::Comm::Request reqs[] = {std::move(s1), std::move(s2), std::move(r1),
                                       std::move(r2)};
    co_await comm.waitall(rank, reqs);
    co_await comm.allreduce(rank, 64);
    ctx.call(ctx.hooks ? ctx.hooks->after_marked_comm : nullptr, rank);
  }
}

apps::Workload make_weather(int ranks, int steps) {
  apps::Workload w;
  w.name = "weather." + std::to_string(ranks);
  w.ranks = ranks;
  w.iterations = steps;
  w.description = "stencil mini-app: compute + halo exchange + reduce";
  w.make_rank = [steps](apps::AppContext& ctx, int rank) {
    return weather_rank(ctx, rank, steps);
  };
  return w;
}

}  // namespace

int main() {
  auto app = make_weather(/*ranks=*/8, /*steps=*/120);
  std::printf("custom workload: %s\n\n", app.description.c_str());

  // 1. Black-box frequency sweep -> crescendo.
  auto sweep = campaign::sweep_static(app, core::RunConfig{});
  const auto crescendo = sweep.normalized();
  std::printf("crescendo (freq: delay / energy):\n");
  for (const auto& [f, ed] : crescendo) {
    std::printf("  %4d MHz: %.3f / %.3f\n", f, ed.delay, ed.energy);
  }

  // 2. Pick an operating point under a 5% performance constraint.
  const auto choice = core::select_delay_constrained(crescendo, 0.05);
  if (choice) {
    std::printf("\nperformance-constrained choice: %d MHz "
                "(%.1f%% energy saving at %.1f%% delay)\n",
                choice->freq_mhz, 100 * (1 - choice->at.energy),
                100 * (choice->at.delay - 1));
  }

  // 3. Try internal scheduling around the marked communication phase.
  core::RunConfig internal_cfg;
  internal_cfg.hooks = core::internal_phase_hooks(1400, 600);
  const auto internal = core::run_workload(app, internal_cfg);
  const auto& base = sweep.points.back().result;
  std::printf("internal 1400/600: delay %.3f energy %.3f (normalized)\n",
              internal.delay_s / base.delay_s, internal.energy_j / base.energy_j);
  return 0;
}
