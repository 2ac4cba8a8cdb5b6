#include "apps/workload.hpp"

#include <algorithm>
#include <cmath>

namespace pcd::apps {

bool ComputePhase::await_ready() {
  cpu_ = &ctx_->comm->node(rank_).cpu();
  const double total = on_per_ + mem_per_;
  if (total <= 0) return true;
  slices_ = std::max(1, static_cast<int>(std::lround(total / ctx_->slice_s)));
  on_per_ /= slices_;
  mem_per_ /= slices_;
  return false;
}

// Starts the next slice half that has work; false once every half has run.
// A half whose work is empty (a stall under half a nanosecond) opens and
// closes its trace scope at once and goes on.
bool ComputePhase::run_slices() {
  while (next_ < 2 * slices_) {
    const bool stall = (next_++ & 1) != 0;
    const double per = stall ? mem_per_ : on_per_;
    if (per <= 0) continue;
    if (ctx_->tracer != nullptr) {
      scope_.open(*ctx_->tracer, rank_, stall ? trace::Cat::MemStall : trace::Cat::Compute);
    }
    const auto work = stall ? cpu_->run_memstall(sim::from_seconds(per), mem_act_)
                            : cpu_->run_onchip_seconds_at_max(per);
    if (!work.await_ready()) {
      cpu_->run(work, {&slice_done, this});
      return true;
    }
    scope_.reset();
  }
  return false;
}

void ComputePhase::slice_done(void* self) {
  auto& phase = *static_cast<ComputePhase*>(self);
  phase.scope_.reset();
  if (!phase.run_slices()) phase.caller_.resume();  // may destroy the phase
}

}  // namespace pcd::apps
