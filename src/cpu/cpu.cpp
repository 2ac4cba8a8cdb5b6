#include "cpu/cpu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pcd::cpu {

const char* to_string(CpuState s) {
  switch (s) {
    case CpuState::Idle: return "Idle";
    case CpuState::OnChip: return "OnChip";
    case CpuState::MemStall: return "MemStall";
    case CpuState::CommProc: return "CommProc";
    case CpuState::WaitPoll: return "WaitPoll";
    case CpuState::Transition: return "Transition";
    case CpuState::CkptStall: return "CkptStall";
    case CpuState::Off: return "Off";
  }
  return "?";
}

namespace {

void check_table(const OperatingPointTable& table) {
  if (table.size() == 0 || table.size() > kMaxOperatingPoints) {
    throw std::invalid_argument("operating point table needs 1 to 8 points");
  }
}

// Validates before allocating, so a rejected table leaks nothing.
const CpuPlatform& new_platform(sim::Engine& engine, OperatingPointTable table,
                                CpuConfig config) {
  check_table(table);
  return *new CpuPlatform{engine, std::move(table), config};
}

}  // namespace

Cpu::Cpu(const CpuPlatform& platform, sim::Rng rng)
    : rng_(rng), platform_(&platform), last_touch_(platform.engine.now()) {
  check_table(platform.table);
  // Boot at full speed, like the paper's baseline.
  op_index_ = static_cast<OpIndex>(platform.table.size() - 1);
}

Cpu::Cpu(sim::Engine& engine, OperatingPointTable table, CpuConfig config, sim::Rng rng)
    : Cpu(new_platform(engine, std::move(table), config), rng) {
  owns_platform_ = true;
}

Cpu::~Cpu() {
  if (owns_platform_) delete platform_;
}

void Cpu::begin_work(const WorkAwaitable& w, sim::Continuation then) {
  assert(w.kind != CpuState::Idle);
  ActiveWork a;
  a.kind = w.kind;
  a.timed = (w.kind == CpuState::MemStall);
  a.remaining_cycles = w.cycles;
  a.remaining_ns = w.fixed;
  a.act_override = w.act_override;
  a.then = then;
  if (has_active()) {
    work_queue_.push_back(a);  // runs when the current unit finishes
    return;
  }
  active_ = a;
  if (!transitioning_ && !halted()) start_segment();
  // else: the work starts when the transition stall / outage ends.
}

void Cpu::start_segment() {
  assert(has_active() && !active_.segment_running);
  set_state(active_.kind);
  active_.segment_start = engine().now();
  sim::SimDuration dur;
  if (active_.timed) {
    dur = active_.remaining_ns;  // memory stalls are frequency/eff-insensitive
  } else {
    // cycles at f MHz: 1 cycle = 1000/f ns; a straggler retires cycles at
    // eff * f.  (eff == 1 reproduces the healthy arithmetic bit-exactly.)
    dur = static_cast<sim::SimDuration>(
        std::llround(active_.remaining_cycles * 1000.0 /
                     (frequency_mhz() * efficiency_)));
  }
  if (dur < 0) dur = 0;
  active_.segment_running = true;
  active_.finish_event = engine().schedule_in(dur, [this] { finish_work(); }, "cpu.finish_work");
}

void Cpu::pause_segment() {
  if (!has_active() || !active_.segment_running) return;
  engine().cancel(active_.finish_event);
  const sim::SimDuration elapsed = engine().now() - active_.segment_start;
  if (active_.timed) {
    active_.remaining_ns = std::max<sim::SimDuration>(0, active_.remaining_ns - elapsed);
  } else {
    const double consumed =
        static_cast<double>(elapsed) * frequency_mhz() * efficiency_ * 1e-3;
    active_.remaining_cycles = std::max(0.0, active_.remaining_cycles - consumed);
  }
  active_.segment_running = false;
}

void Cpu::finish_work() {
  assert(has_active());
  const sim::Continuation then = active_.then;
  // Let observers integrate the finished interval while the work (and its
  // activity override) is still visible; set_state() alone would not fire
  // when the next unit has the same kind.
  notify();
  touch_accounting();
  ++stats_.work_completed;
  active_ = ActiveWork{};
  if (!work_queue_.empty()) {
    active_ = work_queue_.pop_front();
    if (!transitioning_ && !halted()) start_segment();
  } else {
    set_state(base_state());
  }
  then();
}

void Cpu::set_frequency_mhz(int freq_mhz) {
  const std::size_t idx = table().index_of(freq_mhz);
  if (dvs_stuck_) {
    // The /proc write is silently lost (wedged driver); the daemon gets no
    // error and the operating point stays pinned.
    if (idx != (transitioning_ ? transition_to_ : op_index_)) {
      ++stats_.dvs_requests_dropped;
    }
    return;
  }
  if (offline_) {
    ++stats_.dvs_requests_dropped;  // nobody home to take the write
    return;
  }
  if (transitioning_ || ckpt_stall_) {
    pending_target_ = static_cast<OpIndex>(idx);  // coalesce to the latest request
    return;
  }
  if (idx == op_index_) return;  // writing the current speed costs nothing
  begin_transition(idx);
}

void Cpu::begin_transition(std::size_t target) {
  transitioning_ = true;
  transition_from_ = op_index_;
  transition_to_ = static_cast<OpIndex>(target);
  pause_segment();
  set_state(CpuState::Transition);
  const auto span = static_cast<std::uint64_t>(config().transition_max - config().transition_min);
  const sim::SimDuration latency =
      config().transition_min +
      (span == 0 ? 0 : static_cast<sim::SimDuration>(rng_.uniform_int(span + 1)));
  stats_.transition_stall_ns += latency;
  transition_event_ = engine().schedule_in(latency, [this] { end_transition(); }, "cpu.end_transition");
}

void Cpu::end_transition() {
  notify();            // observers integrate the stall at the old (higher) voltage
  touch_accounting();  // charge the stall to the old operating point
  transition_event_ = {};
  op_index_ = transition_to_;
  ++stats_.transitions;
  transitioning_ = false;
  if (telemetry_ != nullptr) {
    telemetry_->record_transition({engine().now(), telemetry_node_,
                                   table().at(transition_from_).freq_mhz,
                                   table().at(transition_to_).freq_mhz});
  }
  if (pending_target_ != kNoTarget) {
    const std::size_t next = pending_target_;
    pending_target_ = kNoTarget;
    if (next != op_index_) {
      begin_transition(next);
      return;
    }
  }
  if (ckpt_stall_) {
    // The mode change completed mid-checkpoint; execution stays stalled
    // until checkpoint_stall_end().
    set_state(CpuState::CkptStall);
    return;
  }
  if (has_active()) {
    start_segment();
  } else {
    set_state(base_state());
  }
}

void Cpu::enter_wait() {
  ++wait_depth_;
  if (!has_active() && !transitioning_ && !halted()) set_state(CpuState::WaitPoll);
}

void Cpu::leave_wait() {
  assert(wait_depth_ > 0);
  --wait_depth_;
  if (!has_active() && !transitioning_ && !halted()) set_state(base_state());
}

void Cpu::power_off() {
  if (offline_) return;
  pause_segment();
  if (transitioning_) {
    // The mode transition dies with the power: cancel its completion and
    // stay at the pre-transition operating point for the reboot.
    engine().cancel(transition_event_);
    transition_event_ = {};
    transitioning_ = false;
  }
  pending_target_ = kNoTarget;
  ckpt_stall_ = false;
  // Order matters for energy: set_state() notifies observers, which must
  // integrate the elapsed interval at the pre-crash power level — the node
  // reads 0 W only once `offline_` is set afterwards.
  set_state(CpuState::Off);
  offline_ = true;
}

void Cpu::power_on() {
  if (!offline_) return;
  // Integrate the outage interval while the node still reads offline (0 W),
  // then boot at full speed like the initial power-up.
  notify();
  touch_accounting();
  offline_ = false;
  op_index_ = static_cast<OpIndex>(table().size() - 1);
  if (has_active()) {
    start_segment();  // resume (re-price) the work interrupted by the crash
  } else {
    set_state(base_state());
  }
}

void Cpu::checkpoint_stall_begin() {
  if (halted()) return;
  pause_segment();
  ckpt_stall_ = true;
  // Mid-transition the stall state takes over when the transition ends.
  if (!transitioning_) set_state(CpuState::CkptStall);
}

void Cpu::checkpoint_stall_end() {
  if (!ckpt_stall_ || offline_) return;
  ckpt_stall_ = false;
  if (transitioning_) return;  // end_transition() resumes execution
  if (pending_target_ != kNoTarget) {
    const std::size_t next = pending_target_;
    pending_target_ = kNoTarget;
    if (next != op_index_) {
      begin_transition(next);
      return;
    }
  }
  if (has_active()) {
    start_segment();
  } else {
    set_state(base_state());
  }
}

void Cpu::set_efficiency(double eff) {
  eff = std::clamp(eff, 0.01, 1.0);
  if (eff == efficiency_) return;
  pause_segment();
  // Close the accounting interval at the old retirement rate; the busy and
  // residency views are rate-independent, but retired cycles are not.
  touch_accounting();
  efficiency_ = eff;
  if (has_active() && !transitioning_ && !halted()) start_segment();
}

CpuState Cpu::base_state() const {
  return wait_depth_ > 0 ? CpuState::WaitPoll : CpuState::Idle;
}

void Cpu::set_state(CpuState s) {
  if (s == state_) return;
  notify();  // observers integrate the elapsed interval at the old power level
  touch_accounting();
  state_ = s;
}

void Cpu::touch_accounting() {
  const sim::SimTime now = engine().now();
  const sim::SimDuration dt = now - last_touch_;
  if (dt > 0) {
    busy_weighted_accum_ns_ += static_cast<double>(dt) * busy_weight(state_);
    stats_.op_residency_ns[op_index_] += dt;
    if (state_ == CpuState::OnChip || state_ == CpuState::CommProc) {
      // ns * MHz * 1e-3 = cycles; stragglers retire at eff * f.
      retired_cycles_accum_ += static_cast<double>(dt) *
                               table().get(op_index_).freq_mhz * efficiency_ * 1e-3;
    }
  }
  last_touch_ = now;
}

double Cpu::busy_weighted_ns() const {
  const sim::SimDuration dt = engine().now() - last_touch_;
  return busy_weighted_accum_ns_ + static_cast<double>(dt) * busy_weight(state_);
}

double Cpu::retired_sensitive_cycles() const {
  double cycles = retired_cycles_accum_;
  if (state_ == CpuState::OnChip || state_ == CpuState::CommProc) {
    const sim::SimDuration dt = engine().now() - last_touch_;
    cycles += static_cast<double>(dt) * table().get(op_index_).freq_mhz * efficiency_ * 1e-3;
  }
  return cycles;
}

}  // namespace pcd::cpu
