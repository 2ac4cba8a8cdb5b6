#include "cpu/cpu.hpp"

#include <algorithm>
#include <cmath>
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

Cpu::Cpu(sim::Engine& engine, OperatingPointTable table, CpuConfig config, sim::Rng rng)
    : engine_(engine),
      table_(std::move(table)),
      config_(config),
      rng_(rng),
      op_index_(table_.size() - 1),  // boot at full speed, like the paper's baseline
      last_touch_(engine.now()) {
  stats_.op_residency_ns.assign(table_.size(), 0);
}

void Cpu::begin_work(const WorkAwaitable& w, std::coroutine_handle<> h) {
  ActiveWork a;
  a.kind = w.kind;
  a.timed = (w.kind == CpuState::MemStall);
  a.remaining_cycles = w.cycles;
  a.remaining_ns = w.fixed;
  a.act_override = w.act_override;
  a.waiter = h;
  if (active_.has_value()) {
    work_queue_.push_back(a);  // runs when the current unit finishes
    return;
  }
  active_ = a;
  if (!transitioning_ && !halted()) start_segment();
  // else: the work starts when the transition stall / outage ends.
}

void Cpu::start_segment() {
  assert(active_.has_value() && !active_->segment_running);
  set_state(active_->kind);
  active_->segment_start = engine_.now();
  active_->segment_freq_mhz = frequency_mhz();
  active_->segment_eff = efficiency_;
  sim::SimDuration dur;
  if (active_->timed) {
    dur = active_->remaining_ns;  // memory stalls are frequency/eff-insensitive
  } else {
    // cycles at f MHz: 1 cycle = 1000/f ns; a straggler retires cycles at
    // eff * f.  (eff == 1 reproduces the healthy arithmetic bit-exactly.)
    dur = static_cast<sim::SimDuration>(
        std::llround(active_->remaining_cycles * 1000.0 /
                     (active_->segment_freq_mhz * active_->segment_eff)));
  }
  if (dur < 0) dur = 0;
  active_->segment_running = true;
  active_->finish_event = engine_.schedule_in(dur, [this] { finish_work(); }, "cpu.finish_work");
}

void Cpu::pause_segment() {
  if (!active_.has_value() || !active_->segment_running) return;
  engine_.cancel(active_->finish_event);
  const sim::SimDuration elapsed = engine_.now() - active_->segment_start;
  if (active_->timed) {
    active_->remaining_ns = std::max<sim::SimDuration>(0, active_->remaining_ns - elapsed);
  } else {
    const double consumed = static_cast<double>(elapsed) * active_->segment_freq_mhz *
                            active_->segment_eff * 1e-3;
    active_->remaining_cycles = std::max(0.0, active_->remaining_cycles - consumed);
  }
  active_->segment_running = false;
}

void Cpu::finish_work() {
  assert(active_.has_value());
  auto waiter = active_->waiter;
  // Let observers integrate the finished interval while the work (and its
  // activity override) is still visible; set_state() alone would not fire
  // when the next unit has the same kind.
  notify();
  touch_accounting();
  ++stats_.work_completed;
  active_.reset();
  if (!work_queue_.empty()) {
    active_ = work_queue_.pop_front();
    if (!transitioning_ && !halted()) start_segment();
  } else {
    set_state(base_state());
  }
  waiter.resume();
}

void Cpu::set_frequency_mhz(int freq_mhz) {
  const std::size_t idx = table_.index_of(freq_mhz);
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
    pending_target_ = idx;  // coalesce to the latest request
    return;
  }
  if (idx == op_index_) return;  // writing the current speed costs nothing
  begin_transition(idx);
}

void Cpu::begin_transition(std::size_t target) {
  transitioning_ = true;
  transition_from_ = op_index_;
  transition_to_ = target;
  pause_segment();
  set_state(CpuState::Transition);
  const auto span = static_cast<std::uint64_t>(config_.transition_max - config_.transition_min);
  const sim::SimDuration latency =
      config_.transition_min +
      (span == 0 ? 0 : static_cast<sim::SimDuration>(rng_.uniform_int(span + 1)));
  stats_.transition_stall_ns += latency;
  transition_event_ = engine_.schedule_in(latency, [this] { end_transition(); }, "cpu.end_transition");
}

void Cpu::end_transition() {
  notify();            // observers integrate the stall at the old (higher) voltage
  touch_accounting();  // charge the stall to the old operating point
  transition_event_.reset();
  op_index_ = transition_to_;
  ++stats_.transitions;
  transitioning_ = false;
  if (telemetry_ != nullptr) {
    telemetry_->record_transition({engine_.now(), telemetry_node_,
                                   table_.at(transition_from_).freq_mhz,
                                   table_.at(transition_to_).freq_mhz});
  }
  if (pending_target_.has_value()) {
    const std::size_t next = *pending_target_;
    pending_target_.reset();
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
  if (active_.has_value()) {
    start_segment();
  } else {
    set_state(base_state());
  }
}

void Cpu::enter_wait() {
  ++wait_depth_;
  if (!active_.has_value() && !transitioning_ && !halted()) set_state(CpuState::WaitPoll);
}

void Cpu::leave_wait() {
  assert(wait_depth_ > 0);
  --wait_depth_;
  if (!active_.has_value() && !transitioning_ && !halted()) set_state(base_state());
}

void Cpu::power_off() {
  if (offline_) return;
  pause_segment();
  if (transitioning_) {
    // The mode transition dies with the power: cancel its completion and
    // stay at the pre-transition operating point for the reboot.
    if (transition_event_.has_value()) engine_.cancel(*transition_event_);
    transition_event_.reset();
    transitioning_ = false;
  }
  pending_target_.reset();
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
  op_index_ = table_.size() - 1;
  if (active_.has_value()) {
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
  if (pending_target_.has_value()) {
    const std::size_t next = *pending_target_;
    pending_target_.reset();
    if (next != op_index_) {
      begin_transition(next);
      return;
    }
  }
  if (active_.has_value()) {
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
  if (active_.has_value() && !transitioning_ && !halted()) start_segment();
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
  const sim::SimTime now = engine_.now();
  const sim::SimDuration dt = now - last_touch_;
  if (dt > 0) {
    busy_weighted_accum_ns_ += static_cast<double>(dt) * busy_weight(state_);
    stats_.op_residency_ns[op_index_] += dt;
    if (state_ == CpuState::OnChip || state_ == CpuState::CommProc) {
      // ns * MHz * 1e-3 = cycles; stragglers retire at eff * f.
      retired_cycles_accum_ += static_cast<double>(dt) *
                               table_.get(op_index_).freq_mhz * efficiency_ * 1e-3;
    }
  }
  last_touch_ = now;
}

double Cpu::busy_weight(CpuState s) const {
  switch (s) {
    case CpuState::Idle: return 0.0;
    case CpuState::Off: return 0.0;
    case CpuState::WaitPoll: return config_.waitpoll_busy_fraction;
    default: return 1.0;  // CkptStall: the checkpoint writer looks busy to /proc
  }
}

const OperatingPoint& Cpu::power_op() const {
  if (transitioning_) {
    const OperatingPoint& a = table_.get(transition_from_);
    const OperatingPoint& b = table_.get(transition_to_);
    return a.voltage >= b.voltage ? a : b;
  }
  return table_.get(op_index_);
}

double Cpu::activity() const {
  if (active_.has_value() && state_ == active_->kind && active_->act_override >= 0) {
    return active_->act_override;
  }
  switch (state_) {
    case CpuState::Idle: return config_.act_idle;
    case CpuState::OnChip: return config_.act_onchip;
    case CpuState::MemStall: return config_.act_memstall;
    case CpuState::CommProc: return config_.act_commproc;
    case CpuState::Transition: return config_.act_transition;
    case CpuState::WaitPoll: return config_.act_waitpoll;
    case CpuState::CkptStall: return config_.act_checkpoint;
    case CpuState::Off: return 0.0;
  }
  return config_.act_idle;
}

double Cpu::mem_activity() const {
  switch (state_) {
    case CpuState::MemStall: return 1.0;
    case CpuState::OnChip: return 0.30;
    case CpuState::CommProc: return 0.20;
    case CpuState::WaitPoll: return 0.08;
    case CpuState::CkptStall: return 0.50;  // checkpoint image streams through DRAM
    case CpuState::Off: return 0.0;
    default: return 0.05;
  }
}

double Cpu::busy_weighted_ns() const {
  const sim::SimDuration dt = engine_.now() - last_touch_;
  return busy_weighted_accum_ns_ + static_cast<double>(dt) * busy_weight(state_);
}

double Cpu::retired_sensitive_cycles() const {
  double cycles = retired_cycles_accum_;
  if (state_ == CpuState::OnChip || state_ == CpuState::CommProc) {
    const sim::SimDuration dt = engine_.now() - last_touch_;
    cycles += static_cast<double>(dt) * table_.get(op_index_).freq_mhz * efficiency_ * 1e-3;
  }
  return cycles;
}

}  // namespace pcd::cpu
