// The per-node CPU model: a preemptible work executor with DVS.
//
// A node's single MPI process drives the CPU through three kinds of work:
//   - on-chip work, measured in cycles: duration scales as 1/f,
//   - memory-stall work, measured in time: frequency-insensitive,
//   - protocol (communication) processing, in cycles: the per-message CPU
//     cost of the MPI/TCP stack.
// While the process blocks inside MPI it holds a WaitScope: MPICH 1.2.5's
// progress engine alternates polling and sleeping, so the CPU is neither
// busy nor idle — a configurable duty cycle (waitpoll_busy_fraction) feeds
// both /proc-style utilization (what the CPUSPEED daemon samples) and the
// power model.
//
// DVS transitions stall the CPU for a bounded latency (paper §2 footnote 2:
// 20–30 µs observed, ~10 µs manufacturer floor) at the *higher* of the two
// supply voltages; in-flight work is paused and exactly re-priced at the
// new frequency.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/operating_point.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "telemetry/hub.hpp"

namespace pcd::cpu {

enum class CpuState {
  Idle,
  OnChip,
  MemStall,
  CommProc,
  WaitPoll,
  Transition,
  CkptStall,  // blocked in a coordinated checkpoint write
  Off,        // powered off (crash, battery exhaustion)
};

const char* to_string(CpuState s);

/// Tunable behaviour of the CPU model.
struct CpuConfig {
  /// Bounds on the DVS mode-transition stall; a latency is drawn uniformly
  /// from [min, max] per transition (deterministic per node seed).
  sim::SimDuration transition_min = sim::from_micros(10.0);
  sim::SimDuration transition_max = sim::from_micros(30.0);

  /// Fraction of an MPI blocking wait the progress engine spends runnable
  /// (polling select / copying packets) as seen by /proc/stat.
  double waitpoll_busy_fraction = 0.35;

  /// Power activity factors per state (A in P ~ A*C*V^2*f).
  double act_onchip = 1.00;
  double act_memstall = 0.30;
  double act_commproc = 0.85;
  double act_idle = 0.18;
  double act_transition = 0.90;
  /// Effective power activity while blocked in MPI: the progress engine
  /// spins through select/memcpy, keeping the core largely active even
  /// though /proc shows only `waitpoll_busy_fraction` as runnable.
  double act_waitpoll = 0.90;
  /// Power activity while writing a coordinated checkpoint (disk/NFS I/O
  /// with memory traffic; the core is mostly stalled).
  double act_checkpoint = 0.60;
};

/// Cumulative counters exposed for reports and tests.
struct CpuStats {
  std::int64_t transitions = 0;
  sim::SimDuration transition_stall_ns = 0;
  std::vector<sim::SimDuration> op_residency_ns;  // indexed like the OP table
  /// Work units (compute slices, stalls, protocol chunks) run to completion
  /// — a progress signal the MPI-timeout watchdog can difference.
  std::int64_t work_completed = 0;
  /// set_frequency_mhz() writes silently lost to a stuck DVS driver or a
  /// powered-off node.
  std::int64_t dvs_requests_dropped = 0;
};

class Cpu {
 public:
  Cpu(sim::Engine& engine, OperatingPointTable table, CpuConfig config, sim::Rng rng);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // ---- work API ----
  //
  // The CPU runs one unit of work at a time; additional requests (e.g. the
  // protocol work of an isend issued while compute is in flight) queue FIFO.

  struct [[nodiscard]] WorkAwaitable {
    Cpu* cpu;
    CpuState kind;
    double cycles;             // for OnChip / CommProc
    sim::SimDuration fixed;    // for MemStall
    double act_override = -1;  // per-phase power activity (< 0 = state default)

    bool await_ready() const { return cycles <= 0 && fixed <= 0; }
    void await_suspend(std::coroutine_handle<> h) { cpu->begin_work(*this, h); }
    void await_resume() const {}
  };

  /// Executes `cycles` of on-chip work (duration = cycles / f).
  WorkAwaitable run_onchip_cycles(double cycles) {
    return WorkAwaitable{this, CpuState::OnChip, cycles, 0};
  }
  /// On-chip work sized as `seconds` at the table's highest frequency.
  WorkAwaitable run_onchip_seconds_at_max(double seconds) {
    return run_onchip_cycles(seconds * table_.highest().freq_mhz * 1e6);
  }
  /// Frequency-insensitive memory-stall time.  `act_override` sets the
  /// power activity of the stall (e.g. cache-miss-heavy compute keeps the
  /// core nearly fully active; streaming stalls leave it mostly idle).
  WorkAwaitable run_memstall(sim::SimDuration ns, double act_override = -1) {
    return WorkAwaitable{this, CpuState::MemStall, 0, ns, act_override};
  }
  /// Communication protocol processing (cycles; scales 1/f).
  WorkAwaitable run_commproc_cycles(double cycles) {
    return WorkAwaitable{this, CpuState::CommProc, cycles, 0};
  }

  /// RAII marker for "blocked inside MPI": while alive (and no work or
  /// transition is active) the CPU reports the WaitPoll state.
  class WaitScope {
   public:
    explicit WaitScope(Cpu& cpu) : cpu_(&cpu) { cpu_->enter_wait(); }
    ~WaitScope() { if (cpu_ != nullptr) cpu_->leave_wait(); }
    WaitScope(WaitScope&& o) noexcept : cpu_(std::exchange(o.cpu_, nullptr)) {}
    WaitScope(const WaitScope&) = delete;
    WaitScope& operator=(const WaitScope&) = delete;
    WaitScope& operator=(WaitScope&&) = delete;

   private:
    Cpu* cpu_;
  };
  WaitScope wait_scope() { return WaitScope(*this); }

  // ---- DVS API ----

  /// Requests a transition to the operating point with this frequency.
  /// Returns immediately; the stall is modeled inside the executor.
  /// Requests arriving mid-transition coalesce to the latest target.
  void set_frequency_mhz(int freq_mhz);

  sim::Engine& engine() const { return engine_; }
  int frequency_mhz() const { return table_.get(op_index_).freq_mhz; }
  std::size_t op_index() const { return op_index_; }
  bool transitioning() const { return transitioning_; }
  const OperatingPointTable& table() const { return table_; }
  const CpuConfig& config() const { return config_; }

  // ---- fault / robustness API ----
  //
  // Hooks for the fault-injection layer (src/fault).  All of them default
  // to the healthy state and cost nothing unless used.

  /// Powers the CPU off (node crash, battery exhaustion): in-flight work is
  /// paused, a pending DVS transition is aborted, and the CPU draws 0 W.
  /// Blocked rank coroutines freeze at their next CPU touch.
  void power_off();
  /// Reboots: the CPU comes back at the table's highest frequency (the boot
  /// default) and resumes — re-pricing — any interrupted work.
  void power_on();
  bool offline() const { return offline_; }

  /// Coordinated-checkpoint stall: execution pauses (power stays on, the
  /// core shows busy to /proc) until checkpoint_stall_end().
  void checkpoint_stall_begin();
  void checkpoint_stall_end();
  /// Off or checkpoint-stalled: no work executes.
  bool halted() const { return offline_ || ckpt_stall_; }

  /// Straggler model (thermal throttling, background interference): cycle
  /// work executes at `eff * frequency` (clamped to [0.01, 1]); power and
  /// the /proc busy view are unchanged — the node just computes slower.
  void set_efficiency(double eff);
  double efficiency() const { return efficiency_; }

  /// Stuck DVS: while set, set_frequency_mhz() writes are silently lost
  /// (the paper's user-space daemon writing /proc with no error checking);
  /// the operating point stays pinned.  Dropped writes are counted in
  /// stats().dvs_requests_dropped.
  void set_dvs_stuck(bool stuck) { dvs_stuck_ = stuck; }
  bool dvs_stuck() const { return dvs_stuck_; }

  // ---- observability ----

  CpuState state() const { return state_; }

  /// Operating point to use for power evaluation right now.  During a
  /// transition this is the higher-voltage endpoint.
  const OperatingPoint& power_op() const;

  /// Power activity factor for the current state.
  double activity() const;

  /// DRAM activity factor (drives the memory component of node power).
  double mem_activity() const;

  /// Weighted busy time (ns) accumulated so far — the /proc/stat view the
  /// CPUSPEED daemon differentiates over its polling interval.
  double busy_weighted_ns() const;

  /// Frequency-sensitive cycles retired so far (OnChip + CommProc states,
  /// at eff * f).  Differencing this across a trace scope tells the energy
  /// profiler how much of the scope stretches under DVS — memory stalls and
  /// wait-poll time do not retire cycles and keep their wall-clock duration.
  double retired_sensitive_cycles() const;

  const CpuStats& stats() const { return stats_; }

  /// Registered observer, invoked immediately *before* every state or
  /// operating-point change so it can integrate the elapsed interval at the
  /// old power level (the node power model subscribes here).
  void set_change_listener(sim::InlineFunction<void()> cb) { listener_ = std::move(cb); }

  /// Attaches the telemetry hub: every *completed* transition is reported
  /// with the exact instant the new operating point became active.  Null
  /// detaches (telemetry off).
  void attach_telemetry(telemetry::Hub* hub, int node_id) {
    telemetry_ = hub;
    telemetry_node_ = node_id;
  }

 private:
  struct ActiveWork {
    CpuState kind = CpuState::Idle;
    double remaining_cycles = 0;
    sim::SimDuration remaining_ns = 0;
    double act_override = -1;
    bool timed = false;
    std::coroutine_handle<> waiter;
    sim::SimTime segment_start = 0;
    int segment_freq_mhz = 0;
    double segment_eff = 1.0;
    sim::EventId finish_event{};
    bool segment_running = false;
  };

  void begin_work(const WorkAwaitable& w, std::coroutine_handle<> h);
  void start_segment();
  void pause_segment();
  void finish_work();
  void begin_transition(std::size_t target);
  void end_transition();
  void enter_wait();
  void leave_wait();
  CpuState base_state() const;
  void set_state(CpuState s);
  void touch_accounting();
  double busy_weight(CpuState s) const;
  void notify() { if (listener_) listener_(); }

  sim::Engine& engine_;
  OperatingPointTable table_;
  CpuConfig config_;
  sim::Rng rng_;

  CpuState state_ = CpuState::Idle;
  std::size_t op_index_;
  bool transitioning_ = false;
  std::size_t transition_from_ = 0;
  std::size_t transition_to_ = 0;
  std::optional<sim::EventId> transition_event_;
  std::optional<std::size_t> pending_target_;
  bool offline_ = false;
  bool ckpt_stall_ = false;
  bool dvs_stuck_ = false;
  double efficiency_ = 1.0;
  std::optional<ActiveWork> active_;
  sim::Fifo<ActiveWork> work_queue_;  // FIFO backlog (e.g. isend protocol work)
  int wait_depth_ = 0;

  // accounting
  sim::SimTime last_touch_ = 0;
  double busy_weighted_accum_ns_ = 0;
  double retired_cycles_accum_ = 0;
  CpuStats stats_;
  sim::InlineFunction<void()> listener_;
  telemetry::Hub* telemetry_ = nullptr;
  int telemetry_node_ = -1;
};

}  // namespace pcd::cpu
