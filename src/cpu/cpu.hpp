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

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "cpu/operating_point.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "telemetry/hub.hpp"

namespace pcd::cpu {

enum class CpuState : std::uint8_t {
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

/// The most operating points a Cpu runs: its residency counters are a fixed
/// array in the Cpu record, not a heap vector sized by the table.
inline constexpr std::size_t kMaxOperatingPoints = 8;

/// Cumulative counters exposed for reports and tests.
struct CpuStats {
  std::int64_t transitions = 0;
  sim::SimDuration transition_stall_ns = 0;
  /// Work units (compute slices, stalls, protocol chunks) run to completion
  /// — a progress signal the MPI-timeout watchdog can difference.
  std::int64_t work_completed = 0;
  /// set_frequency_mhz() writes silently lost to a stuck DVS driver or a
  /// powered-off node.
  std::int64_t dvs_requests_dropped = 0;
  /// Time spent at each operating point, indexed like the OP table (entries
  /// past table().size() stay 0).  Closed at every state change.
  std::array<sim::SimDuration, kMaxOperatingPoints> op_residency_ns{};
};

/// What every Cpu of a cluster shares: the engine it runs on, the
/// operating-point table and the tunables.  A cluster keeps one and each of
/// its Cpus holds a pointer to it, not a copy.
struct CpuPlatform {
  sim::Engine& engine;
  OperatingPointTable table;
  CpuConfig config;
};

class Cpu {
 public:
  /// A Cpu of a cluster: refers to `platform`, which must outlive it.
  Cpu(const CpuPlatform& platform, sim::Rng rng);
  /// A standalone Cpu: keeps a private platform (one heap block).
  Cpu(sim::Engine& engine, OperatingPointTable table, CpuConfig config, sim::Rng rng);
  ~Cpu();

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
    void await_suspend(std::coroutine_handle<> h) {
      cpu->begin_work(*this, sim::Continuation::resume(h));
    }
    void await_resume() const {}
  };

  /// Callback form of `co_await w`: `then` runs when the work completes —
  /// inline, before run() returns, when the work is empty (as await_ready
  /// skips the suspension).
  void run(const WorkAwaitable& w, sim::Continuation then) {
    if (w.await_ready()) {
      then();
    } else {
      begin_work(w, then);
    }
  }

  /// Executes `cycles` of on-chip work (duration = cycles / f).
  WorkAwaitable run_onchip_cycles(double cycles) {
    return WorkAwaitable{this, CpuState::OnChip, cycles, 0};
  }
  /// On-chip work sized as `seconds` at the table's highest frequency.
  WorkAwaitable run_onchip_seconds_at_max(double seconds) {
    return run_onchip_cycles(seconds * table().highest().freq_mhz * 1e6);
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

  sim::Engine& engine() const { return platform_->engine; }
  int frequency_mhz() const { return table().get(op_index_).freq_mhz; }
  std::size_t op_index() const { return op_index_; }
  bool transitioning() const { return transitioning_; }
  const OperatingPointTable& table() const { return platform_->table; }
  const CpuConfig& config() const { return platform_->config; }

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

  /// Index of the operating point to use for power evaluation right now.
  /// During a transition this is the higher-voltage endpoint (the source
  /// on a tie).
  std::size_t power_index() const {
    if (transitioning_) {
      const OperatingPointTable& t = table();
      return t.get(transition_from_).voltage >= t.get(transition_to_).voltage
                 ? transition_from_
                 : transition_to_;
    }
    return op_index_;
  }
  const OperatingPoint& power_op() const { return table().get(power_index()); }

  /// Power activity factor for the current state.
  double activity() const {
    if (state_ == active_.kind && active_.act_override >= 0) return active_.act_override;
    const CpuConfig& c = config();
    switch (state_) {
      case CpuState::Idle: return c.act_idle;
      case CpuState::OnChip: return c.act_onchip;
      case CpuState::MemStall: return c.act_memstall;
      case CpuState::CommProc: return c.act_commproc;
      case CpuState::Transition: return c.act_transition;
      case CpuState::WaitPoll: return c.act_waitpoll;
      case CpuState::CkptStall: return c.act_checkpoint;
      case CpuState::Off: return 0.0;
    }
    return c.act_idle;
  }

  /// DRAM activity factor (drives the memory component of node power).
  double mem_activity() const {
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
  /// old power level (the node power model subscribes here).  An empty
  /// Continuation detaches it.
  void set_change_listener(sim::Continuation cb) { listener_ = cb; }

  /// Attaches the telemetry hub: every *completed* transition is reported
  /// with the exact instant the new operating point became active.  Null
  /// detaches (telemetry off).
  void attach_telemetry(telemetry::Hub* hub, int node_id) {
    telemetry_ = hub;
    telemetry_node_ = node_id;
  }

 private:
  // Operating-point indices are 8-bit; kNoTarget marks "no pending target".
  using OpIndex = std::uint8_t;
  static constexpr OpIndex kNoTarget = 0xff;

  // The unit of work in flight.  kind == Idle means none: the work kinds
  // are OnChip, MemStall and CommProc.  activity() reads kind and
  // act_override on every power refresh, so they lead.  A running segment
  // retires cycles at frequency_mhz() * efficiency_: every change of either
  // pauses the segment first, so neither is copied in here.
  struct ActiveWork {
    CpuState kind = CpuState::Idle;
    bool timed = false;
    bool segment_running = false;
    double act_override = -1;
    double remaining_cycles = 0;
    sim::SimDuration remaining_ns = 0;
    sim::Continuation then;  // runs when the work completes
    sim::SimTime segment_start = 0;
    sim::EventId finish_event{};
  };

  bool has_active() const { return active_.kind != CpuState::Idle; }
  void begin_work(const WorkAwaitable& w, sim::Continuation then);
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
  double busy_weight(CpuState s) const {
    switch (s) {
      case CpuState::Idle: return 0.0;
      case CpuState::Off: return 0.0;
      case CpuState::WaitPoll: return config().waitpoll_busy_fraction;
      default: return 1.0;  // CkptStall: the checkpoint writer looks busy to /proc
    }
  }
  void notify() { if (listener_.fn != nullptr) listener_(); }

  // ---- cold: DVS requests, telemetry, the work backlog ----
  sim::Fifo<ActiveWork> work_queue_;  // FIFO backlog (e.g. isend protocol work)
  sim::Rng rng_;
  sim::EventId transition_event_{};   // invalid unless a transition is pending
  telemetry::Hub* telemetry_ = nullptr;
  int telemetry_node_ = -1;
  int wait_depth_ = 0;
  bool dvs_stuck_ = false;
  bool owns_platform_ = false;  // standalone ctor: platform_ is ours to delete

  // ---- warm: the counters, the residency written per accounting
  // interval, and the work in flight (activity() reads its head) ----
  CpuStats stats_;
  ActiveWork active_;

  // ---- hot line: every field a state change reads or writes ----
  // The listener, the platform pointer, the accounting accumulators, the
  // efficiency, the operating-point indices and the state flags fill the
  // Cpu's last 64 bytes.  In a cluster the Cpu leads its 64-byte-aligned
  // machine::Node record and is a whole number of cache lines long, so
  // this is exactly one line, and the node's power lane (the first member
  // of its power model) starts on the next one.
  sim::Continuation listener_;
  const CpuPlatform* platform_;
  sim::SimTime last_touch_ = 0;
  double busy_weighted_accum_ns_ = 0;
  double retired_cycles_accum_ = 0;
  double efficiency_ = 1.0;
  OpIndex op_index_ = 0;
  OpIndex transition_from_ = 0;
  OpIndex transition_to_ = 0;
  OpIndex pending_target_ = kNoTarget;  // latest request made mid-transition
  CpuState state_ = CpuState::Idle;
  bool transitioning_ = false;
  bool offline_ = false;
  bool ckpt_stall_ = false;
};

}  // namespace pcd::cpu
