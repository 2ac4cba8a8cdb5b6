// MPE-style event tracing (paper §4.2/§5.3: profiles generated with an
// instrumented MPICH, visualized with Jumpshot).
//
// Ranks log begin/end scopes per category; the profile analyzer derives
// the observations the paper draws from Figures 9 and 12 — per-rank
// communication-to-computation ratios, dominant event types, cycle times,
// and balance across nodes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pcd::trace {

enum class Cat : std::uint8_t {
  Compute,     // on-chip compute phase
  MemStall,    // memory-bound phase
  Send,        // point-to-point send (incl. protocol processing)
  Recv,        // point-to-point receive
  Wait,        // blocked in MPI_Wait / request completion
  Collective,  // alltoall / allreduce / barrier / ...
};

const char* to_string(Cat c);
bool is_comm(Cat c);

struct Record {
  Cat cat;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  int peer = -1;          // other rank for p2p, -1 otherwise
  std::int64_t bytes = 0;
  const char* label = ""; // e.g. "mpi_alltoall"
  // Energy attribution (filled only when a Probe is attached): node energy,
  // its CPU component, and the frequency-sensitive cycles retired inside
  // this scope.
  double energy_j = 0;
  double cpu_energy_j = 0;
  double cycles = 0;
};

/// One matched point-to-point message: the causal edge the cross-rank
/// critical-path analysis walks.  Collectives decompose into their
/// constituent p2p messages, so collective causality is captured too.
struct MessageEvent {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::int64_t bytes = 0;
  sim::SimTime t_send = 0;       // sender entered the send protocol
  sim::SimTime t_delivered = 0;  // last byte arrived at the receiver
  sim::SimTime t_recv_done = 0;  // receiver finished protocol processing
  bool complete() const { return t_recv_done > 0; }
};

class Tracer {
 public:
  Tracer(sim::Engine& engine, int ranks)
      : engine_(engine), records_(ranks), iter_marks_(ranks), comm_depth_(ranks, 0) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int ranks() const { return static_cast<int>(records_.size()); }

  /// Point-in-time energy reading for one rank's node.  The profiler
  /// differences a sample pair across each scope to attribute joules and
  /// frequency-sensitive cycles; sampling must be a pure read of the power
  /// model (no side effects on simulation state).
  struct EnergySample {
    double energy_j = 0;  // total node energy so far
    double cpu_j = 0;     // CPU component of that energy
    double cycles = 0;    // retired frequency-sensitive cycles
  };
  class Probe {
   public:
    virtual ~Probe() = default;
    virtual EnergySample sample(int rank) = 0;
  };
  /// Attaches (or detaches, with nullptr) the energy probe.  Without a
  /// probe, scopes record zero energy and cost nothing extra.
  void set_probe(Probe* probe) { probe_ = probe; }
  Probe* probe() const { return probe_; }

  /// RAII scope; records on destruction.  Nested *communication* scopes are
  /// suppressed (only the outermost Send/Recv/Wait/Collective records), so
  /// p2p messages inside a collective don't double-count comm time.
  class Scope {
   public:
    Scope(Tracer& tracer, int rank, Cat cat, const char* label, int peer,
          std::int64_t bytes)
        : tracer_(&tracer), rank_(rank) {
      if (is_comm(cat)) {
        counted_comm_ = true;
        if (tracer_->comm_depth_[rank]++ > 0) return;  // nested comm: suppress
      }
      rec_.cat = cat;
      rec_.begin = tracer_->engine_.now();
      rec_.peer = peer;
      rec_.bytes = bytes;
      rec_.label = label;
      active_ = true;
      if (tracer_->probe_ != nullptr) begin_sample_ = tracer_->probe_->sample(rank);
    }
    ~Scope() { close(); }
    // The moved-from scope must drop its flags as well as its tracer
    // pointer: close() currently short-circuits on the null tracer, but a
    // stale counted_comm_/active_ would double-decrement comm_depth_ the
    // moment close() grew another early-out path.
    Scope(Scope&& o) noexcept
        : tracer_(std::exchange(o.tracer_, nullptr)), rank_(o.rank_), rec_(o.rec_),
          begin_sample_(o.begin_sample_),
          active_(std::exchange(o.active_, false)),
          counted_comm_(std::exchange(o.counted_comm_, false)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Patches the byte count after the fact (a recv learns its size only
    /// once the matching send arrives).  No-op on suppressed/moved scopes.
    void set_bytes(std::int64_t bytes) {
      if (active_) rec_.bytes = bytes;
    }

   private:
    void close() {
      if (tracer_ == nullptr) return;
      if (counted_comm_) --tracer_->comm_depth_[rank_];
      if (active_) {
        rec_.end = tracer_->engine_.now();
        if (tracer_->probe_ != nullptr) {
          const EnergySample s = tracer_->probe_->sample(rank_);
          rec_.energy_j = s.energy_j - begin_sample_.energy_j;
          rec_.cpu_energy_j = s.cpu_j - begin_sample_.cpu_j;
          rec_.cycles = s.cycles - begin_sample_.cycles;
        }
        tracer_->records_[rank_].push_back(rec_);
      }
      tracer_ = nullptr;
    }

    Tracer* tracer_;
    int rank_;
    Record rec_{};
    EnergySample begin_sample_{};
    bool active_ = false;
    bool counted_comm_ = false;

    friend class Tracer;
  };

  Scope scope(int rank, Cat cat, const char* label = "", int peer = -1,
              std::int64_t bytes = 0) {
    return Scope(*this, rank, cat, label, peer, bytes);
  }

  /// Marks an outer-iteration boundary on a rank.
  void mark_iteration(int rank) {
    iter_marks_[rank].push_back(engine_.now());
  }

  // ---- message log (send→recv causal edges) ----
  //
  // The MPI layer reports every p2p message as it moves through the
  // protocol; the log is pure recording and never feeds back into the
  // simulation.  Updates to sequence id -1 (a message no tracer logged)
  // no-op.

  std::int64_t log_send(int src, int dst, int tag, std::int64_t bytes) {
    messages_.push_back({src, dst, tag, bytes, engine_.now(), 0, 0});
    return static_cast<std::int64_t>(messages_.size()) - 1;
  }
  /// Like log_send but with an explicit send timestamp: a cross-shard
  /// message is logged by the *receiving* shard's tracer when the envelope
  /// arrives, carrying the sender-side protocol-entry time captured on the
  /// sending shard.
  std::int64_t log_send_at(int src, int dst, int tag, std::int64_t bytes,
                           sim::SimTime t_send) {
    messages_.push_back({src, dst, tag, bytes, t_send, 0, 0});
    return static_cast<std::int64_t>(messages_.size()) - 1;
  }
  void log_delivered(std::int64_t seq) {
    if (seq >= 0) messages_[static_cast<std::size_t>(seq)].t_delivered = engine_.now();
  }
  void log_recv_done(std::int64_t seq) {
    if (seq >= 0) messages_[static_cast<std::size_t>(seq)].t_recv_done = engine_.now();
  }
  const std::vector<MessageEvent>& messages() const { return messages_; }

  const std::vector<Record>& records(int rank) const { return records_.at(rank); }
  const std::vector<sim::SimTime>& iteration_marks(int rank) const {
    return iter_marks_.at(rank);
  }

  void clear() {
    for (auto& r : records_) r.clear();
    for (auto& m : iter_marks_) m.clear();
    messages_.clear();
  }

  /// Folds a per-shard tracer into this one (the end-of-run merge of a
  /// sharded run, DESIGN.md §3.14).  Both tracers are sized to the total
  /// rank count and each shard's tracer only ever writes its own ranks'
  /// rows, so per-rank records and iteration marks concatenate without
  /// reordering; messages concatenate in shard order — call
  /// sort_messages() once after the last absorb to restore the global
  /// (t_send, source shard, posting order) order.
  void absorb(const Tracer& other) {
    const std::size_t n = std::min(records_.size(), other.records_.size());
    for (std::size_t r = 0; r < n; ++r) {
      records_[r].insert(records_[r].end(), other.records_[r].begin(),
                         other.records_[r].end());
      iter_marks_[r].insert(iter_marks_[r].end(), other.iter_marks_[r].begin(),
                            other.iter_marks_[r].end());
    }
    messages_.insert(messages_.end(), other.messages_.begin(),
                     other.messages_.end());
  }

  /// Stable-sorts the message log by send time (absorb order breaks ties),
  /// so merged cross-shard edges interleave deterministically.
  void sort_messages() {
    std::stable_sort(messages_.begin(), messages_.end(),
                     [](const MessageEvent& a, const MessageEvent& b) {
                       return a.t_send < b.t_send;
                     });
  }

 private:
  sim::Engine& engine_;
  std::vector<std::vector<Record>> records_;
  std::vector<std::vector<sim::SimTime>> iter_marks_;
  std::vector<MessageEvent> messages_;
  std::vector<int> comm_depth_;
  Probe* probe_ = nullptr;
};

}  // namespace pcd::trace
