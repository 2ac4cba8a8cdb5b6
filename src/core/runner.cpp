// run_workload: one measured run, on one engine or on N shards alike
// (DESIGN.md §3.14).
//
// Every shard of a run gets one *rig*: its engine, its slice of the
// cluster, and every collector and service the run wires onto them —
// digest collector + flight recorder, telemetry hub + sampler, the §4.2
// meter protocol, the DVS daemons, the fault checkpoint/injector/
// watchdogs, tracer + energy probe, ACPI reads, and the stoppers that end
// the measurement window.  One function builds a rig and one assembly path
// folds the rigs into a RunResult, so a single-engine run is simply the
// one-rig case.  What depends on the clamped shard count stays explicit:
//   - 1 shard: a plain sim::Engine, the cluster built whole, mpi::Comm, an
//     in-engine completion watcher that stops the services and the engine
//     at the exact completion instant, an MPI progress-watchdog coroutine,
//     and 200k-event control batches;
//   - N shards: sim::ShardedEngine, build_shard_clusters, mpi::ShardedComm,
//     completion/cancel/deadline/progress checks at every barrier, and the
//     deterministic merges — telemetry (merge_snapshots), trace (absorb +
//     sort_messages), faults (split_plan in, merge_reports out), energy
//     (per-lane terms re-folded in global lane order) and digests
//     (merge_digests, per-shard parts kept for tools/pcd_diff).
#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "machine/partition.hpp"
#include "mpi/comm.hpp"
#include "mpi/sharded_comm.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"
#include "sim/sharded.hpp"
#include "telemetry/export.hpp"

namespace pcd::core {

namespace {

// Per-lane cumulative joule terms at the cluster's current instant: the
// exact doubles NodeStateArena::total_joules() folds.  Summing them in lane
// order reproduces total_energy_joules(); keeping them per lane lets a
// sharded run rebuild the machine-wide sum in global lane order even though
// shards freeze their integrators at different local end times.
std::vector<double> lane_energy_terms(machine::Cluster& cluster) {
  cluster.total_energy_joules();  // accrues every lane to the cluster clock
  const auto& arena = cluster.arena();
  std::vector<double> terms(static_cast<std::size_t>(arena.size()));
  for (int l = 0; l < arena.size(); ++l) {
    const double* j = arena.joules(l);
    terms[static_cast<std::size_t>(l)] = j[0] + j[1] + j[2] + j[3] + j[4];
  }
  return terms;
}

double fold(const std::vector<double>& terms, double sum = 0) {
  for (const double v : terms) sum += v;
  return sum;
}

// Energy probe behind scope attribution: a pure read of the exact node
// energy integrator and the CPU's retired-cycle counter.  Both accessors
// accrue lazily but never mutate simulation-visible state, so sampling on
// every scope boundary keeps the run bit-identical.  Scopes carry
// machine-wide rank ids; the cluster indexes its own nodes from rank_base.
struct EnergyProbe final : trace::Tracer::Probe {
  EnergyProbe(machine::Cluster& c, int base) : cluster(&c), rank_base(base) {}
  machine::Cluster* cluster;
  int rank_base;
  trace::Tracer::EnergySample sample(int rank) override {
    auto& node = cluster->node(rank - rank_base);
    const auto e = node.power().energy_breakdown();
    return {e.total(), e.cpu, node.cpu().retired_sensitive_cycles()};
  }
};

// One shard's share of a run (the whole run on a single engine).  Rigs
// live in a vector that is sized once, so services may hold pointers into
// them.  Members are declared in dependency order: everything that
// references the cluster, hub or fault report is destroyed before them.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;  // stoppers, hooks and coroutines hold its address
  Rig& operator=(const Rig&) = delete;

  sim::Engine* engine = nullptr;
  int node_base = 0;  // machine-wide id of the first node (and rank)
  std::unique_ptr<telemetry::DeterminismCollector> det;
  std::unique_ptr<machine::Cluster> cluster;
  std::unique_ptr<telemetry::Hub> hub;
  std::vector<std::unique_ptr<DvsDaemon>> daemons;
  std::vector<fault::DaemonHooks> daemon_hooks;  // per node, with a fault plan
  fault::FaultReport fault_report;
  std::unique_ptr<fault::CheckpointService> ckpt;
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<std::unique_ptr<fault::DaemonWatchdog>> watchdogs;
  std::unique_ptr<trace::Tracer> tracer;
  std::optional<EnergyProbe> probe;
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  std::vector<std::function<void()>> stoppers;
  bool stopped = false;
  apps::AppContext ctx;
  std::vector<sim::Process> ranks;
  std::vector<double> e_start, acpi_start, acpi_end;

  // Completion: the rig's clock and per-lane energy at its last rank's end
  // (or at the abort instant).
  bool done = false;
  sim::SimTime t_end = 0;
  std::vector<double> e_end;

  void finish() {
    t_end = engine->now();
    e_end = lane_energy_terms(*cluster);
    done = true;
  }
  // Ends the measurement window: stops daemons, sampler, checkpoint sweeps
  // and injector, and takes the ACPI end reads.  Runs once.
  void stop() {
    if (stopped) return;
    stopped = true;
    for (auto& s : stoppers) s();
  }
};

// One daemon per node, started at a random offset into its first interval
// so the fleet does not poll in lockstep.
void start_daemons(Rig& rig, const DaemonParams& params) {
  const double interval_s = std::visit([](const auto& p) { return p.interval_s; }, params);
  auto stagger_rng = rig.cluster->rng_stream();
  for (int i = 0; i < rig.cluster->size(); ++i) {
    const auto offset =
        static_cast<sim::SimDuration>(stagger_rng.uniform(0.0, interval_s) * 1e9);
    rig.daemons.push_back(
        std::make_unique<DvsDaemon>(*rig.engine, rig.cluster->node(i), params, offset));
    DvsDaemon* d = rig.daemons.back().get();
    d->start();
    rig.stoppers.push_back([d] { d->stop(); });
  }
}

// Black-box state providers: dump-time reads of the rig's engine, RNG
// counter, lazy energy integrators (pure — reads never fold into the power
// digest) and digest streams.
void add_state_providers(Rig& rig) {
  telemetry::FlightRecorder* fr = rig.det->recorder();
  if (fr == nullptr) return;
  fr->add_state("engine", [eng = rig.engine] {
    char b[160];
    std::snprintf(b, sizeof b,
                  "{\"t_ns\":%llu,\"pending_events\":%zu,"
                  "\"events_processed\":%zu}",
                  static_cast<unsigned long long>(eng->now()), eng->pending_events(),
                  eng->events_processed());
    return std::string(b);
  });
  fr->add_state("rng_draws", [] { return std::to_string(sim::RngTelemetry::draws); });
  fr->add_state("power", [cl = rig.cluster.get()] {
    char b[64];
    std::snprintf(b, sizeof b, "{\"total_joules\":%.9f}", cl->total_energy_joules());
    return std::string(b);
  });
  fr->add_state("digest", [d = rig.det.get()] {
    const auto& dg = d->digest();
    char b[160];
    std::snprintf(b, sizeof b,
                  "{\"root\":\"%016llx\",\"events\":%llu,\"rng\":%llu,"
                  "\"power\":%llu,\"mpi\":%llu}",
                  static_cast<unsigned long long>(dg.root()),
                  static_cast<unsigned long long>(
                      dg.streams[telemetry::RunDigest::kEvents].count),
                  static_cast<unsigned long long>(
                      dg.streams[telemetry::RunDigest::kRng].count),
                  static_cast<unsigned long long>(
                      dg.streams[telemetry::RunDigest::kPower].count),
                  static_cast<unsigned long long>(
                      dg.streams[telemetry::RunDigest::kMpi].count));
    return std::string(b);
  });
}

// Wires everything between cluster construction and launch onto one rig.
// The order is part of the single-engine event sequence (and so of its
// digests and outputs); keep it.  `part` is the rig's share of the fault
// plan (the whole plan on a single engine).
void build_rig(Rig& rig, const RunConfig& config, int ranks, fault::FaultPlan part) {
  sim::Engine& engine = *rig.engine;
  machine::Cluster& cluster = *rig.cluster;

  if (rig.det != nullptr) {
    // Nodes fold under their machine-wide id, so per-shard power streams
    // name the same machine the rank numbering does.
    for (int i = 0; i < cluster.size(); ++i) {
      cluster.node(i).power().set_digest(rig.det->power_stream(), rig.node_base + i);
    }
    add_state_providers(rig);
  }

  // --- telemetry (attach before any strategy acts, so EXTERNAL static
  // sets and meter-protocol events are captured too) ---
  if (config.telemetry.enabled) {
    rig.hub = std::make_unique<telemetry::Hub>();
    cluster.attach_telemetry(rig.hub.get());
  }

  // --- measurement protocol (paper §4.2) ---
  if (config.use_meters) {
    for (int i = 0; i < cluster.size(); ++i) {
      auto& b = cluster.node(i).battery();
      b.recharge_full();   // 1) fully charge
      b.disconnect_ac();   // 2) disconnect building power (via Baytech)
      b.start_polling();
    }
    cluster.baytech().start_polling();
    engine.run_until(engine.now() + 300 * sim::kSecond);  // 3) 5-min discharge
  }

  // --- strategy setup ---
  if (config.static_mhz != 0) {
    cluster.set_all_cpuspeed(config.static_mhz);  // EXTERNAL: psetcpuspeed
    engine.run_until(engine.now() + sim::kMillisecond);  // settle transitions
  }
  if (config.daemon.has_value()) start_daemons(rig, *config.daemon);
  if (config.predictor.has_value()) start_daemons(rig, *config.predictor);

  // --- fault layer (src/fault) ---
  //
  // Everything here is skipped for an empty plan: no RNG stream is drawn
  // (the injector split happens only when the plan injects, *after* the
  // daemon stagger draws), nothing is scheduled, nothing is observed.
  const fault::FaultPlan& plan = config.faults;
  if (plan.active()) {
    const auto& res = plan.resilience;
    // Per-node hooks through which the fault layer wedges, watches,
    // restarts and disables the DVS daemons.
    for (const auto& owned : rig.daemons) {
      DvsDaemon* d = owned.get();
      rig.daemon_hooks.push_back({[d] { return d->polls(); }, [d] { d->start(); },
                                  [d] { d->stop(); }, d->interval_s()});
    }
    if (res.checkpoint_interval_s > 0) {
      rig.ckpt = std::make_unique<fault::CheckpointService>(
          engine, cluster, res.checkpoint_interval_s, res.checkpoint_cost_s,
          &rig.fault_report, rig.hub.get());
      rig.stoppers.push_back([c = rig.ckpt.get()] { c->stop(); });
    }
    // A sharded run gives every shard an injector even when its part is
    // empty: finalize() folds per-node downtime and dropped-DVS-write counts
    // into the report, and those must cover the whole machine.
    if (plan.injects()) {
      rig.injector = std::make_unique<fault::FaultInjector>(
          engine, cluster, std::move(part), cluster.rng_stream(), &rig.fault_report);
      rig.injector->attach_telemetry(rig.hub.get());
      if (rig.ckpt != nullptr) rig.injector->set_checkpoint_service(rig.ckpt.get());
      if (!rig.daemon_hooks.empty()) {
        rig.injector->set_daemon_wedger(
            [hs = &rig.daemon_hooks](int n) { hs->at(n).disable(); });
      }
      rig.stoppers.push_back([inj = rig.injector.get()] { inj->disarm(); });
    }
    if (res.watchdog) {
      for (int i = 0; i < cluster.size(); ++i) {
        fault::DaemonHooks hooks;
        if (!rig.daemon_hooks.empty()) hooks = rig.daemon_hooks[static_cast<std::size_t>(i)];
        rig.watchdogs.push_back(std::make_unique<fault::DaemonWatchdog>(
            engine, cluster.node(i), res.watchdog_params, hooks, &rig.fault_report,
            rig.hub.get()));
        fault::DaemonWatchdog* wd = rig.watchdogs.back().get();
        if (rig.det != nullptr) wd->set_flight_recorder(rig.det->recorder());
        wd->start();
        rig.stoppers.push_back([wd] { wd->stop(); });
      }
    }
  }

  // --- trace/profile: the tracer spans the machine-wide rank space (a
  // shard's rows are disjoint from every other shard's) ---
  if (config.collect_trace || config.profile) {
    rig.tracer = std::make_unique<trace::Tracer>(engine, ranks);
    if (config.profile) {
      rig.probe.emplace(cluster, rig.node_base);
      rig.tracer->set_probe(&*rig.probe);
    }
  }

  // The sampler only *reads* cluster state, so enabling it cannot perturb
  // delay or energy; it starts here so the series covers the run window.
  // Node labels are machine-wide (node_base).
  if (rig.hub != nullptr && config.telemetry.sample) {
    rig.sampler = std::make_unique<telemetry::TimeSeriesSampler>(
        engine, cluster.size(), config.telemetry.sampler,
        [cl = &cluster](int i) {
          auto& node = cl->node(i);
          const auto bd = node.power().breakdown();
          telemetry::NodeProbe p;
          p.freq_mhz = node.cpu().frequency_mhz();
          p.busy_weighted_ns = node.cpu().busy_weighted_ns();
          p.watts_cpu = bd.cpu;
          p.watts_memory = bd.memory;
          p.watts_disk = bd.disk;
          p.watts_nic = bd.nic;
          p.watts_other = bd.other;
          return p;
        },
        &rig.hub->registry(), rig.node_base);
    // Batch path: one dense dirty-lane refresh over the arena per tick; the
    // per-node breakdown() calls above then read clean cached lanes.
    rig.sampler->set_tick_prelude([cl = &cluster] { cl->arena().refresh_all(); });
    rig.sampler->start();
    rig.stoppers.push_back([s = rig.sampler.get()] { s->stop(); });
  }
}

// Joins a rig's rank processes and snapshots its clock and per-lane energy
// at the last completion.  On a single engine (`stop_at_end`) it also stops
// the rig's services and the engine right there, so no later meter or
// daemon event runs before the meters' grace run — the same rule a sharded
// run keeps by ending at its completion barrier.  A shard that finishes
// early keeps its services running instead — a single engine stops them
// at *global* completion, so stopping one shard early would cut its
// observation record short; run_workload stops every rig after the
// barrier loop.
sim::Process completion_watcher(Rig& rig, bool stop_at_end) {
  for (auto& p : rig.ranks) co_await p;
  if (rig.done) co_return;  // the run was already failed or aborted
  rig.finish();
  if (stop_at_end) {
    rig.stop();
    rig.engine->stop();
  }
}

// MPI progress detection: a run has stalled when nothing has progressed for
// `timeout_s` — no MPI message delivered, no CPU work unit retired, no rank
// finished.  That is the signature of a crashed node with no
// checkpoint/restart: the survivors block inside MPI forever while the
// daemons keep the event queue alive.
struct ProgressMonitor {
  const std::vector<Rig>& rigs;
  const mpi::CommBase& comm;
  double timeout_s;
  int ranks;
  std::tuple<std::int64_t, std::int64_t, std::int64_t> last{};
  sim::SimTime last_change = 0;

  auto signature() const {
    std::int64_t work = 0, done_ranks = 0;
    for (const Rig& rig : rigs) {
      for (int i = 0; i < rig.cluster->size(); ++i) {
        work += rig.cluster->node(i).cpu().stats().work_completed;
      }
      for (const auto& p : rig.ranks) done_ranks += p.done() ? 1 : 0;
    }
    return std::tuple{comm.stats().messages, work, done_ranks};
  }
  void reset(sim::SimTime now) {
    last = signature();
    last_change = now;
  }
  // The failure text once the run has stalled for timeout_s at `now`.
  std::optional<std::string> stalled(sim::SimTime now) {
    const auto cur = signature();
    if (cur != last) {
      last = cur;
      last_change = now;
      return std::nullopt;
    }
    if (sim::to_seconds(now - last_change) < timeout_s) return std::nullopt;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "MPI progress timeout: no message, work, or rank completion "
                  "for %.1f s (%lld/%d ranks finished)",
                  timeout_s, static_cast<long long>(std::get<2>(cur)), ranks);
    return std::string(buf);
  }
};

// Single-engine progress watchdog: polls the monitor in simulated time and
// fails the run (structured, not a hang) at the stall instant.
sim::Process progress_watchdog(Rig& rig, ProgressMonitor& monitor,
                               std::optional<std::string>* failure) {
  monitor.reset(rig.engine->now());
  const auto poll = sim::from_seconds(std::max(0.25, monitor.timeout_s / 4.0));
  while (!rig.done) {
    co_await sim::delay(poll);
    if (rig.done) co_return;
    if (auto why = monitor.stalled(rig.engine->now())) {
      *failure = std::move(why);
      rig.finish();
      rig.stop();
      rig.engine->stop();
      co_return;
    }
  }
}

// The run-level gauges and counters, plus per-scope profiler attribution.
void write_run_metrics(telemetry::MetricsRegistry& reg, const RunResult& result) {
  reg.set_help("run_delay_seconds", "Wall time from launch to last rank completion");
  reg.set_help("run_energy_joules", "Exact total system energy over the run window");
  reg.set_help("mpi_messages_total", "Point-to-point MPI messages delivered");
  reg.gauge("run_delay_seconds").set(result.delay_s);
  reg.gauge("run_energy_joules").set(result.energy_j);
  reg.counter("mpi_messages_total").inc(static_cast<double>(result.messages));
  if (!result.profiler.has_value()) return;
  reg.set_help("profiler_scope_energy_joules",
               "Node energy attributed to trace scopes, per rank and category");
  reg.set_help("profiler_scope_seconds",
               "Time attributed to trace scopes, per rank and category");
  const auto& attr = result.profiler->attribution;
  for (std::size_t r = 0; r < attr.ranks.size(); ++r) {
    for (int c = 0; c < 6; ++c) {
      const auto& cat = attr.ranks[r].by_cat[static_cast<std::size_t>(c)];
      if (cat.count == 0) continue;
      const telemetry::Labels labels = {
          {"rank", std::to_string(r)},
          {"category", trace::to_string(static_cast<trace::Cat>(c))}};
      reg.counter("profiler_scope_energy_joules", labels).inc(cat.joules);
      reg.counter("profiler_scope_seconds", labels).inc(cat.seconds);
    }
  }
}

}  // namespace

std::string describe(const std::vector<ConfigIssue>& issues) {
  std::string out;
  for (const auto& i : issues) {
    if (!out.empty()) out += "; ";
    out += i.field + ": " + i.message;
  }
  return out;
}

std::vector<ConfigIssue> RunConfig::validate() const {
  std::vector<ConfigIssue> issues;
  if (daemon.has_value() && predictor.has_value()) {
    issues.push_back({"daemon/predictor",
                      "CPUSPEED daemon and phase predictor are mutually "
                      "exclusive strategies; configure at most one"});
  }
  if (slice_s <= 0) {
    issues.push_back({"slice_s", "compute-phase slice must be positive, got " +
                                     std::to_string(slice_s)});
  }
  if (static_mhz < 0) {
    issues.push_back({"static_mhz", "static frequency cannot be negative, got " +
                                        std::to_string(static_mhz)});
  }
  if (daemon.has_value() && daemon->interval_s <= 0) {
    issues.push_back({"daemon.interval_s", "daemon polling interval must be positive"});
  }
  if (predictor.has_value() && predictor->interval_s <= 0) {
    issues.push_back({"predictor.interval_s",
                      "predictor polling interval must be positive"});
  }
  for (const auto& e : faults.events) {
    if (e.at_s < 0) {
      issues.push_back({"faults.events", "scripted fault scheduled before launch (at_s = " +
                                             std::to_string(e.at_s) + ")"});
      break;
    }
  }
  for (const auto& h : faults.hazards) {
    if (h.mtbf_s <= 0) {
      issues.push_back({"faults.hazards", "hazard MTBF must be positive"});
      break;
    }
  }
  if (faults.horizon_s < 0) {
    issues.push_back({"faults.horizon_s", "hazard horizon cannot be negative"});
  }
  if (wall_deadline_s < 0) {
    issues.push_back({"wall_deadline_s", "wall-clock deadline cannot be negative, got " +
                                             std::to_string(wall_deadline_s)});
  }
  if (faults.resilience.checkpoint_interval_s < 0 ||
      faults.resilience.checkpoint_cost_s < 0) {
    issues.push_back({"faults.resilience",
                      "checkpoint interval/cost cannot be negative"});
  }
  for (auto& [field, message] :
       net::Network::validate_params(cluster.network, "cluster.network")) {
    issues.push_back({field, message});
  }
  if (shards <= 0) {
    issues.push_back({"shards", "shard count must be positive, got " +
                                    std::to_string(shards)});
  } else if (shards > 1) {
    // The sharded path carries the full observation stack: every collector
    // (trace, profile, meters, telemetry, faults, digests, flight recorder)
    // is instantiated per shard and merged deterministically at run end
    // (DESIGN.md §3.14).  The one residual single-engine assumption is
    // focused per-event capture / seq perturbation: dispatch ordinals are
    // per-shard, so a machine-wide capture window is not definable.
    if (determinism.capture() || determinism.perturb_seq != 0) {
      issues.push_back({"determinism",
                        "focused per-event capture and seq perturbation are "
                        "not supported with shards > 1 (dispatch ordinals "
                        "are per-shard); digests and the flight recorder "
                        "shard fine"});
    }
  }
  return issues;
}

RunConfig RunConfigBuilder::build() const {
  auto issues = cfg_.validate();
  if (!issues.empty()) {
    throw std::invalid_argument("invalid RunConfig: " + describe(issues));
  }
  return cfg_;
}

RunResult run_workload(const apps::Workload& workload, const RunConfig& config) {
  if (auto issues = config.validate(); !issues.empty()) {
    throw std::invalid_argument("invalid RunConfig: " + describe(issues));
  }
  // Shards are clamped to the rank count; an effective count of 1 runs one
  // plain engine, bit-identical to a config that never mentioned shards.
  const int shards = std::min(config.shards, workload.ranks);
  const bool sharded = shards > 1;
  const auto plan = machine::ShardPlan::contiguous(workload.ranks, shards);

  std::optional<sim::Engine> solo;
  std::optional<sim::ShardedEngine> engines;
  if (sharded) {
    engines.emplace(shards, config.cluster.network.latency);
  } else {
    solo.emplace();
  }
  std::vector<Rig> rigs(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    Rig& rig = rigs[static_cast<std::size_t>(s)];
    rig.engine = sharded ? &engines->shard(s) : &*solo;
    rig.node_base = plan.global_of(s, 0);
    // --- determinism observability (installed before anything schedules,
    // so the digest streams cover the cluster's very first event) ---
    //
    // A collector's RNG install covers only the constructing (calling)
    // thread, and stacking N of them would chain dangling restores, so at
    // shards > 1 each collector releases it and the engine re-installs the
    // stream on whichever thread runs the shard's windows.  Calling-thread
    // construction draws are therefore not folded into the RNG stream at
    // shards > 1 — the other streams still cover construction, and
    // multi-shard digests have no 1-shard identity to hold.
    if (!config.determinism.any()) continue;
    rig.det = std::make_unique<telemetry::DeterminismCollector>(*rig.engine,
                                                                config.determinism);
    if (sharded) {
      rig.det->release_rng();
      engines->set_rng_digest(s, rig.det->rng_stream());
    }
  }

  // The paper reports total system energy of the nodes running the job
  // (one battery per participating node); size the machine accordingly.
  machine::ClusterConfig cc = config.cluster;
  cc.nodes = workload.ranks;
  cc.seed = config.seed * 0x9e3779b97f4a7c15ULL + 0x1234567;
  if (sharded) {
    auto clusters = machine::build_shard_clusters(*engines, cc, plan);
    for (std::size_t s = 0; s < rigs.size(); ++s) rigs[s].cluster = std::move(clusters[s]);
  } else {
    rigs[0].cluster = std::make_unique<machine::Cluster>(*solo, cc);
  }

  // The machine-wide fault plan splits along shard boundaries: node-targeted
  // events localize to the owning shard, cluster-wide events replicate
  // (recording only on shard 0), pick-a-node hazards replicate with their
  // MTBF scaled to the shard's node share.  Per-shard checkpoint services
  // sweep in lockstep (same interval, same launch instant), so the merged
  // checkpoint count is the max, not the sum.
  auto fault_parts = sharded ? fault::split_plan(config.faults, plan.first)
                             : std::vector<fault::FaultPlan>{config.faults};
  for (std::size_t s = 0; s < rigs.size(); ++s) {
    build_rig(rigs[s], config, workload.ranks, std::move(fault_parts[s]));
  }

  std::unique_ptr<mpi::CommBase> comm;
  if (sharded) {
    std::vector<machine::Cluster*> clusters;
    for (auto& rig : rigs) clusters.push_back(rig.cluster.get());
    auto sc = std::make_unique<mpi::ShardedComm>(*engines, clusters, plan);
    for (int s = 0; s < shards; ++s) {
      const Rig& rig = rigs[static_cast<std::size_t>(s)];
      if (rig.det != nullptr) sc->set_digest(s, rig.det->mpi_stream());
      if (rig.tracer != nullptr) sc->set_tracer(s, rig.tracer.get());
    }
    comm = std::move(sc);
  } else {
    std::vector<int> node_ids(workload.ranks);
    std::iota(node_ids.begin(), node_ids.end(), 0);
    auto c = std::make_unique<mpi::Comm>(*rigs[0].cluster, node_ids, mpi::CostParams{},
                                         rigs[0].tracer.get());
    if (rigs[0].det != nullptr) c->set_digest(rigs[0].det->mpi_stream());
    comm = std::move(c);
  }

  // --- launch ---
  sim::SimTime t_start = 0;
  for (const auto& rig : rigs) t_start = std::max(t_start, rig.engine->now());
  for (auto& rig : rigs) {
    rig.ctx.comm = comm.get();
    rig.ctx.tracer = rig.tracer.get();
    rig.ctx.hooks = &config.hooks;
    rig.ctx.slice_s = config.slice_s;
    rig.e_start = lane_energy_terms(*rig.cluster);
    if (config.use_meters) {
      for (int i = 0; i < rig.cluster->size(); ++i) {
        rig.acpi_start.push_back(rig.cluster->node(i).battery().reported_remaining_mwh());
      }
      rig.acpi_end.resize(rig.acpi_start.size());
      // The operator reads the batteries right at completion; register that
      // read with the stoppers so it happens at exactly the end instant.
      rig.stoppers.push_back([r = &rig] {
        for (int i = 0; i < r->cluster->size(); ++i) {
          r->acpi_end[static_cast<std::size_t>(i)] =
              r->cluster->node(i).battery().reported_remaining_mwh();
          r->cluster->node(i).battery().stop_polling();
        }
      });
    }
    // Arm the resilience/injection machinery right at launch so scripted
    // fault times are relative to the application's start.  Shard clocks
    // are equal here (every pre-run advance is the same on each shard), so
    // the lockstep-checkpoint assumption behind the report merge holds.
    if (rig.ckpt != nullptr) rig.ckpt->start();
    if (rig.injector != nullptr) rig.injector->arm();
    rig.ranks.reserve(static_cast<std::size_t>(rig.cluster->size()));
  }
  for (int r = 0; r < workload.ranks; ++r) {
    Rig& rig = rigs[static_cast<std::size_t>(plan.shard_of(r))];
    rig.ranks.push_back(sim::spawn(*rig.engine, workload.make_rank(rig.ctx, r)));
  }
  for (auto& rig : rigs) sim::spawn(*rig.engine, completion_watcher(rig, !sharded));

  double mpi_timeout_s = config.faults.resilience.mpi_timeout_s;
  if (mpi_timeout_s == 0) mpi_timeout_s = config.faults.injects() ? 60.0 : -1.0;
  ProgressMonitor progress{rigs, *comm, mpi_timeout_s, workload.ranks};
  std::optional<std::string> failure;
  if (mpi_timeout_s > 0 && !sharded) {
    sim::spawn(*solo, progress_watchdog(rigs[0], progress, &failure));
  }

  // Cancellation and wall-clock deadline checks run between event batches
  // (single engine) or at every barrier (sharded): a pure wall-side read —
  // no event scheduled, no RNG drawn — so a run that is never cancelled
  // stays bit-identical to an unbounded one.
  const auto wall_start = std::chrono::steady_clock::now();
  auto control_abort = [&]() -> std::optional<std::string> {
    if (config.cancel != nullptr && config.cancel->load(std::memory_order_relaxed)) {
      return "run cancelled by caller";
    }
    if (config.wall_deadline_s > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
              .count();
      if (elapsed > config.wall_deadline_s) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "wall-clock deadline exceeded: %.2f s elapsed against a "
                      "%.2f s budget",
                      elapsed, config.wall_deadline_s);
        return std::string(buf);
      }
    }
    return std::nullopt;
  };
  auto all_done = [&] {
    return std::all_of(rigs.begin(), rigs.end(), [](const Rig& r) { return r.done; });
  };

  std::uint64_t events = 0;
  if (sharded) {
    progress.reset(t_start);
    auto on_barrier = [&](sim::SimTime t) {
      if ((failure = control_abort())) return false;
      if (mpi_timeout_s > 0 && (failure = progress.stalled(t))) return false;
      return !all_done();  // stop promptly once every shard is done
    };
    events = engines->run(sim::ShardedEngine::kNoLimit, on_barrier).events;
  } else {
    while (!rigs[0].done) {
      if ((failure = control_abort())) break;
      if (solo->run(200'000) == 0) break;
    }
  }
  if (!failure && !all_done()) {
    if (!config.faults.active()) {
      throw std::runtime_error("workload deadlocked: no events but ranks unfinished");
    }
    // Structured failure: a crashed node left the survivors blocked in MPI
    // with nothing else scheduled.
    failure = "cluster deadlocked: ranks blocked in MPI with no events pending";
  }
  // Global completion (or the abort instant): snapshot every rig still
  // running, then stop every rig's services.
  for (auto& rig : rigs) {
    if (!rig.done) rig.finish();
  }
  for (auto& rig : rigs) rig.stop();

  // --- assemble the result ---
  sim::SimTime t_end = t_start;
  for (const auto& rig : rigs) t_end = std::max(t_end, rig.t_end);
  RunResult result;
  result.workload = workload.name;
  result.failed = failure.has_value();
  if (failure) result.failure = *failure;
  result.delay_s = sim::to_seconds(t_end - t_start);
  // Machine-wide energy: each total walks every lane in global order
  // (shards are contiguous node ranges), so the addition order — and the
  // doubles — match a single arena's total_joules() at the same instants.
  double e_end_total = 0, e_start_total = 0;
  for (const auto& rig : rigs) {
    e_end_total = fold(rig.e_end, e_end_total);
    e_start_total = fold(rig.e_start, e_start_total);
  }
  result.energy_j = e_end_total - e_start_total;

  if (config.faults.active()) {
    std::vector<fault::FaultReport> reports;
    for (auto& rig : rigs) {
      if (rig.injector != nullptr) rig.injector->finalize();
      reports.push_back(std::move(rig.fault_report));
    }
    auto merged = fault::merge_reports(std::move(reports));
    merged.run_failed = result.failed;
    merged.failure = result.failure;
    result.fault_report = std::move(merged);
  }

  if (config.use_meters) {
    // Capacity differences were read at the end instant by the stoppers;
    // staleness at both ends (each value is from the last 15-20 s refresh)
    // largely cancels over long runs.
    double acpi_mwh = 0;
    for (const auto& rig : rigs) {
      for (std::size_t i = 0; i < rig.acpi_start.size(); ++i) {
        acpi_mwh += rig.acpi_start[i] - rig.acpi_end[i];
      }
    }
    result.energy_acpi_j = acpi_mwh * 3.6;
    // The Baytech unit reports completed one-minute windows; run the clock
    // past the next report so the window containing t_end is available.
    // Every rank has joined, so advancing one shard alone only drains its
    // local meter events.
    result.energy_baytech_j = 0;
    const sim::SimTime grace = t_end + 61 * sim::kSecond;
    for (auto& rig : rigs) {
      rig.engine->run_until(grace);
      result.energy_baytech_j +=
          rig.cluster->baytech().estimate_energy_joules(t_start, t_end);
      rig.cluster->baytech().stop_polling();
    }
  }

  for (const auto& rig : rigs) {
    for (int i = 0; i < rig.cluster->size(); ++i) {
      result.dvs_transitions += rig.cluster->node(i).cpu().stats().transitions;
      // A zero-length run (every rank returned at launch) had no busy time
      // to average; report 0 rather than 0/0.
      if (t_end == t_start) continue;
      result.mean_utilization += rig.cluster->node(i).cpu().busy_weighted_ns() /
                                 static_cast<double>(t_end - t_start) / workload.ranks;
    }
    result.net_collisions += rig.cluster->network().stats().collisions;
  }
  result.messages = comm->stats().messages;
  result.events = static_cast<std::int64_t>(sharded ? events : solo->events_processed());

  // Trace merge: per-rank rows are disjoint (each shard traced only its own
  // ranks), messages re-sort by send time — the order one engine would have
  // logged them in.
  trace::Tracer* tracer = rigs[0].tracer.get();
  std::optional<trace::Tracer> merged_tracer;
  if (sharded && tracer != nullptr) {
    merged_tracer.emplace(engines->shard(0), workload.ranks);
    for (const auto& rig : rigs) merged_tracer->absorb(*rig.tracer);
    merged_tracer->sort_messages();
    tracer = &*merged_tracer;
  }
  if (tracer != nullptr) {
    result.profile = trace::analyze(*tracer);
    result.timeline = trace::render_timeline(*tracer);
  }
  if (config.profile && config.profile_analysis && tracer != nullptr) {
    const auto& table = rigs[0].cluster->node(0).cpu().table();
    const int profile_mhz =
        config.static_mhz != 0 ? config.static_mhz : table.highest().freq_mhz;
    result.profiler = profiler::profile(*tracer, table, profile_mhz, result.delay_s,
                                        result.energy_j);
  }

  if (config.determinism.any()) {
    telemetry::RunCapture capture;
    std::vector<telemetry::RunDigest> parts;
    std::string flight;
    for (auto& rig : rigs) {
      telemetry::RunCapture part = rig.det->take_capture();
      // Black box: a failed run dumps the last N causal steps at the failure
      // instant (watchdog-fallback dumps are in fault_report already).
      if (result.failed && rig.det->recorder() != nullptr) {
        if (!flight.empty()) flight += "\n";
        flight += rig.det->recorder()->dump_json(result.failure, rig.engine->now());
      }
      rig.det->detach();
      if (sharded) {
        parts.push_back(std::move(part.digest));
      } else {
        capture = std::move(part);
      }
    }
    if (sharded) {
      capture.digest = telemetry::merge_digests(parts);
      capture.shard_parts = std::move(parts);
    }
    capture.flight_recording = std::move(flight);
    result.determinism = std::move(capture);
  }

  if (config.telemetry.enabled) {
    telemetry::TelemetrySnapshot snap;
    if (!sharded) {
      write_run_metrics(rigs[0].hub->registry(), result);
      snap = telemetry::make_snapshot(*rigs[0].hub, rigs[0].sampler.get());
    } else {
      // Per-shard parts plus one run-level part; each shard's
      // raw registry is kept for the per-shard provenance views.
      telemetry::Hub run_hub;
      write_run_metrics(run_hub.registry(), result);
      std::vector<telemetry::TelemetrySnapshot> snap_parts;
      std::vector<std::vector<telemetry::MetricSample>> shard_metrics;
      for (const auto& rig : rigs) {
        snap_parts.push_back(telemetry::make_snapshot(*rig.hub, rig.sampler.get()));
        shard_metrics.push_back(snap_parts.back().metrics);
      }
      snap_parts.push_back(telemetry::make_snapshot(run_hub, nullptr));
      snap = telemetry::merge_snapshots(std::move(snap_parts));
      snap.shard_metrics = std::move(shard_metrics);
      snap.rank_shards.resize(static_cast<std::size_t>(workload.ranks));
      for (int r = 0; r < workload.ranks; ++r) {
        snap.rank_shards[static_cast<std::size_t>(r)] = plan.shard_of(r);
      }
    }
    const telemetry::RunCapture* det =
        result.determinism.has_value() ? &*result.determinism : nullptr;
    snap.chrome_trace_json = telemetry::to_chrome_json(snap, tracer, det);
    if (sharded && tracer != nullptr) {
      snap.chrome_trace_sharded_json =
          telemetry::to_chrome_json(snap, tracer, det, &snap.rank_shards);
    }
    result.telemetry = std::move(snap);
  }

  // Failed or abandoned runs leave ranks suspended inside MPI waits; those
  // frames hold RAII guards over cluster objects, so destroy them here while
  // the clusters are still alive rather than in the engines' destructors.
  for (auto& rig : rigs) rig.engine->destroy_suspended_frames();
  return result;
}

}  // namespace pcd::core
