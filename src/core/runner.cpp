// run_workload: one measured run, on one engine or on N shards
// (DESIGN.md §3.14).
//
// Every shard of a run gets one *rig*: its engine, its slice of the
// cluster, its DVS daemons and rank processes, and the stoppers that end
// the measurement window.  Observers — digest collector + flight recorder,
// telemetry hub + sampler, the §4.2 meter protocol, the fault checkpoint/
// injector/watchdogs, tracer + energy probe — exist only on a
// single-engine run: validate() rejects them at shards > 1, so the result
// reads every one of them from the one rig.  What depends on the clamped
// shard count stays explicit:
//   - 1 shard: a plain sim::Engine, the cluster built whole, mpi::Comm, an
//     in-engine completion watcher that stops the services and the engine
//     at the exact completion instant, an MPI progress-watchdog coroutine,
//     and 200k-event control batches;
//   - N shards: sim::ShardedEngine, build_shard_clusters, mpi::ShardedComm,
//     completion/cancel/deadline checks at every barrier, and the energy
//     total re-folded from per-lane terms in global lane order.
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
// every scope boundary keeps the run bit-identical.
struct EnergyProbe final : trace::Tracer::Probe {
  explicit EnergyProbe(machine::Cluster& c) : cluster(&c) {}
  machine::Cluster* cluster;
  trace::Tracer::EnergySample sample(int rank) override {
    auto& node = cluster->node(rank);
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
  const double interval_s = interval_of(params);
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
// digests and outputs); keep it.  Every observer is off on a sharded rig
// (validate()), which leaves it the strategy setup alone.
void build_rig(Rig& rig, const RunConfig& config, int ranks) {
  sim::Engine& engine = *rig.engine;
  machine::Cluster& cluster = *rig.cluster;

  if (rig.det != nullptr) {
    for (int i = 0; i < cluster.size(); ++i) {
      cluster.node(i).power().set_digest(rig.det->power_stream(), i);
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
    if (plan.injects()) {
      rig.injector = std::make_unique<fault::FaultInjector>(
          engine, cluster, plan, cluster.rng_stream(), &rig.fault_report);
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

  // --- trace/profile ---
  if (config.collect_trace || config.profile) {
    rig.tracer = std::make_unique<trace::Tracer>(engine, ranks);
    if (config.profile) {
      rig.probe.emplace(cluster);
      rig.tracer->set_probe(&*rig.probe);
    }
  }

  // The sampler only *reads* cluster state, so enabling it cannot perturb
  // delay or energy; it starts here so the series covers the run window.
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
        &rig.hub->registry());
    // Batch path: one dirty-lane refresh over the arena per tick; the
    // per-node breakdown() calls above then read clean cached lanes.
    rig.sampler->set_tick_prelude([cl = &cluster] { cl->arena().refresh_all(); });
    rig.sampler->start();
    rig.stoppers.push_back([s = rig.sampler.get()] { s->stop(); });
  }
}

// Joins a rig's rank processes and snapshots its clock and per-lane energy
// at the last completion.  On a single engine (`stop_at_end`) it also stops
// the rig's services and the engine right there, so no later meter or
// daemon event runs before the meters' grace run.  A shard that finishes
// early keeps its daemons polling until *global* completion, as one engine
// would; run_workload stops every rig after the barrier loop.
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
// daemons keep the event queue alive.  Single engine only: a sharded run
// injects no faults, so it never arms the monitor.
struct ProgressMonitor {
  const Rig& rig;
  const mpi::CommBase& comm;
  double timeout_s;
  int ranks;
  std::tuple<std::int64_t, std::int64_t, std::int64_t> last{};
  sim::SimTime last_change = 0;

  auto signature() const {
    std::int64_t work = 0, done_ranks = 0;
    for (int i = 0; i < rig.cluster->size(); ++i) {
      work += rig.cluster->node(i).cpu().stats().work_completed;
    }
    for (const auto& p : rig.ranks) done_ranks += p.done() ? 1 : 0;
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

// Progress watchdog: polls the monitor in simulated time and fails the run
// (structured, not a hang) at the stall instant.
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

// Adds an issue unless `seconds` is a timer period the engine can run: at
// least 1 ns once rounded to its tick, and below ~292 years so the
// conversion to int64 nanoseconds is defined.  NaN fails both comparisons.
void check_period(std::vector<ConfigIssue>& issues, const char* field, double seconds) {
  if (seconds > 0 && seconds < 9.2e9 && sim::from_seconds(seconds) >= 1) return;
  char got[32];
  std::snprintf(got, sizeof got, "%g", seconds);
  issues.push_back({field, std::string("period must be finite and at least 1 ns, got ") + got});
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
  if (slice_s <= 0) {
    issues.push_back({"slice_s", "compute-phase slice must be positive, got " +
                                     std::to_string(slice_s)});
  }
  if (static_mhz < 0) {
    issues.push_back({"static_mhz", "static frequency cannot be negative, got " +
                                        std::to_string(static_mhz)});
  }
  if (daemon.has_value()) check_period(issues, "daemon.interval_s", interval_of(*daemon));
  if (telemetry.enabled && telemetry.sample) {
    check_period(issues, "telemetry.sampler.period_s", telemetry.sampler.period_s);
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
  if (determinism.checkpoint_every > telemetry::DeterminismOptions::kMaxCheckpointEvery) {
    issues.push_back({"determinism.checkpoint_every",
                      "checkpoint interval cannot exceed 2^63 events, got " +
                          std::to_string(determinism.checkpoint_every)});
  }
  if (shards <= 0) {
    issues.push_back({"shards", "shard count must be positive, got " +
                                    std::to_string(shards)});
  } else if (shards > 1) {
    // A sharded run is bare: every observer is built and read on one
    // engine only (DESIGN.md §3.14).
    const std::pair<bool, const char*> observers[] = {
        {collect_trace, "collect_trace"},
        {profile, "profile"},
        {use_meters, "use_meters"},
        {telemetry.enabled, "telemetry.enabled"},
        {faults.active(), "faults"},
        {determinism.any(), "determinism"},
    };
    for (const auto& [on, field] : observers) {
      if (on) {
        issues.push_back({field, "observation layers are not supported with shards > 1; "
                                 "run this configuration on one shard"});
      }
    }
  }
  return issues;
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
    rigs[static_cast<std::size_t>(s)].engine = sharded ? &engines->shard(s) : &*solo;
  }
  // The one rig every observer lives on (validate() keeps them off sharded
  // runs).
  Rig& rig0 = rigs.front();
  // --- determinism observability (installed before anything schedules, so
  // the digest streams cover the cluster's very first event) ---
  if (config.determinism.any()) {
    rig0.det = std::make_unique<telemetry::DeterminismCollector>(*rig0.engine,
                                                                 config.determinism);
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
    rig0.cluster = std::make_unique<machine::Cluster>(*solo, cc);
  }
  for (auto& rig : rigs) build_rig(rig, config, workload.ranks);

  std::unique_ptr<mpi::CommBase> comm;
  if (sharded) {
    std::vector<machine::Cluster*> clusters;
    for (auto& rig : rigs) clusters.push_back(rig.cluster.get());
    comm = std::make_unique<mpi::ShardedComm>(*engines, clusters, plan);
  } else {
    std::vector<int> node_ids(workload.ranks);
    std::iota(node_ids.begin(), node_ids.end(), 0);
    auto c = std::make_unique<mpi::Comm>(*rig0.cluster, node_ids, mpi::CostParams{},
                                         rig0.tracer.get());
    if (rig0.det != nullptr) c->set_digest(rig0.det->mpi_stream());
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
    rig.ranks.reserve(static_cast<std::size_t>(rig.cluster->size()));
  }
  if (config.use_meters) {
    for (int i = 0; i < rig0.cluster->size(); ++i) {
      rig0.acpi_start.push_back(rig0.cluster->node(i).battery().reported_remaining_mwh());
    }
    rig0.acpi_end.resize(rig0.acpi_start.size());
    // The operator reads the batteries right at completion; register that
    // read with the stoppers so it happens at exactly the end instant.
    rig0.stoppers.push_back([r = &rig0] {
      for (int i = 0; i < r->cluster->size(); ++i) {
        r->acpi_end[static_cast<std::size_t>(i)] =
            r->cluster->node(i).battery().reported_remaining_mwh();
        r->cluster->node(i).battery().stop_polling();
      }
    });
  }
  // Arm the resilience/injection machinery right at launch so scripted
  // fault times are relative to the application's start.
  if (rig0.ckpt != nullptr) rig0.ckpt->start();
  if (rig0.injector != nullptr) rig0.injector->arm();
  for (int r = 0; r < workload.ranks; ++r) {
    Rig& rig = rigs[static_cast<std::size_t>(plan.shard_of(r))];
    rig.ranks.push_back(sim::spawn(*rig.engine, workload.make_rank(rig.ctx, r)));
  }
  for (auto& rig : rigs) sim::spawn(*rig.engine, completion_watcher(rig, !sharded));

  double mpi_timeout_s = config.faults.resilience.mpi_timeout_s;
  if (mpi_timeout_s == 0) mpi_timeout_s = config.faults.injects() ? 60.0 : -1.0;
  ProgressMonitor progress{rig0, *comm, mpi_timeout_s, workload.ranks};
  std::optional<std::string> failure;
  if (mpi_timeout_s > 0) {
    sim::spawn(*rig0.engine, progress_watchdog(rig0, progress, &failure));
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
    auto on_barrier = [&](sim::SimTime) {
      if ((failure = control_abort())) return false;
      return !all_done();  // stop promptly once every shard is done
    };
    events = engines->run(sim::ShardedEngine::kNoLimit, on_barrier).events;
  } else {
    while (!rig0.done) {
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
    if (rig0.injector != nullptr) rig0.injector->finalize();
    result.fault_report = std::move(rig0.fault_report);
    result.fault_report->run_failed = result.failed;
    result.fault_report->failure = result.failure;
  }

  if (config.use_meters) {
    // Capacity differences were read at the end instant by the stoppers;
    // staleness at both ends (each value is from the last 15-20 s refresh)
    // largely cancels over long runs.
    double acpi_mwh = 0;
    for (std::size_t i = 0; i < rig0.acpi_start.size(); ++i) {
      acpi_mwh += rig0.acpi_start[i] - rig0.acpi_end[i];
    }
    result.energy_acpi_j = acpi_mwh * 3.6;
    // The Baytech unit reports completed one-minute windows; run the clock
    // past the next report so the window containing t_end is available.
    rig0.engine->run_until(t_end + 61 * sim::kSecond);
    auto& baytech = rig0.cluster->baytech();
    result.energy_baytech_j = baytech.estimate_energy_joules(t_start, t_end);
    baytech.stop_polling();
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

  const trace::Tracer* tracer = rig0.tracer.get();
  if (tracer != nullptr) {
    result.profile = trace::analyze(*tracer);
    result.timeline = trace::render_timeline(*tracer);
  }
  if (config.profile && config.profile_analysis && tracer != nullptr) {
    const auto& table = rig0.cluster->node(0).cpu().table();
    const int profile_mhz =
        config.static_mhz != 0 ? config.static_mhz : table.highest().freq_mhz;
    result.profiler = profiler::profile(*tracer, table, profile_mhz, result.delay_s,
                                        result.energy_j);
  }

  if (rig0.det != nullptr) {
    telemetry::RunCapture capture = rig0.det->take_capture();
    // Black box: a failed run dumps the last N causal steps at the failure
    // instant (watchdog-fallback dumps are in fault_report already).
    if (result.failed && rig0.det->recorder() != nullptr) {
      capture.flight_recording =
          rig0.det->recorder()->dump_json(result.failure, rig0.engine->now());
    }
    rig0.det->detach();
    result.determinism = std::move(capture);
  }

  if (rig0.hub != nullptr) {
    write_run_metrics(rig0.hub->registry(), result);
    auto snap = telemetry::make_snapshot(*rig0.hub, rig0.sampler.get());
    const telemetry::RunCapture* det =
        result.determinism.has_value() ? &*result.determinism : nullptr;
    snap.chrome_trace_json = telemetry::to_chrome_json(snap, tracer, det);
    result.telemetry = std::move(snap);
  }

  // Failed or abandoned runs leave ranks suspended inside MPI waits; those
  // frames hold RAII guards over cluster objects, so destroy them here while
  // the clusters are still alive rather than in the engines' destructors.
  for (auto& rig : rigs) rig.engine->destroy_suspended_frames();
  return result;
}

}  // namespace pcd::core
