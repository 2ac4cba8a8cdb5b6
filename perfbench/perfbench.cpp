// perfbench: the measuring program of the repository benchmark.  run.py
// builds it, runs it once per invocation, checks its simulated outputs
// against ledger.json and prints the result line (see run.py).
//
// Usage:
//   perfbench --workload cg4096_dvs|npb_suite --seed N
//             --seconds S --trace 0|1 [--tiny] [--spans FILE]
//
// The last stdout line is one JSON object: build type, run counts, the
// simulated outputs of every rep (for the golden and agreement checks), and
// the metrics of the selected mode.  --tiny shrinks every size for the
// self-check.  Everything goes through the public API: core::run_workload,
// campaign::CampaignRunner, and the module surfaces the probes time.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "core/runner.hpp"
#include "perfbench.hpp"
#include "sim/rng.hpp"

#ifndef PCD_BUILD_TYPE
#define PCD_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace pcd;

apps::Workload make_cg_shape(int ranks, int cycles, PostTimer* posts) {
  apps::Workload w;
  w.name = "CGSHAPE." + std::to_string(ranks);
  w.ranks = ranks;
  w.iterations = cycles;
  w.make_rank = [ranks, cycles, posts](apps::AppContext& ctx, int rank) -> sim::Process {
    auto& comm = *ctx.comm;
    const int half = ranks / 2;
    const int partner = rank < half ? rank + half : rank - half;
    const bool lower = rank < half;
    std::int64_t calls = 0, ns = 0;  // summed locally: shards run on threads
    for (int it = 0; it < cycles; ++it) {
      co_await apps::compute_phase(ctx, rank, 0.0035, 0.006);
      for (int tag = 7; tag <= 8; ++tag) {
        if (tag == 8 && lower) co_await apps::compute_phase(ctx, rank, 0.0, 0.013);
        const auto t0 = posts != nullptr ? std::chrono::steady_clock::now()
                                         : std::chrono::steady_clock::time_point{};
        auto rr = comm.irecv(rank, partner, tag);
        auto sr = comm.isend(rank, partner, tag, 64 * 1024);
        if (posts != nullptr) {
          ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
          calls += 2;
        }
        std::vector<mpi::Comm::Request> reqs;
        reqs.push_back(std::move(sr));
        reqs.push_back(std::move(rr));
        co_await comm.waitall(rank, std::move(reqs));
      }
    }
    if (posts != nullptr) {
      posts->calls += calls;
      posts->ns += ns;
    }
  };
  return w;
}

}  // namespace perfbench

namespace {

using namespace pcd;
using namespace perfbench;

// Worker threads for npb_suite and shards for the traced shard pair.  Fixed
// rather than read from the host, so runs compare across machines (sharded
// outputs depend on the shard count).
constexpr int kThreads = 4;

// Scheduling-site labels counted by sim.site.*; "" is reported as
// sim.site.unlabelled and anything else as sim.site.other.
constexpr const char* kSites[] = {
    "cpu.finish_work", "cpu.end_transition", "cpuspeed.tick", "event.set",
    "process.delay",   "process.spawn",      "process.join",  "net.port_handoff",
    "net.local_copy",  "baytech.window",     "acpi.refresh"};

struct Sizes {
  int cg_ranks = 4096, cg_cycles = 128, warm_cycles = 2;
  double npb_scale = 1.0;
  int npb_trials = 3;
  int subset_cells = 6;         // npb cells re-run on one thread
  std::uint64_t slice = 65536;  // events per captured slice
  std::uint64_t pre_dvs_at = 500000, dvs_at = 6000000;  // slice starts (dispatch index)
  int probe_iters = 20000;
  int setups = 9;    // set-ups per invocation; setup_s is their median
  int min_reps = 3;  // timed reps per invocation, at least

  static Sizes tiny() {
    Sizes z;
    z.cg_ranks = 64;
    z.npb_scale = 0.05;
    z.npb_trials = 1;
    z.subset_cells = 3;
    z.slice = 4096;
    z.pre_dvs_at = 8000;
    z.dvs_at = 94000;  // the full-size position scaled by 64/4096
    z.probe_iters = 512;
    z.setups = 2;
    z.min_reps = 2;
    return z;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

/// One unit of work: a run (cg4096_*) or a whole campaign (npb_suite).
struct Rep {
  double wall = 0, cpu = 0;
  std::string output;  // simulated outputs; equal across reps of one seed
  int runs = 0, failed = 0;
  double events = 0, transitions = 0, messages = 0, collisions = 0;
  double tail_s = 0;  // campaign: wall time after the first worker idled
  int threads = 1;
  std::string tsv;  // campaign table, for the one-thread subset check
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---- workloads -------------------------------------------------------------

core::RunConfig cg_config(std::uint64_t seed, int shards) {
  core::RunConfig c;
  c.seed = seed;
  c.daemon = core::CpuspeedParams{};  // the paper's daemon is on the hot path
  c.shards = shards;
  return c;
}

Rep run_cg(const Sizes& z, std::uint64_t seed, int shards, PostTimer* posts) {
  const apps::Workload w = make_cg_shape(z.cg_ranks, z.cg_cycles, posts);
  const core::RunConfig cfg = cg_config(seed, shards);
  // A single-engine run may share the process with sibling copies, so it is
  // charged its own thread's CPU time; a sharded run owns the process.
  const clockid_t clock = shards > 1 ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID;
  Rep rep;
  rep.runs = 1;
  rep.threads = shards;
  core::RunResult r;
  const double w0 = wall_now(), c0 = cpu_now(clock);
  try {
    r = core::run_workload(w, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run threw: %s\n", e.what());
    r.failed = true;
  }
  rep.wall = wall_now() - w0;
  rep.cpu = cpu_now(clock) - c0;
  rep.failed = r.failed ? 1 : 0;
  rep.events = static_cast<double>(r.events);
  rep.transitions = static_cast<double>(r.dvs_transitions);
  rep.messages = static_cast<double>(r.messages);
  rep.collisions = static_cast<double>(r.net_collisions);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "events=%" PRId64 " delay_s=%a energy_j=%a dvs_transitions=%" PRId64
                " messages=%" PRId64,
                r.events, r.delay_s, r.energy_j, r.dvs_transitions, r.messages);
  rep.output = buf;
  return rep;
}

/// Runs `fn(i)` on kThreads threads at once, joins them, and rethrows the
/// first exception any of them raised.
template <typename Fn>
void on_every_core(Fn&& fn) {
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&fn, &errors, i] {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// cg4096_dvs runs kThreads copies of the same single-engine input at once,
/// one per core, each timing itself: on a shared host the cores drift in
/// speed independently, and spreading every rep over all of them averages
/// that drift out of the median (one copy alone swung 4-10 s per run).
std::vector<Rep> run_cg_copies(const Sizes& z, std::uint64_t seed, PostTimer* posts) {
  std::vector<Rep> reps(kThreads);
  on_every_core([&](int i) { reps[static_cast<std::size_t>(i)] = run_cg(z, seed, 1, posts); });
  return reps;
}

void setup_cg(const Sizes& z, std::uint64_t seed) {
  on_every_core([&](int) {
    core::run_workload(make_cg_shape(z.cg_ranks, z.warm_cycles), cg_config(seed, 1));
  });
}

/// The paper's experiment: 8 NPB class-C replicas x {600..1400 MHz
/// EXTERNAL, CPUSPEED auto} x trials, with the ACPI/Baytech meters on.
campaign::ExperimentSpec npb_spec(double scale, int trials, std::uint64_t seed) {
  core::RunConfig base;
  base.seed = seed;
  base.use_meters = true;
  std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> strategies;
  for (int mhz : {600, 800, 1000, 1200, 1400}) {
    strategies.push_back({std::to_string(mhz), [mhz](core::RunConfig& c) { c.static_mhz = mhz; }});
  }
  strategies.push_back({"auto", [](core::RunConfig& c) { c.daemon = core::CpuspeedParams{}; }});
  campaign::ExperimentSpec spec;
  spec.workloads(apps::all_npb(scale))
      .base(base)
      .axis(campaign::Axis::strategies("strategy", std::move(strategies)))
      .trials(trials);
  return spec;
}

Rep run_npb(const campaign::ExperimentSpec& spec, int threads, bool traced) {
  std::vector<double> done;  // wall time of every completed run
  campaign::CampaignOptions o;
  o.threads = threads;
  if (traced) {
    o.on_progress = [&done](const campaign::Progress& p) { done.push_back(p.wall_s); };
  }
  Rep rep;
  campaign::CampaignResult res;
  const double w0 = wall_now(), c0 = cpu_now();
  try {
    res = campaign::CampaignRunner(o).run(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign threw: %s\n", e.what());
    res.total_runs = spec.total_runs();
  }
  rep.wall = wall_now() - w0;
  rep.cpu = cpu_now() - c0;
  rep.threads = res.threads;
  rep.runs = static_cast<int>(res.total_runs);
  rep.failed = res.cells.empty() ? rep.runs : 0;
  for (const auto& c : res.cells) {
    rep.failed += c.failures;
    // Cells keep one representative run; scale its counts by the trials.
    rep.events += static_cast<double>(c.result.events) * c.runs;
    rep.transitions += static_cast<double>(c.result.dvs_transitions) * c.runs;
    rep.messages += static_cast<double>(c.result.messages) * c.runs;
    rep.collisions += static_cast<double>(c.result.net_collisions) * c.runs;
  }
  // The first worker idles once every run has started: at the completion
  // that leaves threads - 1 runs in flight.
  const std::size_t t = static_cast<std::size_t>(std::max(1, rep.threads));
  if (traced && done.size() == res.total_runs && done.size() >= t) {
    rep.tail_s = res.wall_s - done[done.size() - t];
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "fingerprint=%016" PRIx64, res.fingerprint());
  rep.output = buf;
  rep.tsv = res.tsv();
  return rep;
}

void setup_npb(const Sizes& z, std::uint64_t seed) {
  // Input generation (spec, eagerly validated expansion) plus a warm-up
  // campaign of every code at a small scale on the same thread count.
  const auto spec = npb_spec(z.npb_scale, z.npb_trials, seed);
  (void)spec.expand();
  campaign::ExperimentSpec warm;
  core::RunConfig base;
  base.seed = seed;
  base.use_meters = true;
  warm.workloads(apps::all_npb(0.02)).base(base);
  campaign::CampaignOptions o;
  o.threads = kThreads;
  (void)campaign::CampaignRunner(o).run(warm);
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t nl = s.find('\n', start);
    out.push_back(s.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  return out;
}

/// Re-runs a seed-sampled subset of cells on one thread and checks each
/// cell's tsv row against the multi-threaded campaign's.
bool subset_matches(const campaign::ExperimentSpec& spec, const std::string& full_tsv,
                    int cells, std::uint64_t seed, int* runs) {
  std::vector<campaign::CellPlan> plans = spec.expand();
  sim::Rng rng(seed + 0x5eed);
  std::vector<campaign::CellPlan> picked;
  for (int i = 0; i < cells && !plans.empty(); ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(plans.size())));
    const std::size_t at = std::min(k, plans.size() - 1);
    picked.push_back(std::move(plans[at]));
    plans.erase(plans.begin() + static_cast<std::ptrdiff_t>(at));
  }
  campaign::CampaignOptions o;
  o.threads = 1;
  const auto sub = campaign::CampaignRunner(o).run_cells(spec, picked);
  *runs = static_cast<int>(sub.total_runs);
  const auto full = lines_of(full_tsv);
  const auto part = lines_of(sub.tsv());
  if (part.size() != picked.size() + 1) return false;
  for (std::size_t j = 0; j < picked.size(); ++j) {
    const std::size_t row = picked[j].index + 1;
    if (row >= full.size() || full[row] != part[j + 1]) return false;
  }
  return true;
}

// ---- traced extras -----------------------------------------------------------

/// Captures `count` events after dispatch index `begin` on a single engine.
/// The determinism layer also keeps a causal-chain record of every event up
/// to the window's end, so a late window costs memory in proportion to its
/// position, not its size.
std::vector<SliceEvent> capture(const apps::Workload& w, core::RunConfig cfg,
                                std::uint64_t begin, std::uint64_t count) {
  cfg.shards = 1;
  cfg.determinism.capture_begin = begin;
  cfg.determinism.capture_end = begin + count;
  const core::RunResult r = core::run_workload(w, cfg);
  std::vector<SliceEvent> out;
  if (!r.determinism.has_value()) return out;
  out.reserve(r.determinism->events.size());
  for (const auto& e : r.determinism->events) out.push_back({e.seq, e.parent, e.t, e.site});
  return out;
}

struct Slices {
  std::vector<SliceEvent> pre_dvs, dvs;
};

Slices capture_cg(const Sizes& z, std::uint64_t seed) {
  const apps::Workload w = make_cg_shape(z.cg_ranks, z.cg_cycles);
  const core::RunConfig cfg = cg_config(seed, 1);
  return {capture(w, cfg, z.pre_dvs_at, z.slice), capture(w, cfg, z.dvs_at, z.slice)};
}

/// npb_suite: one whole run of the IS cell under CPUSPEED auto (collisions,
/// daemon, meter windows), split at its first DVS transition.
Slices capture_npb(const campaign::ExperimentSpec& spec, std::uint64_t slice) {
  for (const auto& plan : spec.expand()) {
    if (plan.workload_label.rfind("IS", 0) != 0 || plan.labels.front() != "auto") continue;
    const apps::Workload& w = spec.workload_entries()[plan.workload].second;
    const auto all = capture(w, campaign::trial_config(plan.config, 0), 0, ~0ULL >> 1);
    std::size_t first = all.size() / 2;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].site == "cpu.end_transition") {
        first = i;
        break;
      }
    }
    const std::size_t lo = first > slice ? first - slice : 0;
    const std::size_t hi = std::min(all.size(), first + static_cast<std::size_t>(slice));
    return {{all.begin() + static_cast<std::ptrdiff_t>(lo), all.begin() + static_cast<std::ptrdiff_t>(first)},
            {all.begin() + static_cast<std::ptrdiff_t>(first), all.begin() + static_cast<std::ptrdiff_t>(hi)}};
  }
  throw std::logic_error("npb_suite has no IS/auto cell");
}

// ---- output ----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const Args& a, const SpanLog& log,
                 const std::map<std::string, double>& counts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::string out = "{\"workload\": " + json_string(a.workload) +
                    ", \"seed\": " + std::to_string(a.seed) + ", \"spans\": [";
  const auto& spans = log.spans();
  const double origin = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += (i ? ",\n  " : "\n  ");
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " + json_string(s.name) +
           ", \"start_s\": " + json_number(s.start - origin) +
           ", \"end_s\": " + json_number(s.end - origin) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"run\": " + std::to_string(s.run) +
           "}";
  }
  out += "\n], \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : counts) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans_path = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload != "cg4096_dvs" && a.workload != "npb_suite") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  return a;
}

int run(const Args& a) {
  const Sizes z = a.tiny ? Sizes::tiny() : Sizes{};
  const bool npb = a.workload == "npb_suite";
  SpanLog spans;
  const int root = spans.open("perfbench." + a.workload, -1, 0);
  std::map<std::string, double> counts;

  // Set-up: input generation plus warm-up, several times; setup_s is the
  // median.
  std::vector<double> setup_s;
  const campaign::ExperimentSpec spec = npb_spec(z.npb_scale, z.npb_trials, a.seed);
  for (int i = 0; i < z.setups; ++i) {
    const int id = spans.open("setup", root, 0);
    const double t0 = wall_now();
    if (npb) setup_npb(z, a.seed);
    else setup_cg(z, a.seed);
    setup_s.push_back(wall_now() - t0);
    spans.close(id);
  }

  // Timed reps.  Traced mode alternates untraced and traced reps so
  // trace.overhead compares interleaved pairs.
  PostTimer posts;
  std::vector<Rep> plain, traced;
  const double start = wall_now();
  const auto one = [&](bool tr) {
    const int run_id = static_cast<int>(plain.size() + traced.size()) + 1;
    const int id = tr ? spans.open(npb ? "campaign.run" : "core.run_workload.copies", root, run_id) : -1;
    std::vector<Rep>& into = tr ? traced : plain;
    if (npb) {
      into.push_back(run_npb(spec, kThreads, tr));
    } else {
      for (Rep& r : run_cg_copies(z, a.seed, tr ? &posts : nullptr)) into.push_back(std::move(r));
    }
    if (tr) spans.close(id);
  };
  while (static_cast<int>(plain.size()) < z.min_reps || wall_now() - start < a.seconds) {
    one(false);
    if (a.trace) one(true);
    if (plain.size() >= 200) break;
  }

  int attempted = 0, failed = 0;
  std::vector<std::string> outputs;
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.runs;
      failed += r.failed;
      outputs.push_back(r.output);
    }
  }
  std::vector<double> walls, cpus;
  for (const Rep& r : plain) {
    walls.push_back(r.wall);
    cpus.push_back(r.cpu);
  }
  const double wall_s = median(walls), cpu_s = median(cpus);

  std::string subset = "null";
  if (npb) {
    int runs = 0;
    const int id = spans.open("check.subset_one_thread", root, 0);
    const bool ok = subset_matches(spec, plain.front().tsv, z.subset_cells, a.seed, &runs);
    spans.close(id);
    attempted += runs;
    if (!ok) failed += runs;
    subset = ok ? "true" : "false";
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {{"wall_s", wall_s, "s"},
               {"cpu_s", cpu_s, "s"},
               {"setup_s", median(setup_s), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const Rep& t0 = traced.front();
    std::vector<double> twalls;
    for (const Rep& r : traced) twalls.push_back(r.wall);
    const double traced_wall = median(twalls);

    // Single-engine capture slices and their replay.
    int id = spans.open("capture", root, 0);
    const Slices sl = npb ? capture_npb(spec, z.slice) : capture_cg(z, a.seed);
    spans.close(id);
    if (sl.pre_dvs.empty() || sl.dvs.empty()) {
      throw std::logic_error("a capture slice is empty (window past the end of the run?)");
    }
    id = spans.open("replay", root, 0);
    const double replay_pre = replay_ns_per_event(sl.pre_dvs, 5);
    const double replay_dvs = replay_ns_per_event(sl.dvs, 5);
    spans.close(id);
    std::map<std::string, double> sites;
    for (const char* s : kSites) sites[s] = 0;
    sites["unlabelled"] = 0;
    sites["other"] = 0;
    for (const auto* slice : {&sl.pre_dvs, &sl.dvs}) {
      for (const SliceEvent& e : *slice) {
        if (e.site.empty()) ++sites["unlabelled"];
        else if (sites.count(e.site) != 0) ++sites[e.site];
        else ++sites["other"];
      }
    }
    const double window = static_cast<double>(sl.pre_dvs.size() + sl.dvs.size());

    id = spans.open("probes", root, 0);
    const ProbeResults p = run_probes(z.cg_ranks, z.probe_iters, kThreads, spans, id);
    spans.close(id);

    // The shard pair: the CG input on one engine and on kThreads shards,
    // both with the post timer on (mpi.post_ns comes from the first).
    PostTimer pair_posts, sharded_posts;
    id = spans.open("shard.pair", root, 0);
    const Rep single = run_cg(z, a.seed, 1, &pair_posts);
    const Rep sharded = run_cg(z, a.seed, kThreads, &sharded_posts);
    spans.close(id);
    attempted += 2;
    failed += single.failed + sharded.failed;

    // Coverage: isolated self cost x in-run count per layer, over cpu_s.
    // Each probe's own dispatches are subtracted at the replay rate so the
    // engine is counted once, in the sim term.
    const double replay = 0.5 * (replay_pre + replay_dvs);
    const double share = window > 0 ? 1.0 / window : 0;
    const double n_seg = sites["cpu.finish_work"] * share * t0.events;
    const double n_change = (sites["cpu.finish_work"] + sites["cpu.end_transition"]) * share * t0.events;
    const double cpu_self = std::max(0.0, p.cpu_segment_ns - p.cpu_segment_events * replay);
    const double net_self = std::max(0.0, p.net_transfer_ns - p.net_transfer_events * replay);
    const double mpi_self =
        std::max(0.0, p.mpi_p2p_ns - p.mpi_p2p_events * replay - p.mpi_p2p_segments * cpu_self -
                          p.mpi_p2p_transfers * net_self);
    const double accrue = npb ? p.accrue_ns_per_lane_small : p.accrue_ns_per_lane_big;
    const double build_ms = npb ? p.cluster_build_ms_small : p.cluster_build_ms_big;
    const double covered_ns = t0.events * replay + n_seg * cpu_self + t0.messages * net_self +
                              0.5 * t0.messages * mpi_self + n_change * accrue +
                              t0.runs * build_ms * 1e6;

    counts["mpi.posts"] = static_cast<double>(posts.calls.load());
    counts["mpi.post_ns"] = static_cast<double>(posts.ns.load());
    metrics = {
        {"sim.events", t0.events, "count"},
        {"sim.ns_per_event", t0.events > 0 ? cpu_s * 1e9 / t0.events : 0, "ns"},
    };
    for (const auto& [site, n] : sites) metrics.push_back({"sim.site." + site, n, "count"});
    metrics.insert(metrics.end(), {
        {"sim.site.window_events", window, "count"},
        {"sim.replay_ns_per_event.pre_dvs", replay_pre, "ns"},
        {"sim.replay_ns_per_event.dvs", replay_dvs, "ns"},
        {"sim.replay_events.pre_dvs", static_cast<double>(sl.pre_dvs.size()), "count"},
        {"sim.replay_events.dvs", static_cast<double>(sl.dvs.size()), "count"},
        {"cpu.transitions", t0.transitions, "count"},
        {"cpu.segment_ns", p.cpu_segment_ns, "ns"},
        {"power.accrue_ns_per_lane.4096", p.accrue_ns_per_lane_big, "ns"},
        {"power.accrue_ns_per_lane.9", p.accrue_ns_per_lane_small, "ns"},
        {"net.messages", t0.messages, "count"},
        {"net.collisions", t0.collisions, "count"},
        {"net.transfer_ns", p.net_transfer_ns, "ns"},
        {"mpi.p2p_ns", p.mpi_p2p_ns, "ns"},
        {"mpi.alltoall_ns", p.mpi_alltoall_ns, "ns"},
        {"mpi.post_ns", pair_posts.ns_per_call(), "ns"},
        {"mpi.posts", static_cast<double>(pair_posts.calls.load()), "count"},
        {"machine.cluster_build_ms.4096", p.cluster_build_ms_big, "ms"},
        {"machine.cluster_build_ms.9", p.cluster_build_ms_small, "ms"},
        {"core.daemon_ticks", sites["cpuspeed.tick"], "count"},
        {"shard.barrier_us", p.shard_barrier_us, "us"},
        {"shard.cpu_per_wall", sharded.wall > 0 ? sharded.cpu / sharded.wall : 0, "ratio"},
        {"shard.speedup", sharded.wall > 0 ? single.wall / sharded.wall : 0, "ratio"},
        {"shard.wall_s.single", single.wall, "s"},
        {"shard.wall_s.sharded", sharded.wall, "s"},
        {"campaign.runs", static_cast<double>(t0.runs), "count"},
        {"campaign.failures", static_cast<double>(t0.failed), "count"},
        {"campaign.efficiency", wall_s > 0 ? cpu_s / (t0.threads * wall_s) : 0, "ratio"},
        {"campaign.tail_s", t0.tail_s, "s"},
        {"trace.overhead", wall_s > 0 ? traced_wall / wall_s - 1 : 0, "ratio"},
        {"trace.wall_s.traced", traced_wall, "s"},
        {"trace.wall_s.untraced", wall_s, "s"},
        {"trace.coverage", cpu_s > 0 ? covered_ns * 1e-9 / cpu_s : 0, "ratio"},
        {"trace.coverage.cpu_s", cpu_s, "s"},
    });
  }
  spans.close(root);
  if (!a.spans_path.empty()) write_spans(a.spans_path, a, spans, counts);

  std::string out = "{\"build_type\": " + json_string(PCD_BUILD_TYPE) +
                    ", \"workload\": " + json_string(a.workload) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"tiny\": " + (a.tiny ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"subset_equal\": " + subset +
                    ", \"runs_per_output\": " + std::to_string(plain.front().runs) +
                    ", \"outputs\": [";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out += (i ? ", " : "") + json_string(outputs[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
