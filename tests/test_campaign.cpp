// Campaign engine tests: spec expansion, builder/spec validation, the
// work-stealing pool, thread-count determinism (the tentpole property),
// median aggregation (including the even-trial-count and tie-breaking
// regression), failure capture, and progress/telemetry feeds.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "apps/npb.hpp"
#include "campaign/pool.hpp"
#include "campaign/runner.hpp"
#include "campaign/sweeps.hpp"
#include "core/daemon.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "fault/plan.hpp"
#include "telemetry/metrics.hpp"

using namespace pcd;

namespace {

constexpr double kTinyScale = 0.05;

// A workload whose rank 0 throws before doing any work.
apps::Workload throwing_workload() {
  apps::Workload w;
  w.name = "THROW";
  w.ranks = 2;
  w.make_rank = [](apps::AppContext& ctx, int rank) -> sim::Process {
    if (rank == 0) throw std::runtime_error("rank 0 exploded");
    return [](apps::AppContext&) -> sim::Process { co_return; }(ctx);
  };
  return w;
}

campaign::ExperimentSpec tiny_spec(int trials = 2) {
  campaign::ExperimentSpec spec;
  spec.workload(apps::make_cg(kTinyScale))
      .workload(apps::make_ep(kTinyScale))
      .axis(campaign::Axis::static_mhz({600, 1400}))
      .trials(trials);
  return spec;
}

}  // namespace

// --- Spec expansion ---------------------------------------------------------

TEST(Spec, CartesianExpansionIsRowMajor) {
  auto spec = tiny_spec(3);
  spec.axis(campaign::Axis::strategies(
      "mode", {{"plain", nullptr},
               {"daemon", [](core::RunConfig& c) {
                  c.daemon = core::CpuspeedParams::v1_2_1();
                }}}));
  EXPECT_EQ(spec.cells(), 2u * 2u * 2u);
  EXPECT_EQ(spec.total_runs(), 8u * 3u);

  const auto plans = spec.expand();
  ASSERT_EQ(plans.size(), 8u);
  // Workload outermost, last axis innermost.
  EXPECT_EQ(plans[0].workload_label, plans[3].workload_label);
  EXPECT_NE(plans[0].workload_label, plans[4].workload_label);
  EXPECT_EQ(plans[0].labels, (std::vector<std::string>{"600", "plain"}));
  EXPECT_EQ(plans[1].labels, (std::vector<std::string>{"600", "daemon"}));
  EXPECT_EQ(plans[2].labels, (std::vector<std::string>{"1400", "plain"}));
  EXPECT_EQ(plans[0].config.static_mhz, 600);
  EXPECT_EQ(plans[2].config.static_mhz, 1400);
  EXPECT_TRUE(plans[1].config.daemon.has_value());
  EXPECT_FALSE(plans[0].config.daemon.has_value());
  for (std::size_t i = 0; i < plans.size(); ++i) EXPECT_EQ(plans[i].index, i);
}

TEST(Spec, TrialSeedsFollowHistoricalRule) {
  core::RunConfig cfg;
  cfg.seed = 11;
  EXPECT_EQ(campaign::trial_config(cfg, 0).seed, 11u);
  EXPECT_EQ(campaign::trial_config(cfg, 2).seed, 11u + 2u * 7919u);
}

TEST(Spec, RejectsEmptyAndInvalidShapes) {
  campaign::ExperimentSpec empty;
  EXPECT_THROW(empty.expand(), campaign::SpecError);

  auto no_trials = tiny_spec(0);
  EXPECT_THROW(no_trials.expand(), campaign::SpecError);

  campaign::ExperimentSpec empty_axis;
  empty_axis.workload(apps::make_ep(kTinyScale)).axis(campaign::Axis{"hollow", {}});
  EXPECT_THROW(empty_axis.expand(), campaign::SpecError);
}

TEST(Spec, EagerlyValidatesEveryCellAndNamesTheBadOne) {
  campaign::ExperimentSpec spec;
  spec.workload(apps::make_ep(kTinyScale))
      .axis(campaign::Axis::strategies(
          "mode", {{"ok", nullptr},
                   {"stalled predictor", [](core::RunConfig& c) {
                      core::PhasePredictorParams p;
                      p.interval_s = 0;
                      c.daemon = p;
                    }}}));
  try {
    spec.expand();
    FAIL() << "expected SpecError";
  } catch (const campaign::SpecError& e) {
    ASSERT_FALSE(e.issues().empty());
    EXPECT_NE(std::string(e.what()).find("stalled predictor"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("daemon"), std::string::npos);
  }
}

// --- RunConfig validation ---------------------------------------------------

TEST(Validate, ZeroDaemonIntervalIsStructuredErrorForBothPolicies) {
  core::CpuspeedParams cpuspeed = core::CpuspeedParams::v1_2_1();
  cpuspeed.interval_s = 0;
  core::PhasePredictorParams predictor;
  predictor.interval_s = 0;
  for (const core::DaemonParams& daemon :
       {core::DaemonParams(cpuspeed), core::DaemonParams(predictor)}) {
    core::RunConfig cfg;
    cfg.daemon = daemon;
    const auto issues = cfg.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues.front().field, "daemon.interval_s");
    EXPECT_THROW(core::run_workload(apps::make_ep(kTinyScale), cfg),
                 std::invalid_argument);
  }
}

TEST(Validate, DegenerateTimerPeriodsAreStructuredErrors) {
  // Periods that are not finite, round to under 1 ns, or overflow the
  // engine's int64 nanoseconds: one issue per field, raised before the
  // cluster is built (not the engine's bare schedule_every error).
  const double bad[] = {0.0, -1.0, 1e-12, 4e-10, std::nan(""), INFINITY, -INFINITY, 1e300};
  for (const double period : bad) {
    core::CpuspeedParams cpuspeed = core::CpuspeedParams::v1_2_1();
    cpuspeed.interval_s = period;
    core::RunConfig cfg;
    cfg.daemon = cpuspeed;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sampler.period_s = period;
    const auto issues = cfg.validate();
    ASSERT_EQ(issues.size(), 2u) << period;
    EXPECT_EQ(issues[0].field, "daemon.interval_s");
    EXPECT_EQ(issues[1].field, "telemetry.sampler.period_s");
    EXPECT_NE(issues[0].message.find("at least 1 ns"), std::string::npos);
    try {
      core::run_workload(apps::make_ep(kTinyScale), cfg);
      ADD_FAILURE() << "period " << period << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid RunConfig"), std::string::npos)
          << e.what();
    }
  }
  // The smallest period the engine can run is accepted; a sampler that
  // never runs is not checked.
  core::CpuspeedParams cpuspeed = core::CpuspeedParams::v1_2_1();
  cpuspeed.interval_s = 1e-9;
  core::RunConfig cfg;
  cfg.daemon = cpuspeed;
  cfg.telemetry.sampler.period_s = 0;
  EXPECT_TRUE(cfg.validate().empty()) << core::describe(cfg.validate());
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample = false;
  EXPECT_TRUE(cfg.validate().empty()) << core::describe(cfg.validate());
}

TEST(Validate, NegativeSliceAndFrequencyAreCaught) {
  core::RunConfig cfg;
  cfg.slice_s = -0.5;
  cfg.static_mhz = -600;
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 2u);
  EXPECT_THROW(core::run_workload(apps::make_ep(kTinyScale), cfg),
               std::invalid_argument);
}

// --- Cancellation -----------------------------------------------------------

namespace {

constexpr int kCancelTickBound = 1'000'000;

// Raises `flag` one simulated tick into the run, then keeps the engine busy
// with up to kCancelTickBound further ticks, counting them in `ticks`.
sim::Process cancel_after_first_tick(std::atomic<bool>* flag, int* ticks) {
  co_await sim::delay(sim::kMillisecond);
  flag->store(true, std::memory_order_relaxed);
  for (; *ticks < kCancelTickBound; ++*ticks) co_await sim::delay(sim::kMillisecond);
}

}  // namespace

// A cancel raised while the run is under way (here from inside the
// simulation, so the instant is deterministic) aborts the run at the next
// event-batch boundary with a structured failure, long before the rank
// would have finished.
TEST(Cancel, RaisedMidRunAbortsAtTheNextBatch) {
  std::atomic<bool> flag{false};
  int ticks = 0;
  apps::Workload w;
  w.name = "CANCEL";
  w.ranks = 1;
  w.make_rank = [&flag, &ticks](apps::AppContext&, int) -> sim::Process {
    return cancel_after_first_tick(&flag, &ticks);
  };
  core::RunConfig cfg;
  cfg.cancel = &flag;
  const auto r = core::run_workload(w, cfg);
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("run cancelled"), std::string::npos) << r.failure;
  EXPECT_GT(ticks, 0);
  EXPECT_LT(ticks, kCancelTickBound);
}

// --- Pool -------------------------------------------------------------------

TEST(Pool, EffectiveThreadsClampsToItems) {
  EXPECT_EQ(campaign::effective_threads(8, 3), 3);
  EXPECT_EQ(campaign::effective_threads(2, 100), 2);
  EXPECT_EQ(campaign::effective_threads(1, 100), 1);
  EXPECT_GE(campaign::effective_threads(0, 100), 1);
  EXPECT_EQ(campaign::effective_threads(4, 0), 1);
}

TEST(Pool, RunsEveryItemExactlyOnce) {
  constexpr std::size_t kItems = 500;
  std::vector<std::atomic<int>> hits(kItems);
  campaign::run_indexed(kItems, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Pool, RethrowsFirstExceptionByIndexButFinishesAllItems) {
  constexpr std::size_t kItems = 64;
  std::vector<std::atomic<int>> hits(kItems);
  try {
    campaign::run_indexed(kItems, 4, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 50 || i == 9) throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 9");
  }
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// --- Determinism across thread counts (the tentpole property) ---------------

TEST(Campaign, SerialAndParallelTablesAreByteIdentical) {
  const auto spec = tiny_spec(2);
  campaign::CampaignOptions serial{.threads = 1, .on_progress = {}};
  campaign::CampaignOptions parallel{.threads = 8, .on_progress = {}};
  const auto a = campaign::CampaignRunner(serial).run(spec);
  const auto b = campaign::CampaignRunner(parallel).run(spec);
  EXPECT_EQ(a.tsv(), b.tsv());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, campaign::effective_threads(8, spec.total_runs()));
}

TEST(Campaign, DeterministicUnderArmedFaultPlan) {
  core::RunConfig base;
  base.daemon = core::CpuspeedParams::v1_2_1();
  fault::HazardModel hazard;
  hazard.kind = fault::FaultKind::Straggler;
  hazard.mtbf_s = 2.0;
  hazard.duration_s = 0.5;
  hazard.magnitude = 0.5;
  base.faults.hazards.push_back(hazard);
  base.faults.horizon_s = 30;
  base.faults.resilience.watchdog = true;

  campaign::ExperimentSpec spec;
  spec.workload(apps::make_cg(kTinyScale))
      .base(base)
      .axis(campaign::Axis::seeds({1, 2, 3}))
      .trials(2);
  const auto a = campaign::run_campaign(spec, {.threads = 1, .on_progress = {}});
  const auto b = campaign::run_campaign(spec, {.threads = 8, .on_progress = {}});
  EXPECT_EQ(a.tsv(), b.tsv());
}

// --- Aggregation ------------------------------------------------------------

TEST(Aggregation, OddTrialsMatchClassicMedianOfRuns) {
  auto cg = apps::make_cg(kTinyScale);
  core::RunConfig cfg;
  cfg.seed = 5;

  std::vector<double> delays;
  for (int t = 0; t < 3; ++t) {
    delays.push_back(core::run_workload(cg, campaign::trial_config(cfg, t)).delay_s);
  }
  std::sort(delays.begin(), delays.end());

  const auto med = campaign::run_trials(cg, cfg, 3);
  EXPECT_DOUBLE_EQ(med.delay_s, delays[1]);
}

TEST(Aggregation, EvenTrialsAverageTheMiddlePairRegression) {
  // The historical run_trials picked runs[n/2] after sorting — wrong for
  // even n, and its secondary fields came from an unrelated run.  The
  // campaign reduction averages the middle pair and keeps every secondary
  // field from one well-defined representative trial.
  auto cg = apps::make_cg(kTinyScale);
  core::RunConfig cfg;
  cfg.seed = 9;

  std::vector<core::RunResult> runs;
  for (int t = 0; t < 4; ++t) {
    runs.push_back(core::run_workload(cg, campaign::trial_config(cfg, t)));
  }
  std::vector<double> delays, energies;
  for (const auto& r : runs) {
    delays.push_back(r.delay_s);
    energies.push_back(r.energy_j);
  }
  std::sort(delays.begin(), delays.end());
  std::sort(energies.begin(), energies.end());

  const auto med = campaign::run_trials(cg, cfg, 4);
  EXPECT_DOUBLE_EQ(med.delay_s, (delays[1] + delays[2]) / 2);
  EXPECT_DOUBLE_EQ(med.energy_j, (energies[1] + energies[2]) / 2);

  // The representative trial is a real run: secondary fields must all come
  // from the same trial instead of mixing sources.
  bool consistent = false;
  for (const auto& r : runs) {
    consistent |= (r.net_collisions == med.net_collisions &&
                   r.dvs_transitions == med.dvs_transitions &&
                   r.messages == med.messages);
  }
  EXPECT_TRUE(consistent);
}

TEST(Aggregation, TwoTrialTiesResolveToLowestIndex) {
  // With two trials both delays are equidistant from their midpoint, and so
  // are the energies — the documented tie-break lands on trial 0.
  campaign::TrialRecord a, b;
  a.result.delay_s = 1.0;
  a.result.energy_j = 10.0;
  a.result.net_collisions = 111;
  b.result.delay_s = 3.0;
  b.result.energy_j = 30.0;
  b.result.net_collisions = 222;
  const auto cell = campaign::aggregate_cell({a, b});
  EXPECT_DOUBLE_EQ(cell.result.delay_s, 2.0);
  EXPECT_DOUBLE_EQ(cell.result.energy_j, 20.0);
  EXPECT_EQ(cell.result.net_collisions, 111);
  EXPECT_EQ(cell.delay.q1, 1.0);
  EXPECT_EQ(cell.delay.q3, 3.0);
}

TEST(Aggregation, SummaryQuartilesUseTukeyHinges) {
  const auto s = campaign::Summary::of({5, 1, 3, 2, 4});  // 1 2 3 4 5
  EXPECT_DOUBLE_EQ(s.median, 3);
  // Inclusive hinges: lower half {1,2,3}, upper half {3,4,5}.
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.n, 5);
}

TEST(Aggregation, SingleTrialCampaignEqualsDirectRun) {
  auto ep = apps::make_ep(kTinyScale);
  core::RunConfig cfg;
  cfg.seed = 21;
  const auto direct = core::run_workload(ep, cfg);
  const auto via_campaign = campaign::run_trials(ep, cfg, 1);
  EXPECT_DOUBLE_EQ(direct.delay_s, via_campaign.delay_s);
  EXPECT_DOUBLE_EQ(direct.energy_j, via_campaign.energy_j);
}

// --- Sweeps as campaigns ----------------------------------------------------

TEST(Sweeps, SweepStaticNormalizesAgainstHighestFrequency) {
  auto sweep = campaign::sweep_static(apps::make_cg(kTinyScale), core::RunConfig{},
                                      {600, 1400});
  const auto c = sweep.normalized();
  EXPECT_DOUBLE_EQ(c.at(1400).delay, 1.0);
  EXPECT_GT(c.at(600).delay, 1.0);
  EXPECT_LT(c.at(600).energy, 1.0);
}

TEST(Sweeps, SweepOfRebuildsPerWorkloadCrescendo) {
  auto spec = tiny_spec(1);
  const auto result = campaign::run_campaign(spec, {.threads = 1, .on_progress = {}});
  const auto& label = spec.workload_entries().front().first;
  const auto sweep = campaign::sweep_of(result, label);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.points.front().freq_mhz, 600);
  EXPECT_EQ(sweep.points.back().freq_mhz, 1400);
  EXPECT_EQ(sweep.base_mhz, 1400);
}

// --- Failure capture and observability --------------------------------------

TEST(Campaign, CapturesThrowingTrialsWithoutAbortingTheMatrix) {
  campaign::ExperimentSpec spec;
  spec.workload(throwing_workload())
      .workload(apps::make_ep(kTinyScale))
      .trials(2);
  const auto result = campaign::run_campaign(spec, {.threads = 4, .on_progress = {}});

  const auto* bad = result.find("THROW");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->runs, 2);
  EXPECT_EQ(bad->failures, 2);
  EXPECT_EQ(bad->thrown, 2);
  EXPECT_TRUE(bad->result.failed);
  EXPECT_NE(bad->first_exception.find("rank 0 exploded"), std::string::npos);

  // The healthy workload still completed.
  const auto* good = result.find(apps::make_ep(kTinyScale).name);
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->failures, 0);
  EXPECT_GT(good->result.delay_s, 0);
}

TEST(Campaign, RunTrialsRethrowsWhenAnyTrialThrew) {
  EXPECT_THROW(campaign::run_trials(throwing_workload(), core::RunConfig{}, 2),
               std::runtime_error);
}

TEST(Campaign, ProgressCallbackSeesEveryRunAndFeedsTelemetry) {
  telemetry::MetricsRegistry metrics;
  std::mutex mu;
  std::vector<campaign::Progress> seen;
  campaign::CampaignOptions opts;
  opts.threads = 4;
  opts.metrics = &metrics;
  opts.on_progress = [&](const campaign::Progress& p) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(p);
  };

  const auto spec = tiny_spec(2);
  const auto result = campaign::CampaignRunner(opts).run(spec);
  ASSERT_EQ(seen.size(), spec.total_runs());
  std::set<std::size_t> completed;
  for (const auto& p : seen) {
    EXPECT_EQ(p.total, spec.total_runs());
    EXPECT_FALSE(p.cell.empty());
    completed.insert(p.completed);
  }
  // `completed` is monotone under the progress lock: every value 1..N seen.
  EXPECT_EQ(completed.size(), spec.total_runs());
  EXPECT_EQ(*completed.rbegin(), spec.total_runs());
  EXPECT_DOUBLE_EQ(metrics.counter("campaign_runs_total").value(),
                   static_cast<double>(spec.total_runs()));
  EXPECT_DOUBLE_EQ(metrics.counter("campaign_failures_total").value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("campaign_runs_in_flight").value(), 0.0);
  EXPECT_GT(result.wall_s, 0);
}

// --- Result lookups ---------------------------------------------------------

TEST(Result, FindAndNormalizedTo) {
  const auto spec = tiny_spec(1);
  const auto result = campaign::run_campaign(spec, {.threads = 2, .on_progress = {}});
  const auto& cg = spec.workload_entries().front().first;

  const auto* slow = result.find(cg, {"600"});
  const auto* fast = result.find(cg, {"1400"});
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(result.find(cg, {"9999"}), nullptr);
  EXPECT_EQ(result.find("NOPE"), nullptr);

  const auto ed = slow->normalized_to(*fast);
  EXPECT_GT(ed.delay, 1.0);
  EXPECT_LT(ed.energy, 1.0);

  EXPECT_EQ(result.select(cg).size(), 2u);
  EXPECT_NE(result.tsv().find("600"), std::string::npos);
  EXPECT_FALSE(result.table().empty());
}
