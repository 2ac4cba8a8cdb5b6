// Fault-injection and resilience tests: unit coverage of the fault hooks on
// Cpu / meters / Network, plus runner-level scenarios for every FaultKind
// and every resilience mechanism (watchdog fallback, daemon restart,
// checkpoint/restart, MPI progress timeout).  Also asserts the two load-
// bearing properties from the design: an inactive plan is bit-identical to
// a run without the fault layer, and a given plan replays deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "cpu/cpu.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/report.hpp"
#include "fault/watchdog.hpp"
#include "machine/cluster.hpp"
#include "machine/node.hpp"
#include "net/network.hpp"
#include "power/meters.hpp"
#include "power/node_power.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "telemetry/export.hpp"

using namespace pcd;
namespace sim = pcd::sim;

namespace {

constexpr double kTinyScale = 0.05;

struct CpuFixture {
  sim::Engine engine;
  cpu::Cpu cpu;
  power::NodePowerModel node;
  CpuFixture()
      : cpu(engine, cpu::OperatingPointTable::pentium_m_1400(),
            [] {
              cpu::CpuConfig c;
              c.transition_min = c.transition_max = sim::from_micros(20);
              return c;
            }(),
            sim::Rng(3)),
        node(engine, cpu, power::NodePowerParams::nemo()) {}
};

sim::Process run_onchip(cpu::Cpu& c, double cycles) {
  co_await c.run_onchip_cycles(cycles);
}

bool report_mentions(const fault::FaultReport& r, const std::string& kind,
                     const std::string& phase) {
  for (const auto& e : r.events) {
    if (e.kind == kind && e.phase == phase) return true;
  }
  return false;
}

}  // namespace

// ---- Cpu fault hooks -------------------------------------------------------

TEST(CpuFaults, StuckDvsDropsWritesAndCounts) {
  CpuFixture f;
  f.cpu.set_dvs_stuck(true);
  f.cpu.set_frequency_mhz(600);
  f.engine.run();
  EXPECT_EQ(f.cpu.frequency_mhz(), 1400);
  EXPECT_EQ(f.cpu.stats().dvs_requests_dropped, 1);
  f.cpu.set_dvs_stuck(false);
  f.cpu.set_frequency_mhz(600);
  f.engine.run();
  EXPECT_EQ(f.cpu.frequency_mhz(), 600);
  EXPECT_EQ(f.cpu.stats().dvs_requests_dropped, 1);
}

TEST(CpuFaults, StragglerEfficiencyScalesComputeTime) {
  const double cycles = 1.4e9;  // 1 s at full speed, full efficiency
  double full_s = 0, throttled_s = 0;
  {
    CpuFixture f;
    sim::spawn(f.engine, run_onchip(f.cpu, cycles));
    f.engine.run();
    full_s = sim::to_seconds(f.engine.now());
  }
  {
    CpuFixture f;
    f.cpu.set_efficiency(0.5);
    sim::spawn(f.engine, run_onchip(f.cpu, cycles));
    f.engine.run();
    throttled_s = sim::to_seconds(f.engine.now());
  }
  EXPECT_NEAR(full_s, 1.0, 1e-9);
  EXPECT_NEAR(throttled_s, 2.0 * full_s, 1e-6);
}

TEST(CpuFaults, PowerOffFreezesWorkAndDrawsNothing) {
  CpuFixture f;
  sim::spawn(f.engine, run_onchip(f.cpu, 1.4e9));  // 1 s of work
  f.engine.schedule_at(sim::from_seconds(0.25), [&] { f.cpu.power_off(); });
  f.engine.run_until(sim::from_seconds(0.5));
  EXPECT_TRUE(f.cpu.offline());
  EXPECT_EQ(f.cpu.state(), cpu::CpuState::Off);
  // An offline node draws nothing: the whole breakdown is zero.
  EXPECT_DOUBLE_EQ(f.node.breakdown().total(), 0.0);
  const double joules_off = f.node.energy_joules();
  f.engine.schedule_at(sim::from_seconds(2.0), [&] { f.cpu.power_on(); });
  f.engine.run_until(sim::from_seconds(2.0));
  // 1.5 s of outage added no energy.
  EXPECT_NEAR(f.node.energy_joules(), joules_off, 1e-9);
  f.engine.run();
  // The interrupted segment resumes and finishes: 0.25 s done before the
  // crash, 0.75 s left after power-on at t=2 -> completion at t=2.75.
  EXPECT_EQ(f.cpu.stats().work_completed, 1);
  EXPECT_NEAR(sim::to_seconds(f.engine.now()), 2.75, 1e-6);
}

TEST(CpuFaults, WritesWhileOfflineAreDropped) {
  CpuFixture f;
  f.cpu.power_off();
  f.cpu.set_frequency_mhz(600);
  EXPECT_EQ(f.cpu.frequency_mhz(), 1400);
  EXPECT_EQ(f.cpu.stats().dvs_requests_dropped, 1);
  f.cpu.power_on();
  EXPECT_EQ(f.cpu.frequency_mhz(), 1400);  // reboots at full speed
}

// ---- ACPI battery: clamp, brown-out, sensor faults -------------------------

namespace {
power::AcpiBatteryParams tiny_battery() {
  power::AcpiBatteryParams p;
  p.capacity_mwh = 10;  // 36 J: drains in a few seconds at idle draw
  p.refresh_min_s = p.refresh_max_s = 1.0;
  return p;
}
}  // namespace

TEST(BatteryFaults, ClampsAtZeroAndBrownsOut) {
  CpuFixture f;
  power::AcpiBattery battery(f.node, tiny_battery(), sim::Rng(11));
  bool browned_out = false;
  battery.set_depleted({[](void* flag) { *static_cast<bool*>(flag) = true; }, &browned_out});
  battery.disconnect_ac();
  battery.start_polling();
  f.engine.run_until(sim::from_seconds(60));
  battery.stop_polling();
  // A pack cannot report negative charge, no matter how long we discharge.
  EXPECT_DOUBLE_EQ(battery.true_remaining_mwh(), 0.0);
  EXPECT_GE(battery.reported_remaining_mwh(), 0.0);
  EXPECT_TRUE(browned_out);
  ASSERT_TRUE(battery.depleted_at().has_value());
  EXPECT_GT(*battery.depleted_at(), 0);
  // recharge_full() re-arms the depletion edge.
  battery.connect_ac();
  battery.recharge_full();
  EXPECT_FALSE(battery.depleted_at().has_value());
  EXPECT_DOUBLE_EQ(battery.true_remaining_mwh(), tiny_battery().capacity_mwh);
}

TEST(BatteryFaults, StaleSensorFreezesReadings) {
  CpuFixture f;
  auto params = tiny_battery();
  params.capacity_mwh = 53000;
  power::AcpiBattery battery(f.node, params, sim::Rng(11));
  battery.disconnect_ac();
  battery.start_polling();
  f.engine.run_until(sim::from_seconds(5));
  const double frozen = battery.reported_remaining_mwh();
  battery.set_sensor_fault(power::SensorFault::Stale);
  f.engine.run_until(sim::from_seconds(15));
  battery.stop_polling();
  EXPECT_DOUBLE_EQ(battery.reported_remaining_mwh(), frozen);
  EXPECT_LT(battery.true_remaining_mwh(), frozen);  // the pack kept draining
}

TEST(BatteryFaults, GarbageSensorReportsNoise) {
  CpuFixture f;
  auto params = tiny_battery();
  params.capacity_mwh = 53000;
  power::AcpiBattery battery(f.node, params, sim::Rng(11));
  // On AC the true level never moves; any change in readings is noise.
  battery.set_sensor_fault(power::SensorFault::Garbage);
  battery.start_polling();
  bool moved = false;
  double prev = battery.reported_remaining_mwh();
  for (int tick = 1; tick <= 5; ++tick) {
    f.engine.run_until(sim::from_seconds(2.0 * tick));
    if (battery.reported_remaining_mwh() != prev) moved = true;
    prev = battery.reported_remaining_mwh();
  }
  battery.stop_polling();
  EXPECT_TRUE(moved);
  EXPECT_DOUBLE_EQ(battery.true_remaining_mwh(), params.capacity_mwh);
}

TEST(BatteryFaults, BaytechDropoutLeavesGapInRecords) {
  CpuFixture f;
  power::BaytechParams params;
  params.window_s = 1.0;
  power::BaytechStrip strip(f.engine, {&f.node}, params);
  strip.start_polling();
  f.engine.run_until(sim::from_seconds(3.5));
  const std::size_t before = strip.records().size();
  EXPECT_EQ(before, 3u);
  strip.set_dropout(true);
  f.engine.run_until(sim::from_seconds(6.5));
  EXPECT_EQ(strip.records().size(), before);  // SNMP silent: no records
  strip.set_dropout(false);
  f.engine.run_until(sim::from_seconds(8.5));
  strip.stop_polling();
  EXPECT_EQ(strip.records().size(), before + 2);
}

// ---- Network fault hooks ---------------------------------------------------

TEST(NetworkFaults, LinkStateIsPerNode) {
  sim::Engine engine;
  net::Network network(engine, 4, net::NetworkParams{}, sim::Rng(5));
  EXPECT_TRUE(network.link_up(0));
  network.set_link_up(0, false);
  EXPECT_FALSE(network.link_up(0));
  EXPECT_TRUE(network.link_up(1));
  network.set_link_up(0, true);
  EXPECT_TRUE(network.link_up(0));
  EXPECT_EQ(network.stats().link_stalls, 0);
}

// ---- Runner integration: zero-cost, replay, every fault kind ---------------

TEST(FaultRunner, InactivePlanIsBitIdentical) {
  // Arming resilience machinery without any injected fault must not perturb
  // the simulation by one bit: the watchdogs and the progress monitor are
  // pure observers, and no fault RNG stream is ever drawn.
  core::RunConfig plain;
  plain.daemon = core::CpuspeedParams{};
  const auto base = core::run_workload(apps::make_cg(kTinyScale), plain);

  core::RunConfig armed = plain;
  armed.faults.resilience.watchdog = true;
  armed.faults.resilience.mpi_timeout_s = 120;
  const auto guarded = core::run_workload(apps::make_cg(kTinyScale), armed);

  EXPECT_DOUBLE_EQ(guarded.delay_s, base.delay_s);
  EXPECT_DOUBLE_EQ(guarded.energy_j, base.energy_j);
  EXPECT_EQ(guarded.dvs_transitions, base.dvs_transitions);
  EXPECT_EQ(guarded.net_collisions, base.net_collisions);
  EXPECT_EQ(guarded.messages, base.messages);
  EXPECT_FALSE(guarded.failed);
  ASSERT_TRUE(guarded.fault_report.has_value());
  EXPECT_EQ(guarded.fault_report->injected, 0);
  EXPECT_EQ(guarded.fault_report->fallbacks, 0);
  EXPECT_FALSE(base.fault_report.has_value());
}

TEST(FaultRunner, FaultPlanReplaysDeterministically) {
  core::RunConfig cfg;
  cfg.seed = 13;
  cfg.daemon = core::CpuspeedParams{};
  cfg.faults.events.push_back(fault::straggler(0.4, 2, 0.6, 1.0));
  cfg.faults.events.push_back(fault::nic_degrade(0.8, 0.5, 0.2, 0.5));
  fault::HazardModel hazard;
  hazard.kind = fault::FaultKind::Straggler;
  hazard.mtbf_s = 1.0;
  hazard.duration_s = 0.3;
  hazard.magnitude = 0.8;
  cfg.faults.hazards.push_back(hazard);
  cfg.faults.horizon_s = 3.0;
  const auto a = core::run_workload(apps::make_cg(kTinyScale), cfg);
  const auto b = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.net_collisions, b.net_collisions);
  ASSERT_TRUE(a.fault_report.has_value());
  ASSERT_TRUE(b.fault_report.has_value());
  EXPECT_GT(a.fault_report->injected, 2);  // hazards actually fired
  EXPECT_EQ(a.fault_report->injected, b.fault_report->injected);
  EXPECT_EQ(a.fault_report->events.size(), b.fault_report->events.size());
  for (std::size_t i = 0; i < a.fault_report->events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fault_report->events[i].t_s, b.fault_report->events[i].t_s);
    EXPECT_EQ(a.fault_report->events[i].kind, b.fault_report->events[i].kind);
    EXPECT_EQ(a.fault_report->events[i].node, b.fault_report->events[i].node);
  }
}

TEST(FaultRunner, StragglerStretchesSynchronousRun) {
  core::RunConfig cfg;
  const auto base = core::run_workload(apps::make_cg(kTinyScale), cfg);
  cfg.faults.events.push_back(fault::straggler(0.2, 0, 0.1));  // permanent
  const auto hit = core::run_workload(apps::make_cg(kTinyScale), cfg);
  // CG synchronizes every iteration, so one throttled node drags everyone.
  EXPECT_GT(hit.delay_s, base.delay_s * 1.3);
  EXPECT_FALSE(hit.failed);
  ASSERT_TRUE(hit.fault_report.has_value());
  EXPECT_EQ(hit.fault_report->injected, 1);
  EXPECT_EQ(hit.fault_report->cleared, 0);
}

TEST(FaultRunner, NicDegradationAddsCollisionsAndDelay) {
  core::RunConfig cfg;
  const auto base = core::run_workload(apps::make_is(0.1), cfg);
  cfg.faults.events.push_back(fault::nic_degrade(0.0, 0.25, 0.3));
  const auto hit = core::run_workload(apps::make_is(0.1), cfg);
  EXPECT_GT(hit.delay_s, base.delay_s);
  EXPECT_GT(hit.net_collisions, base.net_collisions);
  EXPECT_FALSE(hit.failed);
}

TEST(FaultRunner, LinkFlapStallsButCompletes) {
  core::RunConfig cfg;
  const auto base = core::run_workload(apps::make_cg(kTinyScale), cfg);
  cfg.faults.events.push_back(fault::link_flap(0.5, 0, 0.4));
  const auto hit = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(hit.failed);
  EXPECT_GE(hit.delay_s, base.delay_s - 1e-9);
  ASSERT_TRUE(hit.fault_report.has_value());
  EXPECT_TRUE(report_mentions(*hit.fault_report, "link_flap", "injected"));
  EXPECT_TRUE(report_mentions(*hit.fault_report, "link_flap", "cleared"));
}

// ---- Watchdog: stuck-DVS fallback and wedged-daemon restart ----------------

TEST(FaultRunner, WatchdogFallbackPreservesPerformanceConstraint) {
  const double scale = 0.15;
  core::RunConfig plain;
  const auto base = core::run_workload(apps::make_cg(scale), plain);

  // CPUSPEED daemon everywhere; at t=0.3 s every DVS driver wedges for 1 s.
  core::RunConfig stuck;
  stuck.daemon = core::CpuspeedParams{};
  std::get<core::CpuspeedParams>(*stuck.daemon).interval_s = 0.2;
  for (int n = 0; n < 8; ++n) {
    stuck.faults.events.push_back(fault::stuck_dvs(0.3, n, 1.0));
  }
  const auto unguarded = core::run_workload(apps::make_cg(scale), stuck);

  core::RunConfig guarded_cfg = stuck;
  guarded_cfg.telemetry.enabled = true;
  guarded_cfg.faults.resilience.watchdog = true;
  guarded_cfg.faults.resilience.watchdog_params.check_interval_s = 0.25;
  guarded_cfg.faults.resilience.watchdog_params.stuck_checks_before_fallback = 2;
  const auto guarded = core::run_workload(apps::make_cg(scale), guarded_cfg);

  // Without the watchdog, the daemon keeps issuing lost writes and the run
  // blows the baseline by far more than the paper's constraint.
  EXPECT_GT(unguarded.delay_s, base.delay_s * 1.05);
  // With it, every node degrades gracefully to full speed: delay lands
  // within 5% of the no-DVS baseline.  (Only the energy saving is lost.)
  EXPECT_FALSE(guarded.failed);
  EXPECT_LT(guarded.delay_s, base.delay_s * 1.05);

  ASSERT_TRUE(guarded.fault_report.has_value());
  const auto& report = *guarded.fault_report;
  EXPECT_EQ(report.injected, 8);
  EXPECT_GE(report.detections, 8);
  EXPECT_EQ(report.fallbacks, 8);
  EXPECT_GT(report.dvs_requests_dropped, 0);
  EXPECT_TRUE(report_mentions(report, "stuck_dvs", "detected"));
  EXPECT_TRUE(report_mentions(report, "fallback", "recovered"));

  // The full inject -> detect -> recover chain lands in telemetry too.
  ASSERT_TRUE(guarded.telemetry.has_value());
  EXPECT_FALSE(guarded.telemetry->faults.empty());
  bool fallback_decision = false;
  for (const auto& d : guarded.telemetry->decisions) {
    if (d.cause == telemetry::DvsCause::Fallback) fallback_decision = true;
  }
  EXPECT_TRUE(fallback_decision);
  const std::string csv = telemetry::faults_csv(*guarded.telemetry);
  EXPECT_NE(csv.find("stuck_dvs"), std::string::npos);
  EXPECT_NE(csv.find("recovered"), std::string::npos);
  EXPECT_NE(guarded.telemetry->chrome_trace_json.find("\"cat\":\"fault\""),
            std::string::npos);
}

TEST(FaultRunner, WatchdogFallbackDumpsTheFlightRecorder) {
  // Same stuck-DVS scenario as above, with the determinism flight recorder
  // armed: every watchdog fallback must attach a black-box dump carrying
  // the last causal steps plus the registered state snapshots.
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams{};
  std::get<core::CpuspeedParams>(*cfg.daemon).interval_s = 0.2;
  for (int n = 0; n < 8; ++n) {
    cfg.faults.events.push_back(fault::stuck_dvs(0.3, n, 1.0));
  }
  cfg.faults.resilience.watchdog = true;
  cfg.faults.resilience.watchdog_params.check_interval_s = 0.25;
  cfg.faults.resilience.watchdog_params.stuck_checks_before_fallback = 2;
  cfg.determinism.flight_recorder = true;
  cfg.determinism.recorder_entries = 256;
  const auto r = core::run_workload(apps::make_cg(0.15), cfg);

  ASSERT_TRUE(r.fault_report.has_value());
  EXPECT_EQ(r.fault_report->fallbacks, 8);
  ASSERT_EQ(r.fault_report->flight_recordings.size(), 8u);
  const std::string& dump = r.fault_report->flight_recordings.front();
  EXPECT_NE(dump.find("watchdog fallback (node"), std::string::npos);
  EXPECT_NE(dump.find("\"events\":["), std::string::npos);
  EXPECT_NE(dump.find("\"site\":\""), std::string::npos);
  EXPECT_NE(dump.find("\"rng_draws\""), std::string::npos);
  EXPECT_NE(dump.find("\"engine\""), std::string::npos);
}

TEST(FaultRunner, WatchdogRestartsWedgedDaemon) {
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams{};
  std::get<core::CpuspeedParams>(*cfg.daemon).interval_s = 0.2;
  cfg.faults.events.push_back(fault::daemon_wedge(0.4, 0));
  cfg.faults.resilience.watchdog = true;
  cfg.faults.resilience.watchdog_params.check_interval_s = 0.25;
  const auto result = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(result.failed);
  ASSERT_TRUE(result.fault_report.has_value());
  EXPECT_GE(result.fault_report->daemon_restarts, 1);
  EXPECT_TRUE(report_mentions(*result.fault_report, "daemon_wedge", "detected"));
  EXPECT_TRUE(report_mentions(*result.fault_report, "daemon_wedge", "recovered"));
}

TEST(FaultRunner, WatchdogBackoffAccountingIsCumulativeAtGiveUp) {
  // Regression for the restart-backoff ledger: a daemon that never comes
  // back exhausts max_restarts with intervals b, 2b, 4b, so the report must
  // carry b*(2^N - 1) — the backoff actually waited — not the next doubled
  // interval the watchdog would have scheduled.
  sim::Engine engine;
  machine::Node node(engine, 0, machine::NodeConfig{}, sim::Rng(5));
  fault::WatchdogParams params;  // defaults: backoff 0.5 s, max_restarts 3
  params.check_interval_s = 0.25;
  fault::FaultReport report;
  fault::DaemonHooks hooks;
  int restart_calls = 0;
  hooks.polls = [] { return std::int64_t{7}; };  // frozen forever
  hooks.restart = [&] { ++restart_calls; };      // no-op: stays wedged
  hooks.expected_poll_interval_s = 0.25;
  fault::DaemonWatchdog dog(engine, node, params, hooks, &report);
  dog.start();
  engine.run_until(sim::from_seconds(30));
  dog.stop();

  EXPECT_EQ(restart_calls, 3);
  EXPECT_EQ(dog.restarts(), 3);
  EXPECT_DOUBLE_EQ(dog.backoff_total_s(), 0.5 + 1.0 + 2.0);
  EXPECT_EQ(report.daemon_restarts, 3);
  EXPECT_DOUBLE_EQ(report.daemon_backoff_s, 3.5);
  EXPECT_TRUE(dog.in_fallback());
  bool gave_up = false;
  for (const auto& e : report.events) {
    if (e.detail.find("cumulative backoff") != std::string::npos) {
      EXPECT_NE(e.detail.find("3 restarts"), std::string::npos);
      EXPECT_NE(e.detail.find("3.50 s"), std::string::npos);
      gave_up = true;
    }
  }
  EXPECT_TRUE(gave_up);
}

// ---- Hazard and event-timing edge cases ------------------------------------

TEST(FaultHazards, NonPositiveMtbfIsAStructuredConfigIssue) {
  core::RunConfig cfg;
  fault::HazardModel h;
  h.mtbf_s = 0;
  cfg.faults.hazards.push_back(h);
  auto issues = cfg.validate();
  ASSERT_FALSE(issues.empty());
  bool flagged = false;
  for (const auto& i : issues) {
    if (i.field == "faults.hazards") flagged = true;
  }
  EXPECT_TRUE(flagged);
  cfg.faults.hazards[0].mtbf_s = -5;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(FaultHazards, HandArmedInjectorSkipsDegenerateMtbfWithoutSpinning) {
  // A hazard that slips past validation (hand-armed injector) must neither
  // inject anything nor loop forever sampling zero-length inter-arrivals.
  sim::Engine engine;
  machine::ClusterConfig cluster_cfg;
  cluster_cfg.nodes = 2;
  machine::Cluster cluster(engine, cluster_cfg);
  fault::FaultPlan plan;
  fault::HazardModel h;
  h.mtbf_s = 0;
  h.kind = fault::FaultKind::Straggler;
  plan.hazards.push_back(h);
  fault::FaultReport report;
  fault::FaultInjector injector(engine, cluster, plan, sim::Rng(9), &report);
  injector.arm();  // must return, not spin
  engine.run();
  injector.finalize();
  EXPECT_EQ(report.injected, 0);
}

TEST(FaultRunner, FaultScheduledBeyondRunEndNeverFires) {
  core::RunConfig cfg;
  cfg.faults.events.push_back(fault::node_crash(1e6, 0));  // far past run end
  const auto result = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(result.failed);
  ASSERT_TRUE(result.fault_report.has_value());
  EXPECT_EQ(result.fault_report->injected, 0);
  EXPECT_FALSE(result.fault_report->run_failed);

  // And the armed-but-silent plan is still deterministic: replay is
  // bit-identical.
  const auto replay = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_DOUBLE_EQ(result.delay_s, replay.delay_s);
  EXPECT_DOUBLE_EQ(result.energy_j, replay.energy_j);
}

TEST(FaultRunner, OverlappingCrashAndStragglerReplayDeterministically) {
  // Two faults live on the same node at once — a throttled CPU that then
  // loses power mid-outage — under checkpoint/restart.  The combination
  // must survive and replay bit-identically.
  core::RunConfig cfg;
  cfg.faults.events.push_back(fault::straggler(0.3, 0, 0.5, /*duration_s=*/2.0));
  cfg.faults.events.push_back(fault::node_crash(0.6, 0, /*boot_delay_s=*/0.4));
  cfg.faults.resilience.checkpoint_interval_s = 0.25;
  cfg.faults.resilience.checkpoint_cost_s = 0.02;
  const auto a = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(a.failed);
  ASSERT_TRUE(a.fault_report.has_value());
  EXPECT_EQ(a.fault_report->injected, 2);
  EXPECT_EQ(a.fault_report->node_reboots, 1);
  const auto b = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.dvs_transitions, b.dvs_transitions);
}

TEST(FaultRunner, RebootRacingATimedFaultClearIsDeterministic) {
  // A stuck-DVS window (0.4 s .. 1.0 s) straddles the crash at 0.5 s and
  // clears while the node is still dark (reboot lands ~0.9 s + redo).  The
  // clear must not resurrect state on the downed node, and the interleaving
  // replays bit-identically.
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams{};
  cfg.faults.events.push_back(fault::stuck_dvs(0.4, 0, /*duration_s=*/0.6));
  cfg.faults.events.push_back(fault::node_crash(0.5, 0, /*boot_delay_s=*/0.4));
  cfg.faults.resilience.checkpoint_interval_s = 0.25;
  cfg.faults.resilience.checkpoint_cost_s = 0.02;
  const auto a = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(a.failed);
  ASSERT_TRUE(a.fault_report.has_value());
  EXPECT_EQ(a.fault_report->node_reboots, 1);
  EXPECT_TRUE(report_mentions(*a.fault_report, "node_crash", "recovered"));
  const auto b = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.net_collisions, b.net_collisions);
}

// ---- Node crash: structured failure vs. checkpoint/restart -----------------

TEST(FaultRunner, CrashWithoutCheckpointFailsStructurally) {
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams{};
  cfg.faults.events.push_back(fault::node_crash(0.5, 0));
  cfg.faults.resilience.mpi_timeout_s = 5;
  const auto result = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.failure.empty());
  ASSERT_TRUE(result.fault_report.has_value());
  EXPECT_TRUE(result.fault_report->run_failed);
  EXPECT_EQ(result.fault_report->node_reboots, 0);
  EXPECT_GT(result.fault_report->node_downtime_s, 0);
  EXPECT_TRUE(report_mentions(*result.fault_report, "node_crash", "injected"));
}

TEST(FaultRunner, CheckpointRestartSurvivesCrash) {
  core::RunConfig cfg;
  cfg.faults.events.push_back(fault::node_crash(0.6, 0, /*boot_delay_s=*/0.5));
  cfg.faults.resilience.checkpoint_interval_s = 0.5;
  cfg.faults.resilience.checkpoint_cost_s = 0.05;
  const auto result = core::run_workload(apps::make_cg(kTinyScale), cfg);
  EXPECT_FALSE(result.failed);
  ASSERT_TRUE(result.fault_report.has_value());
  const auto& report = *result.fault_report;
  EXPECT_EQ(report.node_reboots, 1);
  EXPECT_GE(report.checkpoints, 1);
  EXPECT_GT(report.node_downtime_s, 0);
  EXPECT_GT(report.checkpoint_stall_s, 0);
  EXPECT_TRUE(report_mentions(report, "node_crash", "recovered"));

  // The run pays for the outage: slower than the undisturbed baseline.
  core::RunConfig plain;
  const auto base = core::run_workload(apps::make_cg(kTinyScale), plain);
  EXPECT_GT(result.delay_s, base.delay_s);
}

TEST(FaultRunner, BatteryExhaustionTakesNodeDown) {
  // Long enough to cross the first ACPI refresh (15-20 s) after the cell
  // failure empties the pack; the brown-out then stalls rank 0 until the
  // MPI progress watchdog declares the run dead.
  core::RunConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.daemon = core::CpuspeedParams{};
  cfg.faults.events.push_back(fault::battery_fail(1.0, 0, 0.0));
  cfg.faults.resilience.mpi_timeout_s = 10;
  const auto result = core::run_workload(apps::make_cg(0.5), cfg);
  EXPECT_TRUE(result.failed);
  ASSERT_TRUE(result.fault_report.has_value());
  EXPECT_TRUE(report_mentions(*result.fault_report, "battery_fail", "injected"));
  ASSERT_TRUE(result.telemetry.has_value());
  bool browned_out = false;
  for (const auto& e : result.telemetry->faults) {
    if (e.kind == "battery_depleted") browned_out = true;
  }
  EXPECT_TRUE(browned_out);
}

// ---- Report rendering ------------------------------------------------------

TEST(FaultReport, SummaryRendersCountersAndEvents) {
  fault::FaultReport report;
  report.record(1.5, 3, "stuck_dvs", "injected", "pinned at 600 MHz");
  report.record(2.5, 3, "stuck_dvs", "detected", "writes lost");
  report.fallbacks = 1;
  report.run_failed = true;
  report.failure = "boom";
  const std::string s = report.summary();
  EXPECT_NE(s.find("1 injected"), std::string::npos);
  EXPECT_NE(s.find("1 detected"), std::string::npos);
  EXPECT_NE(s.find("stuck_dvs"), std::string::npos);
  EXPECT_NE(s.find("RUN FAILED: boom"), std::string::npos);
  EXPECT_EQ(report.injected, 1);
  EXPECT_EQ(report.detections, 1);
}

TEST(FaultPlanApi, KindNamesAndActivation) {
  EXPECT_STREQ(fault::to_string(fault::FaultKind::NodeCrash), "node_crash");
  EXPECT_STREQ(fault::to_string(fault::FaultKind::SensorDropout), "sensor_dropout");
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.injects());
  EXPECT_FALSE(plan.active());
  plan.resilience.watchdog = true;
  EXPECT_FALSE(plan.injects());
  EXPECT_TRUE(plan.active());
  plan.events.push_back(fault::stuck_dvs(1.0, 0));
  EXPECT_TRUE(plan.injects());
}
