// Unit tests for the CPUSPEED daemon against synthetic utilization loads.
#include <gtest/gtest.h>

#include "core/daemon.hpp"
#include "machine/node.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace sim = pcd::sim;
using pcd::core::CpuspeedParams;
using pcd::core::DvsDaemon;
using pcd::machine::Node;
using pcd::machine::NodeConfig;

namespace {

struct DaemonFixture {
  sim::Engine engine;
  Node node;
  DaemonFixture() : node(engine, 0, fixed_config(), sim::Rng(5)) {}

  static NodeConfig fixed_config() {
    NodeConfig c;
    c.cpu.transition_min = c.cpu.transition_max = sim::from_micros(20);
    return c;
  }

  /// Keeps the CPU at `duty` utilization with 100 ms busy/idle periods.
  sim::Process duty_load(double duty, double seconds) {
    const auto total = sim::from_seconds(seconds);
    const auto start = engine.now();
    while (engine.now() - start < total) {
      if (duty > 0) {
        // Busy portion: memory stalls so frequency changes don't alter the
        // duty cycle itself.
        co_await node.cpu().run_memstall(
            static_cast<sim::SimDuration>(100 * sim::kMillisecond * duty));
      }
      co_await sim::delay(
          static_cast<sim::SimDuration>(100 * sim::kMillisecond * (1.0 - duty)));
    }
  }
};

}  // namespace

TEST(Cpuspeed, StepsDownOnModerateUtilization) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  sim::spawn(f.engine, f.duty_load(0.5, 30.0));  // below usage threshold
  f.engine.run_until(sim::from_seconds(9.0));
  // 4 polls at 2 s: stepped down from index 4 toward 0, one per poll.
  EXPECT_LT(f.node.cpu().frequency_mhz(), 1400);
  f.engine.run_until(sim::from_seconds(25.0));
  EXPECT_EQ(f.node.cpu().frequency_mhz(), 600);  // settled at the bottom
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, JumpsToMaxAboveMaxThreshold) {
  DaemonFixture f;
  f.node.set_cpuspeed(600);
  f.engine.run();
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  sim::spawn(f.engine, f.duty_load(1.0, 10.0));
  f.engine.run_until(sim::from_seconds(4.5));
  EXPECT_EQ(f.node.cpu().frequency_mhz(), 1400);  // straight to the top
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, JumpsToMinBelowMinThreshold) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  // idle node: utilization ~0 < min threshold -> S = 0 immediately.
  f.engine.run_until(sim::from_seconds(2.5));
  EXPECT_EQ(f.node.cpu().frequency_mhz(), 600);
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, StepsUpOneLevelInBetweenBand) {
  DaemonFixture f;
  f.node.set_cpuspeed(600);
  f.engine.run();
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  // Utilization between usage (0.85) and max (0.95): step up one per poll.
  sim::spawn(f.engine, f.duty_load(0.9, 30.0));
  f.engine.run_until(sim::from_seconds(2.5));
  EXPECT_EQ(f.node.cpu().frequency_mhz(), 800);
  f.engine.run_until(sim::from_seconds(4.5));
  EXPECT_EQ(f.node.cpu().frequency_mhz(), 1000);
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, V11PollsTwentyTimesFaster) {
  DaemonFixture f;
  DvsDaemon d11(f.engine, f.node, CpuspeedParams::v1_1());
  EXPECT_DOUBLE_EQ(d11.interval_s(), 0.1);
  EXPECT_DOUBLE_EQ(CpuspeedParams::v1_2_1().interval_s, 2.0);
  d11.start();
  f.engine.run_until(sim::from_seconds(1.05));
  EXPECT_GE(d11.polls(), 10);
  d11.stop();
  f.engine.run();
}

TEST(Cpuspeed, StopCancelsFutureTicks) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  f.engine.run_until(sim::from_seconds(2.5));
  const auto polls = daemon.polls();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  f.engine.run();
  EXPECT_EQ(daemon.polls(), polls);
}

TEST(Cpuspeed, StartIsIdempotent) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  daemon.start();
  f.engine.run_until(sim::from_seconds(2.5));
  EXPECT_EQ(daemon.polls(), 1);
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, SpeedChangesAreCounted) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1());
  daemon.start();
  f.engine.run_until(sim::from_seconds(2.5));  // idle -> jump to 600
  EXPECT_EQ(daemon.speed_changes(), 1);
  f.engine.run_until(sim::from_seconds(8.5));  // stays at 600, no new changes
  EXPECT_EQ(daemon.speed_changes(), 1);
  daemon.stop();
  f.engine.run();
}

TEST(Cpuspeed, StartOffsetDelaysFirstPoll) {
  DaemonFixture f;
  DvsDaemon daemon(f.engine, f.node, CpuspeedParams::v1_2_1(), sim::from_seconds(1.0));
  daemon.start();
  f.engine.run_until(sim::from_seconds(2.5));
  EXPECT_EQ(daemon.polls(), 0);  // first poll at 3.0 s
  f.engine.run_until(sim::from_seconds(3.5));
  EXPECT_EQ(daemon.polls(), 1);
  daemon.stop();
  f.engine.run();
}
