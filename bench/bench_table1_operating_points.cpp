// Table 1: operating points of the Pentium M 1.4 GHz processor, plus the
// measured DVS transition-cost distribution of the CPU model.
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/bench_common.hpp"
#include "cpu/cpu.hpp"
#include "power/cpu_power.hpp"
#include "sim/engine.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  (void)bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Table 1: operating points for the Pentium M 1.4 GHz processor").c_str());

  const auto table = cpu::OperatingPointTable::pentium_m_1400();
  const power::CpuPowerModel model(power::CpuPowerParams::pentium_m(), table);

  analysis::TextTable t({"Frequency", "Supply voltage", "busy CPU power (model)",
                         "idle CPU power (model)"});
  for (auto it = table.points().rbegin(); it != table.points().rend(); ++it) {
    t.add_row({std::to_string(it->freq_mhz / 1000) + "." +
                   std::to_string((it->freq_mhz / 100) % 10) + " GHz",
               analysis::fmt(it->voltage, 3) + " V",
               analysis::fmt(model.watts(*it, 1.0), 1) + " W",
               analysis::fmt(model.watts(*it, 0.18), 1) + " W"});
  }
  std::printf("%s\n", t.str().c_str());

  // Transition-cost microbenchmark: drive 10k transitions, histogram stalls.
  std::printf("DVS transition stall distribution (paper: 20-30 us observed on "
              "Opteron, ~10 us manufacturer floor; model draws 10-30 us):\n");
  sim::Engine engine;
  cpu::Cpu cpu(engine, table, cpu::CpuConfig{}, sim::Rng(42));
  sim::SimDuration min_stall = 1 << 30, max_stall = 0, prev_total = 0;
  for (int i = 0; i < 10000; ++i) {
    cpu.set_frequency_mhz(i % 2 == 0 ? 600 : 1400);
    engine.run();
    const auto stall = cpu.stats().transition_stall_ns - prev_total;
    prev_total = cpu.stats().transition_stall_ns;
    min_stall = std::min(min_stall, stall);
    max_stall = std::max(max_stall, stall);
  }
  std::printf("  transitions: %lld, stall min %.1f us, max %.1f us, mean %.1f us\n",
              static_cast<long long>(cpu.stats().transitions),
              min_stall / 1000.0, max_stall / 1000.0,
              cpu.stats().transition_stall_ns / 1000.0 / cpu.stats().transitions);
  return 0;
}
