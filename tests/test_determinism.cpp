// Determinism observability (DESIGN.md §3.12): digest streams and
// checkpoints, divergence diff/localization, focused capture, the flight
// recorder ring, and the campaign digest drill-down.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/runner.hpp"
#include "sim/engine.hpp"
#include "sim/provenance.hpp"
#include "telemetry/determinism.hpp"
#include "telemetry/flight_recorder.hpp"

namespace pcd {
namespace {

constexpr double kScale = 0.02;

telemetry::RunCapture instrumented_cg(const telemetry::DeterminismOptions& det,
                                      std::uint64_t perturb = 0) {
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams::v1_2_1();
  cfg.determinism = det;
  cfg.determinism.perturb_seq = perturb;
  auto result = core::run_workload(apps::make_cg(kScale), cfg);
  return std::move(*result.determinism);
}

// --- digest streams ---------------------------------------------------------

TEST(Digest, IdenticalRunsProduceIdenticalDigests) {
  telemetry::DeterminismOptions det;
  det.digest = true;
  det.checkpoint_every = 1024;
  const auto a = instrumented_cg(det);
  const auto b = instrumented_cg(det);

  EXPECT_GT(a.digest.streams[telemetry::RunDigest::kEvents].count, 0u);
  EXPECT_GT(a.digest.streams[telemetry::RunDigest::kRng].count, 0u);
  EXPECT_GT(a.digest.streams[telemetry::RunDigest::kPower].count, 0u);
  EXPECT_GT(a.digest.streams[telemetry::RunDigest::kMpi].count, 0u);
  EXPECT_FALSE(a.digest.checkpoints.empty());

  const auto d = telemetry::diff(a.digest, b.digest);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(a.digest.root(), b.digest.root());
  EXPECT_EQ(d.summary(), "digests identical");
}

TEST(Digest, DifferentSeedsProduceDifferentDigests) {
  telemetry::DeterminismOptions det;
  det.digest = true;
  core::RunConfig cfg;
  cfg.daemon = core::CpuspeedParams::v1_2_1();
  cfg.determinism = det;
  const auto a = core::run_workload(apps::make_cg(kScale), cfg);
  cfg.seed = 2;
  const auto b = core::run_workload(apps::make_cg(kScale), cfg);
  EXPECT_TRUE(
      telemetry::diff(a.determinism->digest, b.determinism->digest).diverged);
}

TEST(Digest, TextSerializationRoundTrips) {
  telemetry::DeterminismOptions det;
  det.digest = true;
  det.checkpoint_every = 512;
  const auto a = instrumented_cg(det);
  const std::string text = a.digest.to_text();
  EXPECT_NE(text.find("pcd-digest v1"), std::string::npos);
  EXPECT_NE(text.find("stream events"), std::string::npos);

  const auto parsed = telemetry::RunDigest::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(telemetry::diff(a.digest, *parsed).diverged);
  EXPECT_EQ(parsed->root(), a.digest.root());
  EXPECT_EQ(parsed->checkpoints.size(), a.digest.checkpoints.size());

  EXPECT_FALSE(telemetry::RunDigest::parse("not a digest").has_value());
  EXPECT_FALSE(telemetry::RunDigest::parse("pcd-digest v1\nbogus record\n")
                   .has_value());

  // Hostile files: each of the four named streams exactly once, no unknown
  // stream name, and a root line that matches the streams it summarizes.
  // Four copies of the events stream (root consistent with that reading:
  // the other three streams zero).
  telemetry::RunDigest events_only;
  events_only.checkpoint_every = a.digest.checkpoint_every;
  events_only.streams[telemetry::RunDigest::kEvents] =
      a.digest.streams[telemetry::RunDigest::kEvents];
  const std::string only_text = events_only.to_text();
  const std::size_t ev = only_text.find("stream events");
  const std::string events_line = only_text.substr(ev, only_text.find('\n', ev) + 1 - ev);
  std::string repeated = "pcd-digest v1\ncheckpoint_every 512\n";
  for (int i = 0; i < telemetry::RunDigest::kStreams; ++i) repeated += events_line;
  repeated += only_text.substr(only_text.find("root "));
  EXPECT_FALSE(telemetry::RunDigest::parse(repeated).has_value())
      << "one stream repeated four times";

  std::string unknown = text;
  unknown.insert(text.find("root "), "stream bogus 0000000000000001 1\n");
  EXPECT_FALSE(telemetry::RunDigest::parse(unknown).has_value()) << "unknown stream name";

  std::string bad_root = text;
  const std::size_t root_at = bad_root.find("root ") + 5;
  bad_root[root_at] = bad_root[root_at] == '0' ? '1' : '0';
  EXPECT_FALSE(telemetry::RunDigest::parse(bad_root).has_value()) << "root disagrees";
}

// Mutants of a text to_text() writes: each line must be read whole, as the
// writer formats it, and checkpoint_every appears once.
class DigestMutant : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(parses(text())); }

  static std::string text() {
    telemetry::RunDigest d;
    d.checkpoint_every = 4096;
    d.streams[telemetry::RunDigest::kEvents].fold(7);
    d.checkpoints.push_back({4096, {1, 2, 3, 4}, {5, 6, 7, 8}});
    return d.to_text();
  }
  // `text()` with the first `from` replaced by `to`.
  static std::string mutate(const std::string& from, const std::string& to) {
    std::string t = text();
    const std::size_t at = t.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return t.replace(at, from.size(), to);
  }
  static bool parses(const std::string& t) {
    return telemetry::RunDigest::parse(t).has_value();
  }
};

TEST_F(DigestMutant, UnmutatedTextParses) {
  const auto d = telemetry::RunDigest::parse(text());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->to_text(), text());
}

TEST_F(DigestMutant, RejectsTrailingTextAfterCheckpointEvery) {
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n", "checkpoint_every 4096junk\n")));
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n", "checkpoint_every 4096 5\n")));
}

TEST_F(DigestMutant, RejectsSignedCheckpointEvery) {
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n", "checkpoint_every -5\n")));
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n", "checkpoint_every +4096\n")));
}

TEST_F(DigestMutant, RejectsTrailingTextAfterRoot) {
  const std::string t = text();
  const std::size_t end = t.find('\n', t.find("root "));
  std::string m = t;
  m.insert(end, " trailing");
  EXPECT_FALSE(parses(m));
}

TEST_F(DigestMutant, RejectsRepeatedCheckpointEvery) {
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n",
                             "checkpoint_every 4096\ncheckpoint_every 4096\n")));
  EXPECT_FALSE(parses(mutate("checkpoint_every 4096\n", "")));
}

TEST_F(DigestMutant, RejectsSignedOrPaddedCountsAndHashes) {
  EXPECT_FALSE(parses(mutate("checkpoint 4096 ", "checkpoint +4096 ")));
  EXPECT_FALSE(parses(mutate("checkpoint 4096 ", "checkpoint  4096 ")));
  EXPECT_FALSE(parses(mutate("checkpoint 4096 ", "checkpoint 04096 ")));
  EXPECT_FALSE(parses(mutate("0000000000000001 5", "0x00000000000001 5")));
  EXPECT_FALSE(parses(mutate("0000000000000001 5", "1 5")));
}

// checkpoint_every is rounded up to a power of two; past 2^63 there is
// none, so validate() names the field instead of letting the collector
// round an unrepresentable interval.
TEST(Digest, ValidateRejectsCheckpointIntervalsPastTwoToThe63) {
  core::RunConfig cfg;
  cfg.determinism.digest = true;
  cfg.determinism.checkpoint_every = telemetry::DeterminismOptions::kMaxCheckpointEvery;
  EXPECT_TRUE(cfg.validate().empty()) << core::describe(cfg.validate());
  cfg.determinism.checkpoint_every = ~std::uint64_t{0};
  const auto issues = cfg.validate();
  ASSERT_EQ(issues.size(), 1u) << core::describe(issues);
  EXPECT_EQ(issues[0].field, "determinism.checkpoint_every");
  EXPECT_THROW(core::run_workload(apps::make_cg(kScale), cfg), std::invalid_argument);
}

TEST(Digest, DiffNamesFirstDivergingCheckpointInterval) {
  telemetry::RunDigest a, b;
  a.checkpoint_every = b.checkpoint_every = 4;
  for (std::uint64_t e = 4; e <= 16; e += 4) {
    telemetry::DigestCheckpoint c;
    c.events = e;
    c.hash[0] = e * 7;
    a.checkpoints.push_back(c);
    if (e >= 12) c.hash[0] ^= 0xdead;  // diverges inside (8, 12]
    b.checkpoints.push_back(c);
  }
  a.streams[0].hash = 1;
  b.streams[0].hash = 2;
  const auto d = telemetry::diff(a, b);
  EXPECT_TRUE(d.diverged);
  EXPECT_EQ(d.stream, telemetry::RunDigest::kEvents);
  EXPECT_EQ(d.interval_begin, 8u);
  EXPECT_EQ(d.interval_end, 12u);
}

// --- localization -----------------------------------------------------------

TEST(Localize, SeqPerturbationIsNamedWithLabelSeqAndChain) {
  const std::uint64_t kPerturb = 500;
  const auto run_a = [](const telemetry::DeterminismOptions& det) {
    return instrumented_cg(det);
  };
  const auto run_b = [kPerturb](const telemetry::DeterminismOptions& det) {
    return instrumented_cg(det, kPerturb);
  };
  const auto r = telemetry::localize(run_a, run_b, 256);
  ASSERT_TRUE(r.diverged);
  EXPECT_EQ(r.digests.stream, telemetry::RunDigest::kEvents);
  ASSERT_TRUE(r.first_a.has_value());
  ASSERT_TRUE(r.first_b.has_value());

  // The perturbation swaps the allocation of seqs 500/501, so the first
  // diverging dispatch must be one of the two swapped events on each side.
  EXPECT_TRUE(r.first_a->seq == kPerturb || r.first_a->seq == kPerturb + 1)
      << r.first_a->seq;
  EXPECT_TRUE(r.first_b->seq == kPerturb || r.first_b->seq == kPerturb + 1)
      << r.first_b->seq;
  EXPECT_EQ(r.first_a->index, r.first_b->index);
  EXPECT_FALSE(*r.first_a == *r.first_b);

  // Causal chains walk back to a root, ending at the diverging event.
  ASSERT_FALSE(r.chain_a.empty());
  EXPECT_EQ(r.chain_a.front().parent, 0u);
  EXPECT_EQ(r.chain_a.back(), *r.first_a);
  ASSERT_FALSE(r.chain_b.empty());
  EXPECT_EQ(r.chain_b.back(), *r.first_b);

  // The rendered report names the label and sequence number.
  EXPECT_NE(r.report.find("first diverging event (run A)"), std::string::npos);
  EXPECT_NE(r.report.find("seq=" + std::to_string(r.first_a->seq)),
            std::string::npos);
  EXPECT_NE(r.report.find("site='" + r.first_a->site + "'"), std::string::npos);
  EXPECT_NE(r.report.find("causal chain"), std::string::npos);
}

TEST(Localize, IdenticalRunsReportBitIdentical) {
  const auto run = [](const telemetry::DeterminismOptions& det) {
    return instrumented_cg(det);
  };
  const auto r = telemetry::localize(run, run, 1024);
  EXPECT_FALSE(r.diverged);
  EXPECT_NE(r.report.find("bit-identical"), std::string::npos);
}

// Injected unordered-map nondeterminism: run B rehashes the map before
// iterating, so the two runs schedule the same 16 events in (usually) a
// different order.  The localizer must name the exact site label and
// sequence number where the orders first differ.
constexpr const char* kMapSites[16] = {
    "map.k0",  "map.k1",  "map.k2",  "map.k3", "map.k4",  "map.k5",
    "map.k6",  "map.k7",  "map.k8",  "map.k9", "map.k10", "map.k11",
    "map.k12", "map.k13", "map.k14", "map.k15"};

std::vector<int> map_order(bool rehash) {
  std::unordered_map<int, int> map;
  for (int k = 0; k < 16; ++k) map.emplace(k, k);
  if (rehash) map.rehash(1024);
  std::vector<int> order;
  for (const auto& [k, v] : map) order.push_back(k);
  return order;
}

telemetry::RunCapture map_run(const telemetry::DeterminismOptions& det,
                              bool rehash) {
  sim::Engine engine;
  telemetry::DeterminismCollector col(engine, det);
  std::unordered_map<int, int> map;
  for (int k = 0; k < 16; ++k) map.emplace(k, k);
  if (rehash) map.rehash(1024);
  for (const auto& [k, v] : map) {
    engine.schedule_at(1000, [] {}, kMapSites[k]);
  }
  engine.run();
  auto cap = col.take_capture();
  col.detach();
  return cap;
}

TEST(Localize, UnorderedMapIterationOrderIsLocalizedToExactLabel) {
  const auto order_a = map_order(false);
  const auto order_b = map_order(true);
  if (order_a == order_b) {
    GTEST_SKIP() << "this libstdc++ iterates identically across rehash";
  }
  std::size_t p = 0;
  while (order_a[p] == order_b[p]) ++p;

  const auto r = telemetry::localize(
      [](const telemetry::DeterminismOptions& det) { return map_run(det, false); },
      [](const telemetry::DeterminismOptions& det) { return map_run(det, true); },
      4);
  ASSERT_TRUE(r.diverged);
  EXPECT_EQ(r.digests.stream, telemetry::RunDigest::kEvents);
  ASSERT_TRUE(r.first_a.has_value());
  ASSERT_TRUE(r.first_b.has_value());
  // Same-time events dispatch in scheduling order, so dispatch position ==
  // map iteration position: the first diverging event is the p-th one, with
  // the site label of the key each run put there (seqs start at 1).
  EXPECT_EQ(r.first_a->index, p + 1);
  EXPECT_EQ(r.first_a->seq, p + 1);
  EXPECT_EQ(r.first_a->site, kMapSites[order_a[p]]);
  EXPECT_EQ(r.first_b->site, kMapSites[order_b[p]]);
}

// --- focused capture --------------------------------------------------------

TEST(Capture, WindowRetainsOnlyTheRequestedIntervalButChainsToRoots) {
  telemetry::DeterminismOptions det;
  det.digest = true;
  det.capture_begin = 4;
  det.capture_end = 8;
  const auto cap = map_run(det, false);
  ASSERT_EQ(cap.events.size(), 4u);
  for (const auto& e : cap.events) {
    EXPECT_GT(e.index, 4u);
    EXPECT_LE(e.index, 8u);
  }
  // The chain table covers everything up to capture_end, so captured events
  // can be walked back through ancestors outside the window.
  EXPECT_EQ(cap.chain.size(), 8u);
  const auto chain = telemetry::causal_chain(cap, cap.events.front().seq);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.back(), cap.events.front());
}

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingWrapsAroundKeepingTheNewestRecords) {
  telemetry::FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sim::EventProvenance p;
    p.index = i;
    p.seq = i;
    p.site = "test.site";
    p.t = static_cast<sim::SimTime>(i * 100);
    fr.record(p);
  }
  EXPECT_TRUE(fr.wrapped());
  EXPECT_EQ(fr.recorded(), 10u);
  const auto entries = fr.entries();
  ASSERT_EQ(entries.size(), 4u);
  // Oldest-first: records 7..10 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(entries[i].index, 7 + i);
  }
  const std::string dump = fr.dump_json("test reason", 1234);
  EXPECT_NE(dump.find("test reason"), std::string::npos);
  EXPECT_NE(dump.find("\"seq\":10"), std::string::npos);
  EXPECT_EQ(dump.find("\"seq\":6"), std::string::npos);
}

TEST(FlightRecorder, StateProvidersAppearInTheDump) {
  telemetry::FlightRecorder fr(8);
  fr.add_state("custom", [] { return std::string("{\"x\":42}"); });
  const std::string dump = fr.dump_json("why", 0);
  EXPECT_NE(dump.find("\"custom\""), std::string::npos);
  EXPECT_NE(dump.find("42"), std::string::npos);
}

// --- campaign drill-down ----------------------------------------------------

TEST(Campaign, DigestFingerprintDrillsDownToCells) {
  campaign::ExperimentSpec spec;
  spec.workload(apps::make_cg(0.01))
      .axis(campaign::Axis::static_mhz({600, 1400}))
      .trials(2)
      .collect_digests();
  campaign::CampaignOptions opts;
  opts.threads = 2;
  const auto a = campaign::CampaignRunner(opts).run(spec);
  const auto b = campaign::CampaignRunner(opts).run(spec);

  for (const auto& c : a.cells) {
    EXPECT_TRUE(c.has_digest);
    EXPECT_NE(c.digest_root, 0u);
  }
  // Fingerprint is the fold of the per-cell digest roots, and reproducible.
  sim::DigestStream h;
  for (const auto& c : a.cells) h.fold(c.digest_root);
  EXPECT_EQ(a.fingerprint(), h.hash);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].digest_root, b.cells[i].digest_root) << "cell " << i;
  }
}

TEST(Campaign, DigestOffKeepsTheLegacyTsvFingerprint) {
  campaign::ExperimentSpec spec;
  spec.workload(apps::make_ep(0.01)).trials(1);
  const auto a = campaign::CampaignRunner(campaign::CampaignOptions{}).run(spec);
  for (const auto& c : a.cells) EXPECT_FALSE(c.has_digest);
  // Legacy rule: FNV-1a of tsv(), bit-for-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : a.tsv()) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(a.fingerprint(), h);
}

// --- off by default ---------------------------------------------------------

TEST(Determinism, OffByDefaultAndBitIdenticalToInstrumentedRuns) {
  core::RunConfig plain;
  const auto base = core::run_workload(apps::make_cg(kScale), plain);
  EXPECT_FALSE(base.determinism.has_value());

  core::RunConfig dig = plain;
  dig.determinism.digest = true;
  const auto instrumented = core::run_workload(apps::make_cg(kScale), dig);
  ASSERT_TRUE(instrumented.determinism.has_value());
  // Observation does not perturb the run: same delay and energy exactly.
  EXPECT_EQ(base.delay_s, instrumented.delay_s);
  EXPECT_EQ(base.energy_j, instrumented.energy_j);
}

}  // namespace
}  // namespace pcd
