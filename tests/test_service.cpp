// Campaign service tests: the strict JSON layer, the SpecRequest wire
// format and its cache-key identity, the crash-safe result cache (round
// trip, reopen by log scan, torn-tail recovery), and the resilient
// CampaignService itself — admission control, deadlines, budgets,
// cancellation, retry-to-convergence under chaos, and the acceptance
// scenario: many concurrent clients against a fault-injecting service,
// every response structured, the cache never torn.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/result.hpp"
#include "fault/plan.hpp"
#include "service/cache.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "telemetry/metrics.hpp"

using namespace pcd;
using service::JsonValue;

namespace {

/// Fresh empty directory under the test temp root, wiped on destruction.
struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) {
    path = testing::TempDir() + "pcd_service_" + tag + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

service::SpecRequest tiny_request(std::vector<std::string> workloads = {"EP"},
                                  std::uint64_t seed = 1) {
  service::SpecRequest req;
  req.workloads = std::move(workloads);
  req.scale = 0.01;
  req.trials = 1;
  req.seed = seed;
  req.strategies = {{"full", 0, ""}};
  return req;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

}  // namespace

// ---- strict JSON ----------------------------------------------------------

TEST(Json, ParsesAndRoundTripsNestedDocuments) {
  const std::string text =
      "{\"a\":[1,2.5,-3e2,true,false,null],\"b\":{\"nested\":\"\\u00e9\\n\"},"
      "\"empty\":[],\"s\":\"tab\\tquote\\\"\"}";
  auto v = service::json_parse(text);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->items().size(), 6u);
  EXPECT_DOUBLE_EQ(a->items()[2].as_number(), -300.0);
  EXPECT_EQ(v->find("b")->find("nested")->as_string(), "\xc3\xa9\n");

  // write() -> parse() is the identity on the DOM (insertion order kept).
  auto again = service::json_parse(v->write());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->write(), v->write());
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  auto v = service::json_parse("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, StrictModeRejectsMalformedDocuments) {
  const char* bad[] = {
      "",                      // empty input
      "{\"a\":1} trailing",    // bytes after the document
      "{\"a\":01}",            // leading zero
      "{\"a\":.5}",            // bare fraction
      "{\"a\":+1}",            // explicit plus
      "{\"a\":1,}",            // trailing comma
      "{'a':1}",               // single quotes
      "{\"a\":nul}",           // truncated literal
      "\"\\ud800\"",           // lone high surrogate
      "\"\\udc00\"",           // lone low surrogate
      "\"\\x41\"",             // invalid escape
      "\"unterminated",        // EOF inside string
      "[1,2",                  // EOF inside array
      "\"ctrl \x01 char\"",    // raw control character
      "NaN",                   // not a JSON number
  };
  for (const char* text : bad) {
    service::JsonError err;
    EXPECT_FALSE(service::json_parse(text, &err).has_value())
        << "accepted: " << text;
    EXPECT_FALSE(err.message.empty());
  }
}

TEST(Json, HexDoublesRoundTripExactly) {
  const double values[] = {0.1, 1.0 / 3.0, -0.0, 1e300, 5e-324, 3.14159,
                           123456789.123456789, -2.5e-10};
  for (double d : values) {
    double back = 0;
    ASSERT_TRUE(service::parse_hex_double(service::hex_double(d), &back));
    EXPECT_EQ(std::memcmp(&d, &back, sizeof d), 0) << d;
  }
  double out = 0;
  EXPECT_FALSE(service::parse_hex_double("not a number", &out));
  EXPECT_FALSE(service::parse_hex_double("0x1p1 junk", &out));
}

// ---- SpecRequest wire format ----------------------------------------------

TEST(SpecRequest, FromJsonAppliesDefaultsAndRoundTrips) {
  auto doc = service::json_parse(
      "{\"op\":\"submit\",\"workloads\":[\"FT\",\"CG\"],\"trials\":3,"
      "\"seed\":42,\"strategies\":[{\"static_mhz\":1400},"
      "{\"daemon\":\"v1.2.1\"}],\"deadline_s\":5}");
  ASSERT_TRUE(doc.has_value());
  std::string err;
  auto req = service::SpecRequest::from_json(*doc, &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->workloads.size(), 2u);
  EXPECT_DOUBLE_EQ(req->scale, 0.02);  // wire default
  EXPECT_EQ(req->trials, 3);
  EXPECT_EQ(req->seed, 42u);
  EXPECT_TRUE(req->digests);
  ASSERT_EQ(req->strategies.size(), 2u);
  EXPECT_EQ(req->strategies[0].label, "1400");
  EXPECT_EQ(req->strategies[1].label, "auto-v1.2.1");
  EXPECT_DOUBLE_EQ(req->deadline_s, 5.0);

  // to_json -> from_json is the identity on the parsed form.
  std::string err2;
  auto again = service::SpecRequest::from_json(req->to_json(), &err2);
  ASSERT_TRUE(again.has_value()) << err2;
  EXPECT_EQ(again->to_json().write(), req->to_json().write());
}

TEST(SpecRequest, FromJsonRejectsBadFields) {
  const char* bad[] = {
      "{\"scale\":0}",
      "{\"scale\":-1}",
      "{\"trials\":0}",
      "{\"deadline_s\":-1}",
      "{\"strategies\":[{\"daemon\":\"v9\"}]}",
      "{\"strategies\":[{\"daemon\":\"v1.1\",\"static_mhz\":600}]}",
      "{\"strategies\":[42]}",
      "{\"workloads\":\"FT\"}",
  };
  for (const char* text : bad) {
    auto doc = service::json_parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    std::string err;
    EXPECT_FALSE(service::SpecRequest::from_json(*doc, &err).has_value())
        << "accepted: " << text;
    EXPECT_FALSE(err.empty());
  }
}

TEST(SpecRequest, ToSpecResolvesWorkloadsAndFailsStructurally) {
  auto req = tiny_request({"FT", "CG"});
  req.strategies = {{"1400", 1400, ""}, {"auto", 0, "v1.2.1"}};
  std::string err;
  auto spec = req.to_spec(&err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->total_runs(), 4u);  // 2 workloads x 2 strategies x 1 trial

  req.workloads = {"FT", "NOPE"};
  EXPECT_FALSE(req.to_spec(&err).has_value());
  EXPECT_NE(err.find("NOPE"), std::string::npos);

  req.workloads = {};
  EXPECT_FALSE(req.to_spec(&err).has_value());
}

TEST(SpecRequest, CellKeyIsIndependentOfRequestShapeAndRobustnessKnobs) {
  auto a = tiny_request({"FT"});
  auto b = tiny_request({"FT", "CG", "EP"});  // same cell, bigger request
  b.deadline_s = 2.0;                          // knobs must not change identity
  b.budget_s = 10.0;
  EXPECT_EQ(a.cell_key("FT", "full"), b.cell_key("FT", "full"));

  // Anything that changes what the cell computes changes the key.
  auto c = tiny_request({"FT"});
  c.seed = 2;
  EXPECT_NE(a.cell_key("FT", "full"), c.cell_key("FT", "full"));
  auto d = tiny_request({"FT"});
  d.scale = 0.02;
  EXPECT_NE(a.cell_key("FT", "full"), d.cell_key("FT", "full"));
  EXPECT_NE(a.cell_key("FT", "full"), a.cell_key("FT", "1400"));
  EXPECT_NE(a.cell_key("FT", "full"), a.cell_key("CG", "full"));
}

// ---- result cache ----------------------------------------------------------

namespace {

campaign::CellResult sample_cell(int index, const char* workload) {
  campaign::CellResult cell;
  cell.index = static_cast<std::size_t>(index);
  cell.workload = workload;
  cell.labels = {"1400"};
  cell.numbers = {1400.0};
  cell.numeric = {true};
  cell.delay = campaign::Summary::of({1.125, 2.5, 0.1});
  cell.energy = campaign::Summary::of({10.0 / 3.0, 7.25, 5e-3});
  cell.digest_root = 0xdeadbeefcafef00dULL;
  cell.has_digest = true;
  cell.runs = 3;
  cell.failures = 0;
  cell.result.workload = workload;
  cell.result.delay_s = 1.125;
  cell.result.energy_j = 0.1 + static_cast<double>(index);  // inexact on purpose
  cell.result.energy_acpi_j = 3.0;
  cell.result.energy_baytech_j = 3.5;
  cell.result.mean_utilization = 2.0 / 3.0;
  cell.result.dvs_transitions = 17;
  cell.result.net_collisions = 4;
  cell.result.messages = 1234;
  return cell;
}

}  // namespace

TEST(ResultCache, EncodeDecodeIsExact) {
  const auto cell = sample_cell(3, "FT");
  campaign::CellResult back;
  ASSERT_TRUE(service::ResultCache::decode(service::ResultCache::encode(cell),
                                           &back));
  EXPECT_EQ(back.index, cell.index);
  EXPECT_EQ(back.workload, cell.workload);
  EXPECT_EQ(back.labels, cell.labels);
  EXPECT_EQ(back.digest_root, cell.digest_root);
  EXPECT_TRUE(back.has_digest);
  EXPECT_EQ(back.runs, 3);
  // Hex-float doubles round-trip bit-exactly, not just approximately.
  EXPECT_EQ(back.delay.median, cell.delay.median);
  EXPECT_EQ(back.energy.mean, cell.energy.mean);
  EXPECT_EQ(back.result.energy_j, cell.result.energy_j);
  EXPECT_EQ(back.result.mean_utilization, cell.result.mean_utilization);
  EXPECT_EQ(back.result.dvs_transitions, cell.result.dvs_transitions);
  EXPECT_EQ(back.result.messages, cell.result.messages);

  campaign::CellResult ignored;
  EXPECT_FALSE(service::ResultCache::decode("not json", &ignored));
  EXPECT_FALSE(service::ResultCache::decode("{\"workload\":\"FT\"}", &ignored));
}

TEST(ResultCache, PersistsAndReopensByScanningTheLog) {
  TempDir dir("reopen");
  {
    service::ResultCache cache(dir.path);
    cache.insert(0x1111, sample_cell(0, "FT"));
    cache.insert(0x2222, sample_cell(1, "CG"));
    cache.insert(0x1111, sample_cell(2, "FT"));  // overwrite: last wins
    EXPECT_EQ(cache.stats().inserts, 3);
    EXPECT_EQ(cache.stats().entries, 2);
    cache.sync();
  }
  {
    service::ResultCache cache(dir.path);
    const auto st = cache.stats();
    EXPECT_EQ(st.recovered, 2);
    EXPECT_EQ(st.corrupt, 0);
    EXPECT_EQ(st.torn_bytes, 0);
    auto hit = cache.lookup(0x1111);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->index, 2u);  // the overwrite survived recovery
    EXPECT_FALSE(cache.lookup(0x9999).has_value());
    EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 0.5);
  }
}

TEST(ResultCache, TornTailIsTruncatedAtRecovery) {
  TempDir dir("torn");
  const std::string log = dir.path + "/results.log";
  {
    service::ResultCache cache(dir.path);
    cache.insert(0xaaaa, sample_cell(0, "FT"));
    cache.insert(0xbbbb, sample_cell(1, "CG"));
  }
  const std::string intact = slurp(log);
  // A kill -9 mid-append leaves a partial record: header + half a payload.
  append_bytes(log, "PCDC1 000000000000cccc 999 0123456789abcdef\n{\"trunc");
  {
    service::ResultCache cache(dir.path);
    const auto st = cache.stats();
    EXPECT_EQ(st.recovered, 2);
    EXPECT_GT(st.torn_bytes, 0);
    EXPECT_TRUE(cache.lookup(0xaaaa).has_value());
    EXPECT_FALSE(cache.lookup(0xcccc).has_value());
  }
  // Recovery physically truncated the file back to the verified prefix.
  EXPECT_EQ(slurp(log), intact);
}

TEST(ResultCache, CorruptPayloadCountsAndStopsTheScan) {
  TempDir dir("corrupt");
  const std::string log = dir.path + "/results.log";
  {
    service::ResultCache cache(dir.path);
    cache.insert(0xaaaa, sample_cell(0, "FT"));
    cache.insert(0xbbbb, sample_cell(1, "CG"));
  }
  // Flip one payload byte of the LAST record: framed, but digest-mismatched.
  std::string bytes = slurp(log);
  const std::size_t second = bytes.find("PCDC1", 5);
  ASSERT_NE(second, std::string::npos);
  const std::size_t victim = bytes.find("workload", second);
  ASSERT_NE(victim, std::string::npos);
  bytes[victim] ^= 0x20;
  { std::ofstream out(log, std::ios::binary | std::ios::trunc); out << bytes; }
  {
    service::ResultCache cache(dir.path);
    const auto st = cache.stats();
    EXPECT_EQ(st.recovered, 1);
    EXPECT_EQ(st.corrupt, 1);
    EXPECT_GT(st.torn_bytes, 0);
    EXPECT_TRUE(cache.lookup(0xaaaa).has_value());
    EXPECT_FALSE(cache.lookup(0xbbbb).has_value());  // zero corrupted entries served
  }
}

// ---- CampaignService: cache, admission, deadlines, cancellation ------------

TEST(CampaignService, ColdThenWarmServesFromCacheWithIdenticalFingerprint) {
  TempDir dir("warm");
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.campaign_threads = 2;
  opts.cache_dir = dir.path;
  telemetry::MetricsRegistry metrics;
  opts.metrics = &metrics;
  service::CampaignService svc(opts);

  auto req = tiny_request({"EP", "IS"});
  const auto cold = svc.execute(req);
  ASSERT_EQ(cold.status, service::Status::Ok) << cold.reason;
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, 2);
  ASSERT_EQ(cold.result.cells.size(), 2u);
  EXPECT_TRUE(cold.result.cells[0].has_digest);

  const auto warm = svc.execute(req);
  ASSERT_EQ(warm.status, service::Status::Ok);
  EXPECT_EQ(warm.cache_hits, 2);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.result.tsv(), cold.result.tsv());

  // A subset request re-runs nothing: cell identity ignores request shape.
  const auto subset = svc.execute(tiny_request({"IS"}));
  EXPECT_EQ(subset.cache_hits, 1);
  EXPECT_EQ(subset.cache_misses, 0);

  EXPECT_DOUBLE_EQ(
      metrics.counter("campaign_service_requests_total").value(), 3.0);
  EXPECT_DOUBLE_EQ(
      metrics.counter("campaign_service_cache_hits_total").value(), 3.0);
  EXPECT_DOUBLE_EQ(
      metrics.counter("campaign_service_cache_misses_total").value(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("campaign_service_queue_depth").value(), 0.0);
}

TEST(CampaignService, ShedsWhenTheAdmissionQueueIsFull) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_queue = 1;
  opts.campaign_threads = 1;
  telemetry::MetricsRegistry metrics;
  opts.metrics = &metrics;
  service::CampaignService svc(opts);

  // Occupy the worker, then the single queue slot; the third submission
  // must shed immediately with a structured rejection.
  auto t1 = svc.submit(tiny_request({"FT", "CG"}, 11));
  for (int i = 0; i < 200 && svc.queue_depth() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(svc.queue_depth(), 0u);  // worker picked up t1
  auto t2 = svc.submit(tiny_request({"EP"}, 12));
  auto t3 = svc.submit(tiny_request({"IS"}, 13));

  const auto r3 = svc.wait(t3);
  EXPECT_EQ(r3.status, service::Status::Rejected);
  EXPECT_NE(r3.reason.find("queue full"), std::string::npos);
  EXPECT_GT(r3.retry_after_s, 0.0);

  EXPECT_EQ(svc.wait(t1).status, service::Status::Ok);
  EXPECT_EQ(svc.wait(t2).status, service::Status::Ok);
  EXPECT_DOUBLE_EQ(metrics.counter("campaign_service_shed_total").value(), 1.0);

  // A ticket is one-shot: the second wait is a structured error.
  EXPECT_EQ(svc.wait(t1).status, service::Status::Error);
}

TEST(CampaignService, DeadlineExceededIsAStructuredCellFailure) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 0;  // the deadline will not get better by itself
  service::CampaignService svc(opts);

  auto req = tiny_request({"CG"});
  req.scale = 0.5;           // long enough to cross an event-batch boundary
  req.deadline_s = 1e-4;     // and far too tight to finish
  const auto r = svc.execute(req);
  ASSERT_EQ(r.status, service::Status::Ok);  // the *request* succeeded
  ASSERT_EQ(r.result.cells.size(), 1u);
  const auto& cell = r.result.cells[0];
  EXPECT_GT(cell.failures, 0);
  bool mentions_deadline = false;
  for (const auto& e : cell.errors) {
    if (e.find("deadline exceeded") != std::string::npos) {
      mentions_deadline = true;
    }
  }
  EXPECT_TRUE(mentions_deadline);
}

TEST(CampaignService, BudgetExhaustionFailsRemainingCellsWithoutRunningThem) {
  // The budget is checked between rounds, so chaos forces a second round:
  // attempt 0 runs under an injected crash (transient, retried), and by the
  // time the retry round would start the budget is long gone — every
  // pending cell fails synthetically without running.
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 3;
  opts.retry_backoff_s = 0.001;
  opts.chaos.probability = 1.0;
  opts.chaos.plan.events.push_back(fault::node_crash(0.05, 0));
  service::CampaignService svc(opts);

  auto req = tiny_request({"FT", "CG", "EP", "IS"});
  req.budget_s = 1e-4;  // exhausted during the first round
  const auto r = svc.execute(req);
  ASSERT_EQ(r.status, service::Status::Ok);
  EXPECT_NE(r.reason.find("budget"), std::string::npos);
  ASSERT_EQ(r.result.cells.size(), 4u);
  int budget_failures = 0;
  for (const auto& cell : r.result.cells) {
    for (const auto& e : cell.errors) {
      if (e.find("budget exhausted") != std::string::npos) ++budget_failures;
    }
  }
  EXPECT_GT(budget_failures, 0);
}

TEST(CampaignService, CancelCompletesQueuedAndRunningRequests) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.campaign_threads = 1;
  service::CampaignService svc(opts);

  auto slow = tiny_request({"CG"}, 21);
  slow.scale = 1.0;  // ~100 ms: a wide window to land the cancel in
  auto running = svc.submit(slow);
  for (int i = 0; i < 200 && svc.queue_depth() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = svc.submit(tiny_request({"EP", "IS"}, 22));
  svc.cancel(queued);
  svc.cancel(running);

  const auto rq = svc.wait(queued);
  EXPECT_EQ(rq.status, service::Status::Cancelled);
  EXPECT_NE(rq.reason.find("cancelled"), std::string::npos);
  const auto rr = svc.wait(running);
  EXPECT_EQ(rr.status, service::Status::Cancelled);
  // A cell the cancel caught mid-run carries the structured abort.
  for (const auto& cell : rr.result.cells) {
    if (cell.failures > 0) {
      EXPECT_NE(cell.result.failure.find("cancelled"), std::string::npos);
    }
  }
}

TEST(CampaignService, LenientExpansionPropagatesConfigIssues) {
  service::ServiceOptions opts;
  opts.workers = 1;
  service::CampaignService svc(opts);

  auto req = tiny_request({"EP"});
  req.slice_s = -0.5;  // passes the wire check, fails RunConfig::validate()
  const auto r = svc.execute(req);
  ASSERT_EQ(r.status, service::Status::Ok);
  ASSERT_EQ(r.result.cells.size(), 1u);
  const auto& cell = r.result.cells[0];
  EXPECT_GT(cell.failures, 0);
  ASSERT_FALSE(cell.config_issues.empty());
  EXPECT_NE(cell.config_issues[0].field.find("slice_s"), std::string::npos);
  EXPECT_NE(cell.config_issues[0].message.find("positive"), std::string::npos);
}

TEST(CampaignService, UnknownWorkloadIsARequestError) {
  service::CampaignService svc{service::ServiceOptions{}};
  auto req = tiny_request({"BOGUS"});
  const auto r = svc.execute(req);
  EXPECT_EQ(r.status, service::Status::Error);
  EXPECT_NE(r.reason.find("BOGUS"), std::string::npos);
}

TEST(CampaignService, DrainRejectsNewWorkAndFinishesAccepted) {
  service::ServiceOptions opts;
  opts.workers = 2;
  service::CampaignService svc(opts);
  auto accepted = svc.submit(tiny_request({"EP"}, 31));
  svc.drain();
  EXPECT_EQ(svc.wait(accepted).status, service::Status::Ok);
  const auto late = svc.execute(tiny_request({"IS"}, 32));
  EXPECT_EQ(late.status, service::Status::Rejected);
  EXPECT_NE(late.reason.find("draining"), std::string::npos);
}

// ---- retry-to-convergence under chaos --------------------------------------

TEST(CampaignService, ChaosRetriesConvergeToTheCleanDigestRoot) {
  auto req = tiny_request({"EP", "IS"}, 7);

  service::CampaignService clean{service::ServiceOptions{}};
  const auto baseline = clean.execute(req);
  ASSERT_EQ(baseline.status, service::Status::Ok);
  ASSERT_TRUE(baseline.result.cells[0].has_digest);

  service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 2;
  opts.retry_backoff_s = 0.001;  // keep the test fast
  opts.chaos.probability = 1.0;  // every first attempt runs under the plan
  opts.chaos.plan.events.push_back(fault::node_crash(0.05, 0));
  service::CampaignService chaotic(opts);
  const auto survived = chaotic.execute(req);
  ASSERT_EQ(survived.status, service::Status::Ok) << survived.reason;
  EXPECT_GT(survived.retries, 0);
  EXPECT_EQ(survived.fingerprint, baseline.fingerprint);
  for (std::size_t i = 0; i < survived.result.cells.size(); ++i) {
    EXPECT_EQ(survived.result.cells[i].digest_root,
              baseline.result.cells[i].digest_root);
    EXPECT_EQ(survived.result.cells[i].failures, 0);
  }
}

TEST(CampaignService, ChaosTouchedResultsAreNeverCached) {
  TempDir dir("chaoscache");
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 0;  // the chaos attempt is the final word...
  opts.retry_backoff_s = 0.001;
  opts.cache_dir = dir.path;
  opts.chaos.probability = 1.0;
  opts.chaos.plan.events.push_back(fault::node_crash(0.05, 0));
  service::CampaignService svc(opts);
  const auto r = svc.execute(tiny_request({"EP"}, 8));
  ASSERT_EQ(r.status, service::Status::Ok);
  EXPECT_GT(r.result.cells[0].failures, 0);  // ...and it failed
  EXPECT_EQ(svc.cache_stats().inserts, 0);   // but was not persisted
}

// ---- acceptance: concurrent clients, chaos on, cache never torn ------------

TEST(CampaignService, ConcurrentChaoticClientsAllGetStructuredResponses) {
  TempDir dir("hammer");
  auto req_a = tiny_request({"EP"}, 91);
  auto req_b = tiny_request({"IS"}, 92);

  // Clean fingerprints first, from an undisturbed service.
  std::uint64_t clean_a = 0, clean_b = 0;
  {
    service::CampaignService clean{service::ServiceOptions{}};
    clean_a = clean.execute(req_a).fingerprint;
    clean_b = clean.execute(req_b).fingerprint;
  }

  service::ServiceOptions opts;
  opts.workers = 4;
  opts.campaign_threads = 1;
  opts.max_queue = 64;  // admission off the table: this test is about retries
  opts.max_retries = 3;
  opts.retry_backoff_s = 0.001;
  opts.cache_dir = dir.path;
  opts.chaos.probability = 0.5;
  opts.chaos.max_attempt = 2;
  opts.chaos.plan.events.push_back(fault::node_crash(0.05, 0));
  service::CampaignService svc(opts);

  constexpr int kClients = 10;
  std::vector<service::Response> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto req = (i % 2 == 0) ? req_a : req_b;
      if (i == kClients - 1) req.workloads = {"BOGUS"};  // one bad client
      responses[static_cast<std::size_t>(i)] = svc.execute(req);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    const auto& r = responses[static_cast<std::size_t>(i)];
    if (i == kClients - 1) {
      EXPECT_EQ(r.status, service::Status::Error);
      EXPECT_FALSE(r.reason.empty());
      continue;
    }
    ASSERT_EQ(r.status, service::Status::Ok) << r.reason;
    // Chaos was injected and retried away: every surviving response matches
    // the clean run bit-for-bit.
    EXPECT_EQ(r.fingerprint, i % 2 == 0 ? clean_a : clean_b);
    for (const auto& cell : r.result.cells) EXPECT_EQ(cell.failures, 0);
  }

  svc.drain();

  // The cache survived the stampede: reopen recovers every entry, zero
  // corrupt, and each one decodes.
  service::ResultCache reopened(dir.path);
  const auto st = reopened.stats();
  EXPECT_EQ(st.corrupt, 0);
  EXPECT_EQ(st.torn_bytes, 0);
  EXPECT_EQ(st.recovered, 2);  // one clean cell per distinct request
  EXPECT_TRUE(reopened.lookup(req_a.cell_key("EP", "full")).has_value());
  EXPECT_TRUE(reopened.lookup(req_b.cell_key("IS", "full")).has_value());
}

// ---- the wire: AF_UNIX line-delimited JSON ---------------------------------

namespace {

/// Minimal blocking client for the smoke test: one line out, one line back.
std::string round_trip_line(const std::string& path, const std::string& line) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return "";
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), 0) !=
      static_cast<ssize_t>(out.size())) {
    ::close(fd);
    return "";
  }
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
    const std::size_t nl = reply.find('\n');
    if (nl != std::string::npos) {
      reply.resize(nl);
      break;
    }
  }
  ::close(fd);
  return reply;
}

}  // namespace

TEST(SocketServer, ServesPingStatsSubmitAndShutdownOverTheSocket) {
  const std::string sock = testing::TempDir() + "pcd_test_" +
                           std::to_string(::getpid()) + ".sock";
  service::ServiceOptions opts;
  opts.workers = 2;
  service::CampaignService svc(opts);
  service::SocketServer server(svc, sock);
  std::atomic<bool> shutdown_seen{false};
  server.on_shutdown([&] { shutdown_seen = true; });
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  auto ping = service::json_parse(round_trip_line(sock, "{\"op\":\"ping\"}"));
  ASSERT_TRUE(ping.has_value());
  EXPECT_TRUE(ping->bool_or("ok", false));

  auto submit = service::json_parse(round_trip_line(
      sock,
      "{\"op\":\"submit\",\"workloads\":[\"EP\"],\"scale\":0.01,"
      "\"strategies\":[{\"static_mhz\":1400}]}"));
  ASSERT_TRUE(submit.has_value());
  EXPECT_EQ(submit->str_or("status", "?"), "ok");
  EXPECT_EQ(submit->int_or("cells", 0), 1);
  EXPECT_EQ(submit->str_or("fingerprint", "").size(), 16u);
  const JsonValue* tsv = submit->find("tsv");
  ASSERT_NE(tsv, nullptr);
  EXPECT_NE(tsv->as_string().find("EP"), std::string::npos);

  // Malformed and unknown requests get structured error envelopes.
  auto bad = service::json_parse(round_trip_line(sock, "{\"op\":\"submit\","));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->str_or("status", "?"), "error");
  auto unknown = service::json_parse(round_trip_line(sock, "{\"op\":\"warp\"}"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->str_or("status", "?"), "error");

  auto stats = service::json_parse(round_trip_line(sock, "{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->bool_or("ok", false));
  const JsonValue* cache = stats->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->int_or("misses", -1), 1);

  auto bye = service::json_parse(round_trip_line(sock, "{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(bye->bool_or("ok", false));
  for (int i = 0; i < 200 && !shutdown_seen; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(shutdown_seen);
  server.stop();
  svc.drain();
  EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(SocketServer, ResponseJsonCarriesTheRejectionEnvelope) {
  service::Response r;
  r.status = service::Status::Rejected;
  r.reason = "admission queue full (8 waiting); shedding load";
  r.retry_after_s = 2.5;
  const JsonValue v = service::response_to_json(r);
  EXPECT_EQ(v.str_or("status", "?"), "rejected");
  EXPECT_DOUBLE_EQ(v.num_or("retry_after_s", 0), 2.5);
  EXPECT_NE(v.str_or("reason", "").find("queue full"), std::string::npos);
  // Strict both ways: the envelope itself re-parses.
  EXPECT_TRUE(service::json_parse(v.write()).has_value());
}
