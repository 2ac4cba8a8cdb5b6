// Campaign service demo: the resilient server end to end, in process.
//
// Submits a small Figure-5-shaped campaign (NPB codes x {static 1400 MHz,
// CPUSPEED v1.2.1}) twice against a disk-backed result cache: the cold
// pass computes and persists every cell, the warm pass is served entirely
// from the cache — same fingerprint, a fraction of the wall time.  Then it
// demonstrates the robustness layer: load shedding on a full admission
// queue, and a chaos round where injected crashes are retried until the
// response converges to the clean fingerprint.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "fault/plan.hpp"
#include "service/service.hpp"

using namespace pcd;

namespace {

service::SpecRequest small_fig5(double scale) {
  service::SpecRequest req;
  req.workloads = {"FT", "CG", "EP", "IS"};
  req.scale = scale;
  req.trials = 1;
  req.strategies = {{"1400", 1400, ""}, {"auto", 0, "v1.2.1"}};
  return req;
}

void print(const char* pass, const service::Response& r) {
  std::printf("%-6s status=%-9s cells=%zu hits=%d misses=%d retries=%d"
              " fingerprint=%016llx wall=%.2fs\n",
              pass, service::to_string(r.status), r.result.cells.size(),
              r.cache_hits, r.cache_misses, r.retries,
              static_cast<unsigned long long>(r.fingerprint), r.result.wall_s);
}

}  // namespace

int main() {
  const std::string cache_dir = "/tmp/pcd_service_demo_cache";
  std::filesystem::remove_all(cache_dir);

  service::ServiceOptions opts;
  opts.workers = 2;
  opts.campaign_threads = 0;  // hardware concurrency
  opts.cache_dir = cache_dir;

  std::printf("== cold vs warm (crash-safe result cache) ==\n");
  std::uint64_t clean_fingerprint = 0;
  {
    service::CampaignService svc(opts);
    const auto cold = svc.execute(small_fig5(0.02));
    print("cold", cold);
    const auto warm = svc.execute(small_fig5(0.02));
    print("warm", warm);
    clean_fingerprint = cold.fingerprint;
    std::printf("fingerprints %s; warm served %.0f%% from cache, %.1fx faster\n",
                cold.fingerprint == warm.fingerprint ? "match" : "DIVERGE",
                100.0 * warm.cache_hits /
                    double(warm.cache_hits + warm.cache_misses),
                warm.result.wall_s > 0 ? cold.result.wall_s / warm.result.wall_s
                                       : 0.0);
    svc.drain();  // finishes every request and fsyncs the cache log
  }

  std::printf("\n== recovery + admission control ==\n");
  {
    service::ServiceOptions tight = opts;
    tight.workers = 1;
    tight.max_queue = 1;
    service::CampaignService svc(tight);
    const auto cs = svc.cache_stats();
    std::printf("reopened cache: %lld entries recovered, %lld corrupt\n",
                static_cast<long long>(cs.recovered),
                static_cast<long long>(cs.corrupt));
    // Three tickets against one worker + one queue slot: the third sheds.
    auto t1 = svc.submit(small_fig5(0.02));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // worker takes #1
    auto t2 = svc.submit(small_fig5(0.02));
    auto t3 = svc.submit(small_fig5(0.02));
    const auto r3 = svc.wait(t3);
    std::printf("third submission: %s (%s; retry_after=%.2fs)\n",
                service::to_string(r3.status), r3.reason.c_str(),
                r3.retry_after_s);
    print("q#1", svc.wait(t1));
    print("q#2", svc.wait(t2));
    svc.drain();
  }

  std::printf("\n== chaos: injected crashes, retried to convergence ==\n");
  {
    service::ServiceOptions chaotic = opts;
    chaotic.cache_dir = "";  // isolate from the warm cache for the demo
    chaotic.chaos.probability = 1.0;  // every first attempt runs under faults
    chaotic.chaos.plan.events.push_back(fault::node_crash(0.5, 0));
    chaotic.max_retries = 2;
    service::CampaignService svc(chaotic);
    const auto chaos = svc.execute(small_fig5(0.02));
    print("chaos", chaos);
    std::printf("chaos response %s the clean fingerprint after %d retries\n",
                chaos.fingerprint == clean_fingerprint ? "CONVERGED to"
                                                       : "diverged from",
                chaos.retries);
  }
  return 0;
}
