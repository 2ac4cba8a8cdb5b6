// pcd_service: the campaign server binary.
//
//   pcd_service --socket /tmp/pcd.sock [--cache-dir DIR] [--workers N]
//               [--campaign-threads N] [--max-queue N] [--deadline-s S]
//               [--budget-s S] [--max-retries N] [--no-cache-sync]
//
// Serves line-delimited JSON campaign submissions (see service/server.hpp)
// until SIGINT/SIGTERM or a client {"op":"shutdown"}; both paths drain
// gracefully: admission stops, in-flight campaigns finish, the cache log
// is fsynced.  On startup the crash-safe result cache is recovered and a
// one-line report of what survived is printed — CI's kill -9 test greps it.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.hpp"
#include "service/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--cache-dir DIR] [--workers N]\n"
               "          [--campaign-threads N] [--max-queue N]\n"
               "          [--deadline-s S] [--budget-s S] [--max-retries N]\n"
               "          [--no-cache-sync]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  pcd::service::ServiceOptions opts;
  opts.workers = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--socket" && (v = next())) {
      socket_path = v;
    } else if (arg == "--cache-dir" && (v = next())) {
      opts.cache_dir = v;
    } else if (arg == "--workers" && (v = next())) {
      opts.workers = std::atoi(v);
    } else if (arg == "--campaign-threads" && (v = next())) {
      opts.campaign_threads = std::atoi(v);
    } else if (arg == "--max-queue" && (v = next())) {
      opts.max_queue = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--deadline-s" && (v = next())) {
      opts.default_deadline_s = std::atof(v);
    } else if (arg == "--budget-s" && (v = next())) {
      opts.default_budget_s = std::atof(v);
    } else if (arg == "--max-retries" && (v = next())) {
      opts.max_retries = std::atoi(v);
    } else if (arg == "--no-cache-sync") {
      opts.cache_sync = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);

  pcd::service::CampaignService service(opts);
  const auto cache = service.cache_stats();
  std::printf("pcd_service: cache recovered %lld entries, %lld corrupt"
              " (%lld torn bytes truncated)\n",
              static_cast<long long>(cache.recovered),
              static_cast<long long>(cache.corrupt),
              static_cast<long long>(cache.torn_bytes));

  pcd::service::SocketServer server(service, socket_path);
  server.on_shutdown([] { g_stop = 1; });
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "pcd_service: %s\n", err.c_str());
    return 1;
  }
  std::printf("pcd_service: listening on %s\n", socket_path.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    timespec ts{0, 50'000'000};  // 50 ms
    nanosleep(&ts, nullptr);
  }

  std::printf("pcd_service: draining\n");
  std::fflush(stdout);
  server.stop();
  service.drain();
  const auto final_cache = service.cache_stats();
  std::printf("pcd_service: drained; cache %lld entries, hit ratio %.2f\n",
              static_cast<long long>(final_cache.entries),
              final_cache.hit_ratio());
  return 0;
}
