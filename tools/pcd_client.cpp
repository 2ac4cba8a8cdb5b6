// pcd_client: submit a campaign to a running pcd_service and print the TSV.
//
//   pcd_client --socket /tmp/pcd.sock --workload FT --workload CG
//              --static 1400 --daemon v1.2.1 --trials 3 --scale 0.02
//              [--seed N] [--deadline-s S] [--budget-s S] [--no-digests]
//              [--spec FILE] [--op ping|stats|submit|shutdown] [--quiet]
//
// The request is strict line-delimited JSON (service/json.hpp — the same
// parser the server and the exporter tests use).  While the submission is
// in flight the client polls {"op":"stats"} on a second connection and
// reports queue depth to stderr; the result TSV goes to stdout and a
// one-line machine-readable summary (status, fingerprint, cache hit ratio,
// throughput) goes to stderr — CI greps it.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "parse_number.hpp"
#include "service/json.hpp"

namespace {

using pcd::service::JsonValue;

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long";
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = std::string("connect ") + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string data = line + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line; between reads, waits in poll() and calls
/// `on_tick` roughly every 200 ms (progress polling).  Empty optional on
/// EOF/error.
std::optional<std::string> read_line(int fd, const std::function<void()>& on_tick) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (pr == 0) {
      if (on_tick) on_tick();
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) return buffer.substr(0, nl);
  }
}

/// One request/response exchange on a fresh connection (stats polling).
std::optional<JsonValue> one_shot(const std::string& socket_path,
                                  const std::string& line) {
  std::string err;
  const int fd = connect_unix(socket_path, &err);
  if (fd < 0) return std::nullopt;
  std::optional<JsonValue> out;
  if (send_line(fd, line)) {
    if (auto reply = read_line(fd, nullptr); reply.has_value()) {
      out = pcd::service::json_parse(*reply);
    }
  }
  ::close(fd);
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--spec FILE] [--workload NAME]...\n"
               "          [--static MHZ]... [--daemon v1.1|v1.2.1]...\n"
               "          [--scale S] [--trials N] [--seed N] [--no-digests]\n"
               "          [--deadline-s S] [--budget-s S]\n"
               "          [--op ping|stats|submit|shutdown] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, spec_file, op = "submit";
  std::vector<std::string> workloads, daemons;
  std::vector<int> statics;
  double scale = -1, deadline_s = -1, budget_s = -1;
  long long trials = -1, seed = -1;
  bool no_digests = false, quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    auto number = [&](auto* out) {
      return pcd::tools::parse_number("pcd_client", arg.c_str(), v, out);
    };
    bool ok = true;
    if (arg == "--socket" && (v = next())) socket_path = v;
    else if (arg == "--spec" && (v = next())) spec_file = v;
    else if (arg == "--workload" && (v = next())) workloads.push_back(v);
    else if (arg == "--static" && (v = next())) ok = number(&statics.emplace_back());
    else if (arg == "--daemon" && (v = next())) daemons.push_back(v);
    else if (arg == "--scale" && (v = next())) ok = number(&scale);
    else if (arg == "--trials" && (v = next())) ok = number(&trials);
    else if (arg == "--seed" && (v = next())) ok = number(&seed);
    else if (arg == "--deadline-s" && (v = next())) ok = number(&deadline_s);
    else if (arg == "--budget-s" && (v = next())) ok = number(&budget_s);
    else if (arg == "--no-digests") no_digests = true;
    else if (arg == "--op" && (v = next())) op = v;
    else if (arg == "--quiet") quiet = true;
    else return usage(argv[0]);
    if (!ok) return usage(argv[0]);
  }
  if (socket_path.empty()) return usage(argv[0]);

  // Build the request object: spec file first, inline flags override.
  JsonValue req = JsonValue::object();
  if (!spec_file.empty()) {
    std::ifstream in(spec_file);
    if (!in) {
      std::fprintf(stderr, "pcd_client: cannot read %s\n", spec_file.c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    pcd::service::JsonError jerr;
    auto parsed = pcd::service::json_parse(text, &jerr);
    if (!parsed.has_value() || !parsed->is_object()) {
      std::fprintf(stderr, "pcd_client: %s: bad JSON at byte %zu: %s\n",
                   spec_file.c_str(), jerr.pos, jerr.message.c_str());
      return 1;
    }
    req = std::move(*parsed);
  }
  req.set("op", JsonValue::of(op));
  if (!workloads.empty()) {
    JsonValue ws = JsonValue::array();
    for (const auto& w : workloads) ws.push(JsonValue::of(w));
    req.set("workloads", std::move(ws));
  }
  if (!statics.empty() || !daemons.empty()) {
    JsonValue ss = JsonValue::array();
    for (int mhz : statics) {
      JsonValue p = JsonValue::object();
      p.set("static_mhz", JsonValue::of(mhz));
      ss.push(std::move(p));
    }
    for (const auto& d : daemons) {
      JsonValue p = JsonValue::object();
      p.set("daemon", JsonValue::of(d));
      ss.push(std::move(p));
    }
    req.set("strategies", std::move(ss));
  }
  if (scale > 0) req.set("scale", JsonValue::of(scale));
  if (trials > 0) req.set("trials", JsonValue::of(static_cast<std::int64_t>(trials)));
  if (seed >= 0) req.set("seed", JsonValue::of(static_cast<std::int64_t>(seed)));
  if (deadline_s >= 0) req.set("deadline_s", JsonValue::of(deadline_s));
  if (budget_s >= 0) req.set("budget_s", JsonValue::of(budget_s));
  if (no_digests) req.set("digests", JsonValue::of(false));

  std::string err;
  const int fd = connect_unix(socket_path, &err);
  if (fd < 0) {
    std::fprintf(stderr, "pcd_client: %s\n", err.c_str());
    return 1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (!send_line(fd, req.write())) {
    std::fprintf(stderr, "pcd_client: send failed\n");
    ::close(fd);
    return 1;
  }

  // Progress: poll server stats on a side connection while we wait.
  int ticks = 0;
  auto on_tick = [&] {
    if (quiet || op != "submit") return;
    if (++ticks % 5 != 0) return;  // every ~1 s
    if (auto stats = one_shot(socket_path, "{\"op\":\"stats\"}");
        stats.has_value()) {
      std::fprintf(stderr, "pcd_client: waiting... queue_depth=%lld\n",
                   static_cast<long long>(stats->int_or("queue_depth", -1)));
    }
  };
  const auto reply_text = read_line(fd, on_tick);
  ::close(fd);
  if (!reply_text.has_value()) {
    std::fprintf(stderr, "pcd_client: connection closed without a response\n");
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  pcd::service::JsonError jerr;
  auto reply = pcd::service::json_parse(*reply_text, &jerr);
  if (!reply.has_value() || !reply->is_object()) {
    std::fprintf(stderr, "pcd_client: unparseable response at byte %zu: %s\n",
                 jerr.pos, jerr.message.c_str());
    return 1;
  }

  if (op != "submit") {
    std::printf("%s\n", reply->write().c_str());
    return reply->bool_or("ok", false) ? 0 : 1;
  }

  const std::string status = reply->str_or("status", "error");
  const std::int64_t hits = reply->int_or("cache_hits", 0);
  const std::int64_t misses = reply->int_or("cache_misses", 0);
  const std::int64_t cells = reply->int_or("cells", 0);
  const double hit_ratio =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  std::fprintf(stderr,
               "pcd_client: status=%s fingerprint=%s cells=%lld"
               " cell_failures=%lld cache_hits=%lld cache_misses=%lld"
               " hit_ratio=%.2f retries=%lld wall_s=%.3f"
               " throughput_cells_per_s=%.3f\n",
               status.c_str(), reply->str_or("fingerprint", "-").c_str(),
               static_cast<long long>(cells),
               static_cast<long long>(reply->int_or("cell_failures", 0)),
               static_cast<long long>(hits), static_cast<long long>(misses),
               hit_ratio, static_cast<long long>(reply->int_or("retries", 0)),
               wall_s,
               wall_s > 0 ? static_cast<double>(cells) / wall_s : 0.0);
  if (const JsonValue* reason = reply->find("reason");
      reason != nullptr && reason->is_string()) {
    std::fprintf(stderr, "pcd_client: reason: %s\n", reason->as_string().c_str());
  }
  if (const JsonValue* dumps = reply->find("flight_recordings");
      dumps != nullptr && dumps->is_array() && !quiet) {
    std::fprintf(stderr, "pcd_client: %zu flight recording(s) attached\n",
                 dumps->items().size());
  }
  if (const JsonValue* tsv = reply->find("tsv");
      tsv != nullptr && tsv->is_string()) {
    std::fputs(tsv->as_string().c_str(), stdout);
  }
  return status == "ok" ? 0 : 1;
}
