#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace pcd::service {

namespace {

/// Sends the whole buffer; MSG_NOSIGNAL so a vanished client is an error
/// return, not a SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

JsonValue response_to_json(const Response& r, bool include_result) {
  JsonValue v = JsonValue::object();
  v.set("status", JsonValue::of(to_string(r.status)));
  if (!r.reason.empty()) v.set("reason", JsonValue::of(r.reason));
  if (r.status == Status::Rejected) {
    v.set("retry_after_s", JsonValue::of(r.retry_after_s));
  }
  v.set("cache_hits", JsonValue::of(r.cache_hits));
  v.set("cache_misses", JsonValue::of(r.cache_misses));
  v.set("retries", JsonValue::of(r.retries));
  if (include_result && (r.status == Status::Ok || r.status == Status::Cancelled)) {
    v.set("fingerprint", JsonValue::of(hex16(r.fingerprint)));
    v.set("cells", JsonValue::of(static_cast<std::int64_t>(r.result.cells.size())));
    std::int64_t failures = 0;
    for (const auto& c : r.result.cells) failures += c.failures;
    v.set("cell_failures", JsonValue::of(failures));
    v.set("wall_s", JsonValue::of(r.result.wall_s));
    v.set("tsv", JsonValue::of(r.result.tsv()));
    if (!r.flight_recordings.empty()) {
      JsonValue dumps = JsonValue::array();
      for (const auto& d : r.flight_recordings) dumps.push(JsonValue::of(d));
      v.set("flight_recordings", std::move(dumps));
    }
  }
  return v;
}

SocketServer::SocketServer(CampaignService& service, std::string socket_path)
    : service_(service), path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + path_;
    return false;
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());  // stale socket from a previous (killed) server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen ") + path_ + ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // The accept thread gets the fd by value: stop() owns the member and
  // closes it only after join(), so the thread never reads a field being
  // reset nor accepts on a descriptor number the process has reused.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  return true;
}

void SocketServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop()) or fatal
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

std::string SocketServer::handle_line(const std::string& line,
                                      bool* shutdown_requested) {
  JsonError jerr;
  auto parsed = json_parse(line, &jerr);
  JsonValue out = JsonValue::object();
  if (!parsed.has_value()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "malformed JSON at byte %zu: %s", jerr.pos,
                  jerr.message.c_str());
    out.set("status", JsonValue::of("error"));
    out.set("reason", JsonValue::of(buf));
    return out.write();
  }
  const std::string op = parsed->str_or("op", "submit");
  if (op == "ping") {
    out.set("ok", JsonValue::of(true));
    out.set("op", JsonValue::of("ping"));
    return out.write();
  }
  if (op == "stats") {
    const CacheStats cs = service_.cache_stats();
    out.set("ok", JsonValue::of(true));
    out.set("op", JsonValue::of("stats"));
    out.set("queue_depth",
            JsonValue::of(static_cast<std::int64_t>(service_.queue_depth())));
    out.set("draining", JsonValue::of(service_.draining()));
    JsonValue cache = JsonValue::object();
    cache.set("entries", JsonValue::of(cs.entries));
    cache.set("hits", JsonValue::of(cs.hits));
    cache.set("misses", JsonValue::of(cs.misses));
    cache.set("inserts", JsonValue::of(cs.inserts));
    cache.set("recovered", JsonValue::of(cs.recovered));
    cache.set("corrupt", JsonValue::of(cs.corrupt));
    cache.set("torn_bytes", JsonValue::of(cs.torn_bytes));
    cache.set("hit_ratio", JsonValue::of(cs.hit_ratio()));
    out.set("cache", std::move(cache));
    return out.write();
  }
  if (op == "shutdown") {
    *shutdown_requested = true;
    out.set("ok", JsonValue::of(true));
    out.set("op", JsonValue::of("shutdown"));
    return out.write();
  }
  if (op == "submit") {
    std::string err;
    auto req = SpecRequest::from_json(*parsed, &err);
    if (!req.has_value()) {
      out.set("status", JsonValue::of("error"));
      out.set("reason", JsonValue::of(err));
      return out.write();
    }
    const Response resp = service_.execute(std::move(*req));
    return response_to_json(resp).write();
  }
  out.set("status", JsonValue::of("error"));
  out.set("reason", JsonValue::of("unknown op '" + op + "'"));
  return out.write();
}

void SocketServer::handle_connection(int fd) {
  std::string buffer;  // the unterminated tail of the bytes received so far
  char chunk[4096];
  bool shutdown_requested = false;
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    // The tail holds no '\n', so only the new bytes are scanned.
    std::size_t from = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;  // start of the next line
    std::size_t nl;
    while (open && (nl = buffer.find('\n', from)) != std::string::npos) {
      if (nl - begin > kMaxLineBytes) break;
      const std::string line = buffer.substr(begin, nl - begin);
      begin = from = nl + 1;
      if (line.empty()) continue;
      const std::string reply = handle_line(line, &shutdown_requested);
      if (!send_all(fd, reply + "\n") || shutdown_requested) open = false;
    }
    buffer.erase(0, begin);
    if (open && buffer.size() > kMaxLineBytes) {
      // The buffer starts with an over-long line, terminated or not: refuse
      // it and hang up rather than buffer without bound.
      JsonValue out = JsonValue::object();
      out.set("status", JsonValue::of("error"));
      out.set("reason", JsonValue::of("request line longer than " +
                                      std::to_string(kMaxLineBytes) + " bytes"));
      send_all(fd, out.write() + "\n");
      open = false;
    }
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
      if (*it == fd) {
        conn_fds_.erase(it);
        break;
      }
    }
  }
  if (shutdown_requested && !shutdown_fired_.exchange(true) && on_shutdown_) {
    on_shutdown_();
  }
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the blocked accept(); close only once the thread is gone.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  ::unlink(path_.c_str());
}

}  // namespace pcd::service
