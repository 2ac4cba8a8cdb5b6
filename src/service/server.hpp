// Line-delimited JSON over an AF_UNIX stream socket: the campaign
// service's wire.  One request object per line, one response object per
// line, strictly parsed on both sides (service/json.hpp).
//
// Ops:
//   {"op":"ping"}                  -> {"ok":true,"op":"ping"}
//   {"op":"stats"}                 -> queue depth, cache stats, counters
//   {"op":"submit", ...SpecRequest fields...}
//                                  -> the structured Response (status,
//                                     reason, retry_after_s, fingerprint,
//                                     cache hits/misses, retries, tsv,
//                                     flight recordings on failures)
//   {"op":"shutdown"}              -> {"ok":true}, then the on_shutdown
//                                     hook fires (the binary drains)
//
// Every connection gets its own thread, so concurrent clients map to
// concurrent CampaignService::execute calls — admission control, not the
// socket accept loop, is what bounds the work.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hpp"
#include "service/service.hpp"

namespace pcd::service {

/// The wire form of a Response (shared by server, client, and tests).
/// `include_result` controls the heavyweight members (tsv, table, flight
/// recordings); rejection/error envelopes do not need them.
JsonValue response_to_json(const Response& r, bool include_result = true);

class SocketServer {
 public:
  /// Longest request line a connection may send.  A longer one gets a
  /// structured error reply and the connection is closed.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  SocketServer(CampaignService& service, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread.  False + `error` on any
  /// socket failure (path too long, address in use, ...).
  bool start(std::string* error = nullptr);

  /// Closes the listener and every open connection, joins all threads,
  /// unlinks the socket path.  Idempotent.
  void stop();

  const std::string& path() const { return path_; }

  /// Invoked (once) after a client's {"op":"shutdown"} response is written.
  void on_shutdown(std::function<void()> fn) { on_shutdown_ = std::move(fn); }

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  std::string handle_line(const std::string& line, bool* shutdown_requested);

  CampaignService& service_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_fired_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
  std::function<void()> on_shutdown_;
};

}  // namespace pcd::service
