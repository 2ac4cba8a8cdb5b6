#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/frame_pool.hpp"

namespace pcd::net {

namespace {

// Checked before any per-node vector is sized from it: a negative count
// would reach std::vector as a huge size_t and throw std::length_error.
int checked_node_count(int nodes) {
  if (nodes <= 0) throw std::invalid_argument("network needs at least one node");
  return nodes;
}

}  // namespace

Network::Network(sim::Engine& engine, int nodes, NetworkParams params, sim::Rng rng,
                 std::function<void(int, int)> nic_activity)
    : engine_(engine),
      params_(params),
      rng_(rng),
      nic_activity_(std::move(nic_activity)),
      egress_(checked_node_count(nodes)),
      ingress_(nodes),
      links_(nodes) {
  for (const auto& [field, message] : validate_params(params_)) {
    throw std::invalid_argument(field + ": " + message);
  }
}

std::vector<std::pair<std::string, std::string>> Network::validate_params(
    const NetworkParams& params, const std::string& prefix) {
  std::vector<std::pair<std::string, std::string>> issues;
  if (params.latency <= 0) {
    issues.emplace_back(prefix + ".latency",
                        "link latency must be strictly positive: a zero "
                        "latency silently breaks conservative lookahead "
                        "(min_latency() bounds cross-shard delivery)");
  }
  if (!(params.bandwidth_mbps > 0)) {
    issues.emplace_back(prefix + ".bandwidth_mbps",
                        "per-port bandwidth must be strictly positive");
  }
  return issues;
}

void Network::set_bandwidth_factor(double factor) {
  bandwidth_factor_ = std::clamp(factor, 0.01, 1.0);
}

void Network::set_collision_boost(double boost) {
  collision_boost_ = std::clamp(boost, 0.0, 0.95);
}

void Network::set_link_up(int node, bool up) {
  Link& link = links_.at(static_cast<std::size_t>(node));
  if (!up || link.up) {
    link.up = up;
    return;
  }
  link.up = true;
  // Wake every transfer stalled on this link, in stall order.
  while (!link.waiters.empty()) {
    engine_.schedule_in(0, link.waiters.pop_front(), "event.set");
  }
}

void Network::attach_telemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    m_transfers_ = m_bytes_ = m_collisions_ = m_backoff_s_ = nullptr;
    return;
  }
  auto& reg = hub->registry();
  reg.set_help("net_transfers_total", "Point-to-point wire transfers completed");
  reg.set_help("net_bytes_total", "Payload bytes carried over the network");
  reg.set_help("net_collisions_total", "Transfers that hit a busy port and backed off");
  reg.set_help("net_backoff_seconds_total", "Simulated seconds spent in collision backoff");
  m_transfers_ = &reg.counter("net_transfers_total");
  m_bytes_ = &reg.counter("net_bytes_total");
  m_collisions_ = &reg.counter("net_collisions_total");
  m_backoff_s_ = &reg.counter("net_backoff_seconds_total");
}

sim::SimDuration Network::uncontended_time(std::int64_t bytes) const {
  const double wire_s = static_cast<double>(bytes) * 8.0 / (params_.bandwidth_mbps * 1e6);
  return params_.latency + sim::from_seconds(wire_s);
}

// ---- transfers --------------------------------------------------------------
//
// One record per transfer, stepped by engine, port and link callbacks.  The
// site labels are a contract: the event digest folds (t, seq, parent, site),
// so digest roots, goldens and perfbench's sim.site.* counts depend on when
// and under which label each step is scheduled; tests/test_net.cpp
// NetPinned.* pins every branch.

struct Network::Transfer {
  Network* net;
  int src;
  int dst;
  std::int64_t bytes;
  double speed_ratio;
  sim::Continuation delivered;
  Transfer* prev;  // Network::live_ list
  Transfer* next;
};

Network::~Network() {
  while (live_ != nullptr) free_transfer(*live_);
}

void Network::free_transfer(Transfer& t) {
  if (t.prev != nullptr) {
    t.prev->next = t.next;
  } else {
    live_ = t.next;
  }
  if (t.next != nullptr) t.next->prev = t.prev;
  sim::pool_free(&t, sizeof(Transfer));
}

bool Network::acquire(Port& port, sim::Continuation next) {
  if (!port.busy) {
    port.busy = true;
    return true;
  }
  port.waiters.push_back(next);
  return false;
}

void Network::release(Port& port) {
  if (!port.waiters.empty()) {
    // Hand the (still busy) port to the next waiter, FIFO.
    engine_.schedule_in(0, port.waiters.pop_front(), "net.port_handoff");
  } else {
    port.busy = false;
  }
}

void Network::after(sim::SimDuration dt, Transfer& t, void (*step)(void*)) {
  if (dt <= 0) {
    step(&t);
  } else {
    engine_.schedule_in(dt, sim::Continuation{step, &t}, "process.delay");
  }
}

void Network::start_transfer(int src, int dst, std::int64_t bytes, double speed_ratio,
                             sim::Continuation delivered) {
  if (src == dst) {  // local copy: no wire, negligible time
    engine_.schedule_in(0, delivered, "net.local_copy");
    return;
  }
  ++in_flight_;
  ++stats_.transfers;
  stats_.bytes += bytes;
  if (m_transfers_ != nullptr) {
    m_transfers_->inc();
    m_bytes_->inc(static_cast<double>(bytes));
  }
  auto* t = ::new (sim::pool_alloc(sizeof(Transfer)))
      Transfer{this, src, dst, bytes, speed_ratio, delivered, nullptr, live_};
  if (live_ != nullptr) live_->prev = t;
  live_ = t;
  engine_.schedule_in(0, sim::Continuation{&transfer_egress, t}, "process.spawn");
}

void Network::transfer_egress(void* p) {
  // NIC send queue: a sender's messages go out in posting order
  // (head-of-line), then the message waits for the receiver's port.
  auto& t = *static_cast<Transfer*>(p);
  if (acquire(t.net->egress_[static_cast<std::size_t>(t.src)], {&transfer_ingress, &t})) {
    transfer_ingress(&t);
  }
}

void Network::transfer_ingress(void* p) {
  auto& t = *static_cast<Transfer*>(p);
  if (acquire(t.net->ingress_[static_cast<std::size_t>(t.dst)], {&transfer_links, &t})) {
    transfer_links(&t);
  }
}

void Network::transfer_links(void* p) {
  // Link flap: holding the ports (head-of-line, like a real NIC with a dead
  // carrier), wait for the source link, then for the destination link.
  auto& t = *static_cast<Transfer*>(p);
  Network& net = *t.net;
  if (!net.links_[static_cast<std::size_t>(t.src)].up ||
      !net.links_[static_cast<std::size_t>(t.dst)].up) {
    ++net.stats_.link_stalls;
    transfer_wait_src(&t);
    return;
  }
  transfer_wire(&t);
}

void Network::transfer_wait_src(void* p) {
  // Re-checked on every wake: the link may have dropped again meanwhile.
  auto& t = *static_cast<Transfer*>(p);
  Link& link = t.net->links_[static_cast<std::size_t>(t.src)];
  if (!link.up) {
    link.waiters.push_back({&transfer_wait_src, &t});
    return;
  }
  transfer_wait_dst(&t);
}

void Network::transfer_wait_dst(void* p) {
  // The source is not checked again once its wait is over.
  auto& t = *static_cast<Transfer*>(p);
  Link& link = t.net->links_[static_cast<std::size_t>(t.dst)];
  if (!link.up) {
    link.waiters.push_back({&transfer_wait_dst, &t});
    return;
  }
  transfer_wire(&t);
}

void Network::transfer_wire(void* p) {
  auto& t = *static_cast<Transfer*>(p);
  Network& net = *t.net;
  const NetworkParams& params = net.params_;
  const double wire_s = static_cast<double>(t.bytes) * 8.0 /
                        (params.bandwidth_mbps * net.bandwidth_factor_ * 1e6);
  sim::SimDuration service = sim::from_seconds(wire_s);

  // Collision draw at wire start: risk grows with offered load and with
  // the injection speed ratio (paper §5.2's retransmission hypothesis).
  // The draw happens under exactly the same conditions as the healthy model
  // unless a fault adds a flat boost, so an inert fault plan perturbs no
  // RNG stream.
  const int excess = net.in_flight_ - params.collision_free_transfers;
  const bool base_risk = excess > 0 && t.bytes >= params.collision_min_bytes;
  if (base_risk || net.collision_boost_ > 0) {
    double prob = base_risk
                      ? std::min(params.collision_prob_cap,
                                 params.collision_coeff * excess *
                                     std::pow(t.speed_ratio, params.collision_speed_exponent))
                      : 0.0;
    if (net.collision_boost_ > 0) prob = std::min(0.95, prob + net.collision_boost_);
    if (net.rng_.bernoulli(prob)) {
      const auto span = static_cast<std::uint64_t>(
          params.backoff_min >= params.backoff_max ? 0
                                                   : params.backoff_max - params.backoff_min);
      const sim::SimDuration backoff =
          params.backoff_min +
          (span == 0 ? 0 : static_cast<sim::SimDuration>(net.rng_.uniform_int(span + 1)));
      service += backoff;
      ++net.stats_.collisions;
      net.stats_.backoff_ns += backoff;
      if (net.m_collisions_ != nullptr) {
        net.m_collisions_->inc();
        net.m_backoff_s_->inc(sim::to_seconds(backoff));
      }
    }
  }

  if (net.nic_activity_) {
    net.nic_activity_(t.src, +1);
    net.nic_activity_(t.dst, +1);
  }
  net.after(service, t, &transfer_wire_done);
}

void Network::transfer_wire_done(void* p) {
  auto& t = *static_cast<Transfer*>(p);
  Network& net = *t.net;
  if (net.nic_activity_) {
    net.nic_activity_(t.src, -1);
    net.nic_activity_(t.dst, -1);
  }
  net.release(net.egress_[static_cast<std::size_t>(t.src)]);
  net.release(net.ingress_[static_cast<std::size_t>(t.dst)]);
  net.after(net.params_.latency, t, &transfer_deliver);
}

void Network::transfer_deliver(void* p) {
  auto& t = *static_cast<Transfer*>(p);
  Network& net = *t.net;
  const sim::Continuation delivered = t.delivered;
  --net.in_flight_;
  net.free_transfer(t);
  delivered();
}

}  // namespace pcd::net
