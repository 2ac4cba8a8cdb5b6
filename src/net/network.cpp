#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcd::net {

Network::Network(sim::Engine& engine, int nodes, NetworkParams params, sim::Rng rng,
                 sim::InlineFunction<void(int, int)> nic_activity)
    : engine_(engine),
      params_(params),
      rng_(rng),
      nic_activity_(std::move(nic_activity)),
      egress_(nodes),
      ingress_(nodes) {
  if (nodes <= 0) throw std::invalid_argument("network needs at least one node");
  for (const auto& [field, message] : validate_params(params_)) {
    throw std::invalid_argument(field + ": " + message);
  }
  links_ = std::vector<std::optional<sim::Event>>(static_cast<std::size_t>(nodes));
  for (auto& link : links_) {
    link.emplace(engine_);
    link->set();  // links start up
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
  if (up) {
    links_.at(node)->set();  // wakes every transfer stalled on this link
  } else {
    links_.at(node)->reset();
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

void Network::release(Port& port) {
  if (!port.waiters.empty()) {
    auto h = port.waiters.pop_front();
    // Hand the (still busy) port to the next waiter, FIFO.
    engine_.schedule_in(0, [h] { h.resume(); }, "net.port_handoff");
  } else {
    port.busy = false;
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
  sim::spawn(engine_, transfer_proc(src, dst, bytes, speed_ratio, delivered));
}

sim::Process Network::transfer_proc(int src, int dst, std::int64_t bytes,
                                    double speed_ratio, sim::Continuation delivered) {
  // NIC send queue: a sender's messages go out in posting order
  // (head-of-line), then the message waits for the receiver's port.
  co_await PortAcquire{&egress_[src]};
  co_await PortAcquire{&ingress_[dst]};

  // Link flap: holding the ports (head-of-line, like a real NIC with a dead
  // carrier), wait for both ends to come back up.  Free when healthy: a
  // signaled Event short-circuits without suspending.
  if (!links_[src]->signaled() || !links_[dst]->signaled()) {
    ++stats_.link_stalls;
    while (!links_[src]->signaled()) co_await links_[src]->wait();
    while (!links_[dst]->signaled()) co_await links_[dst]->wait();
  }

  const double wire_s = static_cast<double>(bytes) * 8.0 /
                        (params_.bandwidth_mbps * bandwidth_factor_ * 1e6);
  sim::SimDuration service = sim::from_seconds(wire_s);

  // Collision draw at wire start: risk grows with offered load and with
  // the injection speed ratio (paper §5.2's retransmission hypothesis).
  // The draw happens under exactly the same conditions as the healthy model
  // unless a fault adds a flat boost, so an inert fault plan perturbs no
  // RNG stream.
  const int excess = in_flight_ - params_.collision_free_transfers;
  const bool base_risk = excess > 0 && bytes >= params_.collision_min_bytes;
  if (base_risk || collision_boost_ > 0) {
    double p = base_risk
                   ? std::min(params_.collision_prob_cap,
                              params_.collision_coeff * excess *
                                  std::pow(speed_ratio, params_.collision_speed_exponent))
                   : 0.0;
    if (collision_boost_ > 0) p = std::min(0.95, p + collision_boost_);
    if (rng_.bernoulli(p)) {
      const auto span = static_cast<std::uint64_t>(
          params_.backoff_min >= params_.backoff_max
              ? 0
              : params_.backoff_max - params_.backoff_min);
      const sim::SimDuration backoff =
          params_.backoff_min +
          (span == 0 ? 0 : static_cast<sim::SimDuration>(rng_.uniform_int(span + 1)));
      service += backoff;
      ++stats_.collisions;
      stats_.backoff_ns += backoff;
      if (m_collisions_ != nullptr) {
        m_collisions_->inc();
        m_backoff_s_->inc(sim::to_seconds(backoff));
      }
    }
  }

  if (nic_activity_) {
    nic_activity_(src, +1);
    nic_activity_(dst, +1);
  }
  co_await sim::delay(service);
  if (nic_activity_) {
    nic_activity_(src, -1);
    nic_activity_(dst, -1);
  }
  release(egress_[src]);
  release(ingress_[dst]);

  co_await sim::delay(params_.latency);
  --in_flight_;
  delivered();
}

}  // namespace pcd::net
