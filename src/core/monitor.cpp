#include "core/monitor.hpp"

#include <limits>

#include "core/message.hpp"

namespace esm::core {

PingMonitor::PingMonitor(sim::Simulator& sim, net::Transport& transport,
                         NodeId self, overlay::PeerSampler& sampler,
                         Params params, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      sampler_(sampler),
      params_(params),
      rng_(rng),
      timer_(sim, [this] { tick(); }) {
  ESM_CHECK(params.alpha > 0.0 && params.alpha <= 1.0,
            "EWMA gain must be in (0, 1]");
}

void PingMonitor::start() {
  timer_.start(rng_.range(0, params_.period - 1), params_.period);
}

void PingMonitor::stop() { timer_.stop(); }

void PingMonitor::tick() {
  std::vector<NodeId> peers = std::move(peers_scratch_);
  sampler_.sample_into(params_.fanout, peers);
  for (const NodeId peer : peers) {
    auto ping = net::make_packet<PingPacket>();
    ping->sent_at = sim_.now();
    ping->is_pong = false;
    transport_.send(self_, peer, std::move(ping), kControlBytes,
                    /*is_payload=*/false);
  }
  peers_scratch_ = std::move(peers);
}

void PingMonitor::handle_packet(NodeId src, const PingPacket& ping) {
  if (!ping.is_pong) {
    auto pong = net::make_packet<PingPacket>();
    pong->sent_at = ping.sent_at;  // echoed so the pinger needs no state
    pong->is_pong = true;
    transport_.send(self_, src, std::move(pong), kControlBytes,
                    /*is_payload=*/false);
    return;
  }

  const auto rtt = static_cast<double>(sim_.now() - ping.sent_at);
  auto [srtt, inserted] = srtt_us_.try_emplace(src);
  if (inserted) {
    *srtt = rtt;
  } else {
    *srtt += params_.alpha * (rtt - *srtt);
  }
}

double PingMonitor::metric(NodeId self, NodeId peer) const {
  ESM_CHECK(self == self_, "PingMonitor is per-node");
  const double* srtt = srtt_us_.find(peer);
  if (srtt == nullptr) return std::numeric_limits<double>::infinity();
  return to_ms(static_cast<SimTime>(*srtt / 2.0));
}

void PiggybackMonitor::observe(NodeId peer, SimTime rtt) {
  const auto sample = static_cast<double>(rtt);
  auto [srtt, inserted] = srtt_us_.try_emplace(peer);
  if (inserted) {
    *srtt = sample;
  } else {
    *srtt += alpha_ * (sample - *srtt);
  }
}

double PiggybackMonitor::metric(NodeId self, NodeId peer) const {
  ESM_CHECK(self == self_, "PiggybackMonitor is per-node");
  const double* srtt = srtt_us_.find(peer);
  if (srtt == nullptr) return std::numeric_limits<double>::infinity();
  return *srtt / 2.0 / kMillisecond;
}

}  // namespace esm::core
