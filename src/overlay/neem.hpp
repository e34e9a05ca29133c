// NeEM-style connection-oriented overlay membership — the overlay the
// paper's implementation actually runs on (§5.2: "NeEM uses TCP/IP
// connections between nodes ... the membership management algorithm
// periodically shuffles peers with neighbors", §6.1).
//
// Unlike Cyclon's descriptor swapping, NeEM membership is a set of
// *established connections*: links exist only after an explicit
// CONNECT/ACCEPT handshake, are symmetric by construction, and are torn
// down with CLOSE (or by failure detection — probes stand in for TCP
// connection breakage, which the simulator's datagrams cannot signal).
// Periodic shuffles gossip neighbor *addresses*; learning a new address
// triggers a connection attempt, and an over-full node sheds a random
// connection, which is what keeps the overlay degree near the target and
// the graph continuously mixing (the paper's Fig. 4 note that "connections
// shown may have not existed simultaneously").
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {

struct NeemParams {
  /// Target connection count (the paper's overlay fanout, 15).
  std::uint32_t target_degree = 15;
  /// Hard cap before shedding (slack avoids churn storms on join bursts).
  std::uint32_t max_degree = 20;
  /// Shuffle period and addresses per shuffle.
  SimTime shuffle_period = 1 * kSecond;
  std::uint32_t shuffle_size = 4;
  /// Probability of swapping an existing connection for a shuffled-in
  /// address when the view is already full. This is what keeps the
  /// overlay continuously mixing (§6.1: "the membership management
  /// algorithm periodically shuffles peers with neighbors"; §5.4 counts
  /// ~15000 distinct connections against ~550 simultaneous ones).
  double replace_probability = 0.08;
  /// Connection probe period; a neighbor missing
  /// `probe_loss_threshold` consecutive probe replies is declared broken.
  SimTime probe_period = 500 * kMillisecond;
  std::uint32_t probe_loss_threshold = 3;
};

struct NeemPacket final : net::PacketOf<net::PacketType::neem> {
  enum class Kind : std::uint8_t {
    connect,
    accept,
    reject,
    close,
    shuffle,
    probe,
    probe_ack,
  };
  Kind kind = Kind::connect;
  std::vector<NodeId> addresses;  // shuffle payload

  std::size_t wire_bytes() const { return 26 + addresses.size() * 4; }
};

/// One node's NeEM membership agent; PeerSampler over its established
/// connections.
class NeemNode final : public PeerSampler {
 public:
  NeemNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
           NeemParams params, Rng rng);

  /// Attempts connections to the given contacts (the join step).
  void bootstrap(const std::vector<NodeId>& contacts);

  /// Starts periodic shuffling and probing.
  void start();
  void stop();

  void handle_packet(NodeId src, const NeemPacket& p);

  // PeerSampler over established connections.
  void sample_into(std::size_t f, std::vector<NodeId>& out) override;

  const std::vector<NodeId>& connections() const { return connected_; }
  bool connected_to(NodeId id) const;
  std::uint64_t connections_opened() const { return opened_; }
  std::uint64_t connections_closed() const { return closed_; }

 private:
  void open(NodeId peer);
  void drop(NodeId peer, bool send_close);
  void shed_if_over(std::uint32_t cap);
  void send(NodeId dst, NeemPacket packet);
  void shuffle_tick();
  void probe_tick();

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  NeemParams params_;
  Rng rng_;
  std::vector<NodeId> connected_;
  std::vector<std::uint32_t> missed_;  // probe misses, parallel to connected_
  std::vector<NodeId> pending_;       // CONNECTs awaiting ACCEPT/REJECT
  sim::PeriodicTimer shuffle_timer_;
  sim::PeriodicTimer probe_timer_;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
};

}  // namespace esm::overlay
