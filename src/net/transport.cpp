#include "net/transport.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/sharded.hpp"

namespace esm::net {
namespace {

inline std::uint64_t link_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Codec mode's in-transit form of a packet: the sender's wire bytes.
struct EncodedPacket final : Packet {
  std::vector<std::uint8_t> bytes;
};

}  // namespace

RandomLatencyModel::RandomLatencyModel(std::uint32_t n, SimTime lo, SimTime hi,
                                       std::uint64_t seed)
    : n_(n), delays_(std::size_t(n) * n, 0) {
  ESM_CHECK(lo >= 0 && lo <= hi, "invalid latency range");
  Rng rng(seed);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const SimTime d = rng.range(lo, hi);
      delays_[std::size_t(a) * n + b] = d;
      delays_[std::size_t(b) * n + a] = d;
    }
  }
}

SimTime RandomLatencyModel::one_way(NodeId a, NodeId b) const {
  ESM_CHECK(a < n_ && b < n_, "node id out of range");
  return delays_[std::size_t(a) * n_ + b];
}

void TrafficStats::record_send(NodeId src, NodeId dst, std::size_t bytes,
                               bool is_payload) {
  LinkCounters& c = links_[key(src, dst)];
  ++c.packets;
  c.bytes += bytes;
  ++total_packets_;
  total_bytes_ += bytes;
  ++node_sent_packets_.at(src);
  if (is_payload) {
    ++c.payload_packets;
    c.payload_bytes += bytes;
    ++total_payload_packets_;
    ++node_sent_payload_.at(src);
  }
}

void TrafficStats::reset() {
  links_.clear();
  std::fill(node_sent_payload_.begin(), node_sent_payload_.end(), 0);
  std::fill(node_sent_packets_.begin(), node_sent_packets_.end(), 0);
  total_payload_packets_ = 0;
  total_packets_ = 0;
  total_bytes_ = 0;
}

void TrafficStats::merge(const TrafficStats& other) {
  ESM_CHECK(node_sent_payload_.size() == other.node_sent_payload_.size(),
            "cannot merge traffic stats over different node counts");
  for (const auto& [k, c] : other.links_) {
    LinkCounters& mine = links_[k];
    mine.packets += c.packets;
    mine.bytes += c.bytes;
    mine.payload_packets += c.payload_packets;
    mine.payload_bytes += c.payload_bytes;
  }
  for (std::size_t n = 0; n < node_sent_payload_.size(); ++n) {
    node_sent_payload_[n] += other.node_sent_payload_[n];
    node_sent_packets_[n] += other.node_sent_packets_[n];
  }
  total_payload_packets_ += other.total_payload_packets_;
  total_packets_ += other.total_packets_;
  total_bytes_ += other.total_bytes_;
}

const LinkCounters& TrafficStats::link(NodeId src, NodeId dst) const {
  static const LinkCounters kEmpty{};
  const auto it = links_.find(key(src, dst));
  return it == links_.end() ? kEmpty : it->second;
}

std::vector<std::pair<std::pair<NodeId, NodeId>, std::uint64_t>>
TrafficStats::undirected_payload_counts() const {
  std::unordered_map<std::uint64_t, std::uint64_t> undirected;
  for (const auto& [k, counters] : links_) {
    const NodeId src = static_cast<NodeId>(k >> 32);
    const NodeId dst = static_cast<NodeId>(k & 0xffffffffu);
    const NodeId lo = std::min(src, dst);
    const NodeId hi = std::max(src, dst);
    undirected[key(lo, hi)] += counters.payload_packets;
  }
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::uint64_t>> out;
  out.reserve(undirected.size());
  for (const auto& [k, payload] : undirected) {
    out.push_back({{static_cast<NodeId>(k >> 32),
                    static_cast<NodeId>(k & 0xffffffffu)},
                   payload});
  }
  return out;
}

double TrafficStats::top_connection_payload_share(double fraction) const {
  auto connections = undirected_payload_counts();
  if (connections.empty() || total_payload_packets_ == 0) return 0.0;
  std::sort(connections.begin(), connections.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto take = static_cast<std::size_t>(std::ceil(
      fraction * static_cast<double>(connections.size())));
  std::uint64_t top_payload = 0;
  for (std::size_t i = 0; i < take && i < connections.size(); ++i) {
    top_payload += connections[i].second;
  }
  return static_cast<double>(top_payload) /
         static_cast<double>(total_payload_packets_);
}

Transport::Transport(sim::Simulator& sim, const LatencyModel& latency,
                     std::uint32_t num_nodes, TransportOptions options, Rng rng)
    : sim_(sim),
      latency_(latency),
      options_(options),
      rng_(rng),
      handlers_(num_nodes),
      silenced_(num_nodes, false),
      egress_(num_nodes),
      egress_stats_(num_nodes),
      congested_(num_nodes, false),
      stats_(1, TrafficStats(num_nodes)),
      counters_(1) {
  ESM_CHECK(options.loss_rate >= 0.0 && options.loss_rate < 1.0,
            "loss rate must be in [0, 1)");
  ESM_CHECK(options.jitter >= 0.0 && options.jitter < 1.0,
            "jitter must be in [0, 1)");
  if (options_.egress_buffer_bytes > 0 && options_.high_watermark > 0.0 &&
      options_.low_watermark > 0.0) {
    ESM_CHECK(options_.low_watermark <= options_.high_watermark &&
                  options_.high_watermark <= 1.0,
              "watermarks must satisfy 0 < low <= high <= 1");
    const double cap = static_cast<double>(options_.egress_buffer_bytes);
    high_watermark_bytes_ =
        static_cast<std::uint64_t>(cap * options_.high_watermark);
    low_watermark_bytes_ =
        static_cast<std::uint64_t>(cap * options_.low_watermark);
  }
}

void Transport::bind_shards(sim::ShardedSimulator& world,
                            std::vector<const LatencyModel*> shard_latency) {
  ESM_CHECK(world_ == nullptr, "transport is already bound to a shard world");
  ESM_CHECK(shard_latency.empty() || shard_latency.size() == world.num_shards(),
            "need one latency model per shard (or none)");
  for (const LatencyModel* model : shard_latency) {
    ESM_CHECK(model != nullptr, "per-shard latency model must not be null");
  }
  world_ = &world;
  shard_latency_ = std::move(shard_latency);
  const std::uint32_t num_nodes = static_cast<std::uint32_t>(handlers_.size());
  node_rng_.reserve(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) node_rng_.push_back(rng_.split(n));
  send_seq_.assign(num_nodes, 0);
  stats_.assign(world.num_shards(), TrafficStats(num_nodes));
  counters_.assign(world.num_shards(), SlotCounters{});
}

std::uint32_t Transport::slot_of(NodeId node) const {
  return world_ == nullptr ? 0 : world_->shard_of(node);
}

sim::Simulator& Transport::sim_for(NodeId node) {
  return world_ == nullptr ? sim_ : world_->shard_for(node);
}

Rng& Transport::rng_for(NodeId src) {
  return world_ == nullptr ? rng_ : node_rng_[src];
}

const LatencyModel& Transport::latency_for(NodeId src) const {
  if (world_ == nullptr || shard_latency_.empty()) return latency_;
  return *shard_latency_[world_->shard_of(src)];
}

void Transport::schedule_delivery(NodeId src, NodeId dst, SimTime arrival,
                                  std::uint32_t bytes, sim::EventCallback cb) {
  if (world_ == nullptr) {
    sim_.schedule_at(arrival, std::move(cb));
    return;
  }
  // Key the arrival by (source, per-source send counter): unique per run,
  // so same-microsecond arrivals at a node order by protocol history, not
  // by which shard merged them first — the sharded determinism contract.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) + 1) << 32 | send_seq_[src]++;
  const std::uint32_t from = world_->shard_of(src);
  const std::uint32_t to = world_->shard_of(dst);
  if (from == to) {
    world_->shard(to).schedule_at_keyed(arrival, key, std::move(cb));
  } else {
    world_->post(from, to, arrival, key, std::move(cb), bytes);
  }
}

void Transport::register_handler(NodeId node, Handler handler) {
  ESM_CHECK(node < handlers_.size(), "node id out of range");
  handlers_[node] = std::move(handler);
}

void Transport::send(NodeId src, NodeId dst, PacketPtr packet,
                     std::size_t bytes, bool is_payload) {
  ESM_CHECK(src < handlers_.size() && dst < handlers_.size(),
            "node id out of range");
  ESM_CHECK(src != dst, "transport does not loop back to self");
  ESM_CHECK(static_cast<bool>(packet), "packet must not be null");

  if (silenced_[src]) {  // firewalled: nothing leaves the node
    if (drop_listener_) {
      drop_listener_(src, dst, is_payload, DropReason::kSilenced);
    }
    return;
  }
  if (!partition_.empty() && partition_[src] != partition_[dst]) {
    ++counters_[slot_of(src)].partition_drops;
    if (drop_listener_) {
      drop_listener_(src, dst, is_payload, DropReason::kPartition);
    }
    return;  // the split swallows cross-group traffic
  }

  Queued item;
  item.dst = dst;
  item.is_payload = is_payload;
  // Optional real serialization: exercise the wire codec on all traffic
  // and bill exact encoded sizes. The receiver gets a freshly decoded
  // object, so no in-memory state can leak across the "network".
  if (options_.codec != nullptr) {
    auto encoded = make_packet<EncodedPacket>();
    encoded->bytes = options_.codec->encode(*packet, src, dst);
    item.bytes = encoded->bytes.size();
    item.packet = std::move(encoded);
  } else {
    item.packet = std::move(packet);
    item.bytes = bytes;
  }

  const std::uint64_t bandwidth = node_bandwidth(src);
  if (bandwidth == 0) {
    transmit(src, std::move(item));  // no serialization delay
    return;
  }

  // Egress queueing with bounded buffer and purge policy (§5.2, [13]).
  // Purged packets are additionally handed to the purge listener so the
  // protocol layer can react; those notifications are deferred until the
  // queue mutation is complete (the listener may re-enter send()).
  Egress& egress = egress_[src];
  std::vector<Queued> purged;
  if (options_.egress_buffer_bytes > 0) {
    if (item.bytes > options_.egress_buffer_bytes) {
      ++counters_[slot_of(src)].buffer_drops;
      if (drop_listener_) {
        drop_listener_(src, dst, is_payload, DropReason::kBuffer);
      }
      if (purge_listener_) notify_purge(src, item);
      return;  // can never fit
    }
    if (options_.purge_policy == TransportOptions::PurgePolicy::drop_newest) {
      if (egress.queued_bytes + item.bytes > options_.egress_buffer_bytes) {
        ++counters_[slot_of(src)].buffer_drops;
        if (drop_listener_) {
          drop_listener_(src, dst, is_payload, DropReason::kBuffer);
        }
        if (purge_listener_) notify_purge(src, item);
        return;
      }
    } else {  // drop_oldest: purge stale packets until the fresh one fits.
      // The head is already transmitting when draining: protect it.
      const std::size_t protect = egress.draining ? 1 : 0;
      while (egress.queue.size() > protect &&
             egress.queued_bytes + item.bytes >
                 options_.egress_buffer_bytes) {
        Queued& victim = egress.queue[protect];
        egress.queued_bytes -= victim.bytes;
        if (drop_listener_) {
          drop_listener_(src, victim.dst, victim.is_payload,
                         DropReason::kBuffer);
        }
        if (purge_listener_) purged.push_back(std::move(victim));
        egress.queue.erase(protect);
        ++counters_[slot_of(src)].buffer_drops;
      }
      if (egress.queued_bytes + item.bytes > options_.egress_buffer_bytes) {
        ++counters_[slot_of(src)].buffer_drops;
        if (drop_listener_) {
          drop_listener_(src, dst, is_payload, DropReason::kBuffer);
        }
        if (purge_listener_) {
          for (const Queued& victim : purged) notify_purge(src, victim);
          notify_purge(src, item);
        }
        return;  // even an empty (modulo head) buffer cannot take it
      }
    }
  }
  item.enqueued_at = sim_for(src).now();
  egress.queued_bytes += item.bytes;
  egress.queue.push_back(std::move(item));
  EgressStats& es = egress_stats_[src];
  es.peak_depth = std::max<std::uint64_t>(es.peak_depth, egress.queue.size());
  es.peak_queued_bytes = std::max(es.peak_queued_bytes, egress.queued_bytes);
  if (!egress.draining) drain(src);
  // Queue state is final for this send: purge notifications first (so a
  // watermark-triggered flush sees the full drop backlog), then hysteresis.
  for (const Queued& victim : purged) notify_purge(src, victim);
  update_watermark(src);
}

void Transport::drain(NodeId src) {
  Egress& egress = egress_[src];
  if (egress.queue.empty()) {
    egress.draining = false;
    return;
  }
  egress.draining = true;
  const std::uint64_t bandwidth = node_bandwidth(src);
  const SimTime tx_time = std::max<SimTime>(
      static_cast<SimTime>(
          (static_cast<double>(egress.queue.front().bytes) * 8.0 * kSecond) /
          static_cast<double>(bandwidth)),
      1);
  auto serialized = [this, src] {
    Egress& e = egress_[src];
    ESM_CHECK(!e.queue.empty(), "drain fired on an empty egress queue");
    Queued item = std::move(e.queue.front());
    e.queue.pop_front();
    e.queued_bytes -= item.bytes;
    // The pop may cross the low watermark; the listener's deferred-work
    // flush re-enters send() while draining stays true, so new packets
    // queue behind the in-service slot without double-scheduling.
    update_watermark(src);
    if (!silenced_[src]) {
      const std::uint64_t sojourn =
          static_cast<std::uint64_t>(sim_for(src).now() - item.enqueued_at);
      EgressStats& es = egress_stats_[src];
      ++es.serialized_packets;
      es.total_sojourn_us += sojourn;
      es.max_sojourn_us = std::max(es.max_sojourn_us, sojourn);
      if (egress_listener_) egress_listener_(src, sojourn, e.queue.size());
      transmit(src, std::move(item));
    } else if (drop_listener_) {
      drop_listener_(src, item.dst, item.is_payload, DropReason::kSilenced);
    }
    drain(src);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(serialized)>,
                "the egress drain closure must not allocate");
  sim_for(src).schedule_after(tx_time, std::move(serialized));
}

void Transport::transmit(NodeId src, Queued item) {
  stats_[slot_of(src)].record_send(src, item.dst, item.bytes,
                                   item.is_payload);

  // Fault-injected modifiers compose with the base network model: extra
  // loss as an independent drop process, delay factors multiplicatively.
  // When no faults are active this path consumes exactly the same RNG
  // draws as the plain model, so fault-free runs are bit-identical.
  double extra_loss = global_extra_loss_;
  double delay_factor = global_delay_factor_;
  if (!link_faults_.empty()) {
    const auto it = link_faults_.find(link_key(src, item.dst));
    if (it != link_faults_.end()) {
      extra_loss = 1.0 - (1.0 - extra_loss) * (1.0 - it->second.extra_loss);
      delay_factor *= it->second.delay_factor;
    }
  }

  if (options_.loss_rate > 0.0 && rng_for(src).chance(options_.loss_rate)) {
    ++counters_[slot_of(src)].packets_lost;
    if (drop_listener_) {
      drop_listener_(src, item.dst, item.is_payload, DropReason::kLoss);
    }
    return;
  }
  if (extra_loss > 0.0 && rng_for(src).chance(extra_loss)) {
    SlotCounters& counters = counters_[slot_of(src)];
    ++counters.packets_lost;
    ++counters.fault_drops;
    if (drop_listener_) {
      drop_listener_(src, item.dst, item.is_payload, DropReason::kFault);
    }
    return;
  }

  SimTime delay = latency_for(src).one_way(src, item.dst);
  if (delay_factor != 1.0) {
    delay = static_cast<SimTime>(static_cast<double>(delay) * delay_factor);
  }
  if (options_.jitter > 0.0) {
    delay = static_cast<SimTime>(static_cast<double>(delay) *
                                 rng_for(src).uniform(
                                     1.0 - options_.jitter,
                                     1.0 + options_.jitter));
  }
  const SimTime arrival =
      sim_for(src).now() + std::max<SimTime>(delay, 1);
  const NodeId dst = item.dst;
  const bool is_payload = item.is_payload;
  const std::uint32_t wire_bytes = static_cast<std::uint32_t>(item.bytes);
  auto arrive = [this, src, dst, is_payload,
                 packet = std::move(item.packet)] {
    deliver(src, dst, is_payload, packet);
  };
  static_assert(sim::EventCallback::fits_inline<decltype(arrive)>,
                "the packet delivery closure must not allocate");
  schedule_delivery(src, dst, arrival, wire_bytes, std::move(arrive));
}

void Transport::deliver(NodeId src, NodeId dst, bool is_payload,
                        const PacketPtr& packet) {
  if (silenced_[dst]) {  // firewalled: nothing gets in
    if (drop_listener_) {
      drop_listener_(src, dst, is_payload, DropReason::kSilenced);
    }
    return;
  }
  if (handlers_[dst] == nullptr) return;
  if (options_.codec != nullptr) {
    handlers_[dst](src, decoded(packet));
  } else {
    handlers_[dst](src, packet);
  }
}

PacketPtr Transport::decoded(const PacketPtr& packet) const {
  if (options_.codec == nullptr) return packet;
  return options_.codec->decode(
      static_cast<const EncodedPacket&>(*packet).bytes);
}

void Transport::notify_purge(NodeId src, const Queued& item) {
  purge_listener_(src, item.dst, decoded(item.packet), item.is_payload);
}

void Transport::update_watermark(NodeId src) {
  if (high_watermark_bytes_ == 0 || !watermark_listener_) return;
  const Egress& egress = egress_[src];
  // Boundary semantics: the rising edge fires AT the high watermark
  // (>=) and the falling edge AT the low watermark (<=), so an occupancy
  // draining to precisely low_watermark_bytes_ decongests. When the two
  // byte thresholds coincide (high == low configs, or distinct fractions
  // truncating to the same byte value) inclusive edges on both sides
  // would flap — congest and decongest on consecutive updates at the
  // shared boundary — so the rising edge becomes strict (>) there: an
  // episode opens only once occupancy actually exceeds the single mark.
  const bool rising =
      high_watermark_bytes_ == low_watermark_bytes_
          ? egress.queued_bytes > high_watermark_bytes_
          : egress.queued_bytes >= high_watermark_bytes_;
  if (!congested_[src] && rising) {
    congested_[src] = true;
    watermark_listener_(src, true);
  } else if (congested_[src] && egress.queued_bytes <= low_watermark_bytes_) {
    congested_[src] = false;
    watermark_listener_(src, false);
  }
}

Transport::BackpressureView Transport::backpressure(NodeId node) const {
  ESM_CHECK(node < egress_.size(), "node id out of range");
  const Egress& egress = egress_[node];
  BackpressureView view;
  view.queued_bytes = egress.queued_bytes;
  view.depth = egress.queue.size();
  view.capacity_bytes = options_.egress_buffer_bytes;
  view.congested = congested_[node];
  return view;
}

bool Transport::egress_accounting_consistent(NodeId node) const {
  const Egress& egress = egress_.at(node);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < egress.queue.size(); ++i) {
    bytes += egress.queue[i].bytes;
  }
  return bytes == egress.queued_bytes;
}

TrafficStats Transport::merged_stats() const {
  TrafficStats merged(static_cast<std::uint32_t>(handlers_.size()));
  for (const TrafficStats& slot : stats_) merged.merge(slot);
  return merged;
}

void Transport::reset_stats() {
  for (TrafficStats& slot : stats_) slot.reset();
}

std::uint64_t Transport::packets_lost() const {
  std::uint64_t total = 0;
  for (const SlotCounters& c : counters_) total += c.packets_lost;
  return total;
}

std::uint64_t Transport::buffer_drops() const {
  std::uint64_t total = 0;
  for (const SlotCounters& c : counters_) total += c.buffer_drops;
  return total;
}

std::uint64_t Transport::fault_drops() const {
  std::uint64_t total = 0;
  for (const SlotCounters& c : counters_) total += c.fault_drops;
  return total;
}

std::uint64_t Transport::partition_drops() const {
  std::uint64_t total = 0;
  for (const SlotCounters& c : counters_) total += c.partition_drops;
  return total;
}

Transport::EgressStats Transport::egress_totals() const {
  EgressStats total;
  for (const EgressStats& es : egress_stats_) {
    total.serialized_packets += es.serialized_packets;
    total.total_sojourn_us += es.total_sojourn_us;
    total.max_sojourn_us = std::max(total.max_sojourn_us, es.max_sojourn_us);
    total.peak_depth = std::max(total.peak_depth, es.peak_depth);
    total.peak_queued_bytes =
        std::max(total.peak_queued_bytes, es.peak_queued_bytes);
  }
  return total;
}

void Transport::reset_egress_stats() {
  std::fill(egress_stats_.begin(), egress_stats_.end(), EgressStats{});
}

std::uint64_t Transport::node_bandwidth(NodeId node) const {
  ESM_CHECK(node < silenced_.size(), "node id out of range");
  if (node < options_.node_bandwidth_bps.size()) {
    return options_.node_bandwidth_bps[node];
  }
  return options_.bandwidth_bps;
}

void Transport::set_partition(const std::vector<int>& group_of_node) {
  ESM_CHECK(group_of_node.size() == silenced_.size(),
            "partition must assign a group to every node");
  partition_ = group_of_node;
}

void Transport::heal_partition() { partition_.clear(); }

Transport::LinkFault& Transport::link_fault(NodeId a, NodeId b) {
  return link_faults_[link_key(a, b)];
}

void Transport::prune_link_fault(NodeId a, NodeId b) {
  auto it = link_faults_.find(link_key(a, b));
  if (it != link_faults_.end() && it->second.neutral()) link_faults_.erase(it);
  it = link_faults_.find(link_key(b, a));
  if (it != link_faults_.end() && it->second.neutral()) link_faults_.erase(it);
}

double Transport::link_extra_loss(NodeId src, NodeId dst) const {
  // Same directed lookup transmit() performs; the setters keep both
  // directions in sync, so this is symmetric in (src, dst).
  const auto it = link_faults_.find(link_key(src, dst));
  return it == link_faults_.end() ? 0.0 : it->second.extra_loss;
}

double Transport::link_delay_factor(NodeId src, NodeId dst) const {
  const auto it = link_faults_.find(link_key(src, dst));
  return it == link_faults_.end() ? 1.0 : it->second.delay_factor;
}

void Transport::set_extra_loss(double extra) {
  ESM_CHECK(extra >= 0.0 && extra < 1.0, "extra loss must be in [0, 1)");
  global_extra_loss_ = extra;
}

void Transport::set_link_extra_loss(NodeId a, NodeId b, double extra) {
  ESM_CHECK(a < silenced_.size() && b < silenced_.size(),
            "node id out of range");
  ESM_CHECK(a != b, "link endpoints must differ");
  ESM_CHECK(extra >= 0.0 && extra < 1.0, "extra loss must be in [0, 1)");
  link_fault(a, b).extra_loss = extra;
  link_fault(b, a).extra_loss = extra;
  prune_link_fault(a, b);
}

void Transport::set_delay_factor(double factor) {
  ESM_CHECK(factor > 0.0, "delay factor must be positive");
  global_delay_factor_ = factor;
}

void Transport::set_link_delay_factor(NodeId a, NodeId b, double factor) {
  ESM_CHECK(a < silenced_.size() && b < silenced_.size(),
            "node id out of range");
  ESM_CHECK(a != b, "link endpoints must differ");
  ESM_CHECK(factor > 0.0, "delay factor must be positive");
  link_fault(a, b).delay_factor = factor;
  link_fault(b, a).delay_factor = factor;
  prune_link_fault(a, b);
}

void Transport::silence(NodeId node) {
  ESM_CHECK(node < silenced_.size(), "node id out of range");
  silenced_[node] = true;
}

void Transport::revive(NodeId node) {
  ESM_CHECK(node < silenced_.size(), "node id out of range");
  silenced_[node] = false;
}

}  // namespace esm::net
