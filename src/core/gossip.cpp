#include "core/gossip.hpp"

#include "common/check.hpp"

namespace esm::core {

GossipNode::GossipNode(NodeId self, GossipParams params,
                       overlay::PeerSampler& sampler,
                       PayloadScheduler& scheduler, DeliverFn deliver, Rng rng)
    : self_(self),
      params_(params),
      sampler_(sampler),
      scheduler_(scheduler),
      deliver_(std::move(deliver)),
      rng_(rng) {
  ESM_CHECK(params.fanout >= 1, "gossip fanout must be positive");
  ESM_CHECK(params.max_rounds >= 1, "max rounds must be positive");
  ESM_CHECK(static_cast<bool>(deliver_), "deliver up-call must be callable");
}

AppMessage GossipNode::multicast(std::uint32_t payload_bytes,
                                 std::uint32_t seq, SimTime now) {
  AppMessage msg;
  msg.id = rng_.next_msg_id();
  msg.origin = self_;
  msg.seq = seq;
  msg.payload_bytes = payload_bytes;
  msg.multicast_time = now;
  forward(msg, 0, kInvalidNode);
  return msg;
}

AppMessage GossipNode::multicast(std::vector<std::uint8_t> data,
                                 std::uint32_t seq, SimTime now) {
  AppMessage msg;
  msg.id = rng_.next_msg_id();
  msg.origin = self_;
  msg.seq = seq;
  msg.payload_bytes = static_cast<std::uint32_t>(data.size());
  msg.multicast_time = now;
  msg.data = std::make_shared<const std::vector<std::uint8_t>>(std::move(data));
  forward(msg, 0, kInvalidNode);
  return msg;
}

void GossipNode::l_receive(const AppMessage& msg, Round round, NodeId source) {
  if (knows(msg.id)) return;
  forward(msg, round, source);
}

void GossipNode::forward(const AppMessage& msg, Round round, NodeId from) {
  deliver_(msg);
  known_.set(scheduler_.arena().intern(msg.id));
  if (round >= params_.max_rounds) {
    if (relay_listener_) relay_listener_(msg.id, round, 0);
    return;
  }
  const bool exclude = params_.exclude_sender && from != kInvalidNode;
  // Over-sample by one so the exclusion does not shrink the fanout.
  std::vector<NodeId> targets = std::move(targets_scratch_);
  sampler_.sample_into(params_.fanout + (exclude ? 1 : 0), targets);
  std::size_t sent = 0;
  for (const NodeId peer : targets) {
    if (exclude && peer == from) continue;
    if (sent == params_.fanout) break;
    scheduler_.l_send(msg, round + 1, peer);
    ++sent;
  }
  targets_scratch_ = std::move(targets);
  if (relay_listener_) relay_listener_(msg.id, round, sent);
}

void GossipNode::garbage_collect(const std::vector<MsgId>& ids) {
  for (const MsgId& id : ids) {
    const MsgKey key = scheduler_.arena().find(id);
    if (key != kInvalidMsgKey) known_.reset(key);
  }
}

}  // namespace esm::core
