#include "wire/codec.hpp"

#include <algorithm>
#include <span>

#include "core/message.hpp"
#include "core/monitor.hpp"
#include "overlay/cyclon.hpp"
#include "overlay/hyparview.hpp"
#include "overlay/neem.hpp"
#include "pull/pull_gossip.hpp"
#include "rank/rank_estimator.hpp"

namespace esm::wire {

std::uint32_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint32_t hash = 0x811c9dc5u;
  for (const std::uint8_t b : data) {
    hash ^= b;
    hash *= 0x01000193u;
  }
  return hash;
}

namespace {

void write_msg_id(ByteWriter& w, const MsgId& id) {
  w.u64(id.hi);
  w.u64(id.lo);
}

MsgId read_msg_id(ByteReader& r) {
  MsgId id;
  id.hi = r.u64();
  id.lo = r.u64();
  return id;
}

void write_payload_bytes(ByteWriter& w, const core::AppMessage& m) {
  if (m.data != nullptr) {
    if (m.data->size() != m.payload_bytes) {
      throw DecodeError("payload_bytes disagrees with attached data size");
    }
    w.raw(*m.data);
  } else {
    w.zeros(m.payload_bytes);  // simulated opaque payload
  }
}

/// Reads `n` payload bytes; materializes `data` only when the content is
/// not all zeros (simulated payloads stay weightless after a round trip).
std::shared_ptr<const std::vector<std::uint8_t>> read_payload_bytes(
    ByteReader& r, std::uint32_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::uint32_t i = 0; i < n; ++i) bytes[i] = r.u8();
  const bool all_zero =
      std::all_of(bytes.begin(), bytes.end(), [](auto b) { return b == 0; });
  if (all_zero) return nullptr;
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

void write_app_message(ByteWriter& w, const core::AppMessage& m) {
  write_msg_id(w, m.id);
  w.u32(m.origin);
  w.u32(m.seq);
  w.i64(m.multicast_time);
  w.u32(m.payload_bytes);
  write_payload_bytes(w, m);
}

core::AppMessage read_app_message(ByteReader& r) {
  core::AppMessage m;
  m.id = read_msg_id(r);
  m.origin = r.u32();
  m.seq = r.u32();
  m.multicast_time = r.i64();
  m.payload_bytes = r.u32();
  m.data = read_payload_bytes(r, m.payload_bytes);
  return m;
}

void write_id_list(ByteWriter& w, std::span<const MsgId> ids) {
  if (ids.size() > core::kMaxIHaveIds) throw DecodeError("id list too long");
  w.u16(static_cast<std::uint16_t>(ids.size()));
  for (const MsgId& id : ids) write_msg_id(w, id);
}

/// Reads a u16-counted id list into `ids` (a std::vector or an IHAVE's
/// inline vector), which must be empty.
template <typename Ids>
void read_id_list(ByteReader& r, Ids& ids) {
  const std::uint16_t count = r.u16();
  ids.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) ids.push_back(read_msg_id(r));
}

/// Encodes the body of `packet`.
void encode_body(const net::Packet& packet, ByteWriter& w) {
  switch (packet.type) {
    case net::PacketType::data: {
      const auto& data = static_cast<const core::DataPacket&>(packet);
      write_msg_id(w, data.msg.id);
      w.u32(data.msg.origin);
      w.u32(data.msg.seq);
      w.i64(data.msg.multicast_time);
      w.u32(data.round);
      w.u32(data.msg.payload_bytes);
      write_payload_bytes(w, data.msg);
      return;
    }
    case net::PacketType::pull_request:
      write_id_list(w,
                    static_cast<const pull::PullRequestPacket&>(packet).known);
      return;
    case net::PacketType::pull_reply: {
      const auto& reply = static_cast<const pull::PullReplyPacket&>(packet);
      if (reply.messages.size() > 255) {
        throw DecodeError("pull reply with too many messages");
      }
      w.u8(static_cast<std::uint8_t>(reply.messages.size()));
      for (const core::AppMessage& m : reply.messages) write_app_message(w, m);
      return;
    }
    case net::PacketType::pull_advertise:
      write_id_list(w,
                    static_cast<const pull::PullAdvertisePacket&>(packet).ids);
      return;
    case net::PacketType::pull_fetch:
      write_id_list(w, static_cast<const pull::PullFetchPacket&>(packet).ids);
      return;
    case net::PacketType::ihave:
      write_id_list(w, static_cast<const core::IHavePacket&>(packet).ids);
      return;
    case net::PacketType::iwant:
      write_msg_id(w, static_cast<const core::IWantPacket&>(packet).id);
      return;
    case net::PacketType::prune:
      write_msg_id(w, static_cast<const core::PrunePacket&>(packet).id);
      return;
    case net::PacketType::shuffle: {
      const auto& shuffle = static_cast<const overlay::ShufflePacket&>(packet);
      w.u8(shuffle.is_reply ? 1 : 0);
      if (shuffle.entries.size() > 255) {
        throw DecodeError("shuffle with more than 255 entries");
      }
      w.u8(static_cast<std::uint8_t>(shuffle.entries.size()));
      for (const overlay::ViewEntry& e : shuffle.entries) {
        w.u32(e.id);
        w.u32(e.age);
      }
      return;
    }
    case net::PacketType::ping: {
      const auto& ping = static_cast<const core::PingPacket&>(packet);
      w.i64(ping.sent_at);
      w.u8(ping.is_pong ? 1 : 0);
      return;
    }
    case net::PacketType::rank_gossip: {
      const auto& rank = static_cast<const rank::RankGossipPacket&>(packet);
      if (rank.samples.size() > 0xffff) {
        throw DecodeError("rank gossip with too many samples");
      }
      w.u16(static_cast<std::uint16_t>(rank.samples.size()));
      for (const rank::ScoreSample& s : rank.samples) {
        w.u32(s.id);
        // Origin age in milliseconds, saturated: anything beyond ~49 days
        // is long past every realistic max_sample_age anyway.
        const std::int64_t age_ms =
            std::min<std::int64_t>(std::max<std::int64_t>(s.age, 0) /
                                       kMillisecond,
                                   0xffffffffLL);
        w.u32(static_cast<std::uint32_t>(age_ms));
        w.f64(s.score);
      }
      return;
    }
    case net::PacketType::hyparview: {
      const auto& hpv = static_cast<const overlay::HpvPacket&>(packet);
      w.u8(static_cast<std::uint8_t>(hpv.kind));
      w.u32(hpv.subject);
      w.u32(hpv.ttl);
      w.u8(hpv.flag ? 1 : 0);
      if (hpv.nodes.size() > 0xffff) {
        throw DecodeError("hyparview packet with too many nodes");
      }
      w.u16(static_cast<std::uint16_t>(hpv.nodes.size()));
      for (const NodeId n : hpv.nodes) w.u32(n);
      return;
    }
    case net::PacketType::neem: {
      const auto& neem = static_cast<const overlay::NeemPacket&>(packet);
      w.u8(static_cast<std::uint8_t>(neem.kind));
      if (neem.addresses.size() > 0xffff) {
        throw DecodeError("neem packet with too many addresses");
      }
      w.u16(static_cast<std::uint16_t>(neem.addresses.size()));
      for (const NodeId n : neem.addresses) w.u32(n);
      return;
    }
    case net::PacketType::none:
      break;
  }
  throw DecodeError("cannot encode unknown packet type");
}

net::PacketPtr decode_body(net::PacketType type, ByteReader& r) {
  switch (type) {
    case net::PacketType::data: {
      auto p = net::make_packet<core::DataPacket>();
      p->msg.id = read_msg_id(r);
      p->msg.origin = r.u32();
      p->msg.seq = r.u32();
      p->msg.multicast_time = r.i64();
      p->round = r.u32();
      p->msg.payload_bytes = r.u32();
      p->msg.data = read_payload_bytes(r, p->msg.payload_bytes);
      return p;
    }
    case net::PacketType::ihave: {
      auto p = net::make_packet<core::IHavePacket>();
      read_id_list(r, p->ids);
      return p;
    }
    case net::PacketType::iwant: {
      auto p = net::make_packet<core::IWantPacket>();
      p->id = read_msg_id(r);
      return p;
    }
    case net::PacketType::prune: {
      auto p = net::make_packet<core::PrunePacket>();
      p->id = read_msg_id(r);
      return p;
    }
    case net::PacketType::shuffle: {
      auto p = net::make_packet<overlay::ShufflePacket>();
      p->is_reply = r.u8() != 0;
      const std::uint8_t count = r.u8();
      p->entries.reserve(count);
      for (std::uint8_t i = 0; i < count; ++i) {
        overlay::ViewEntry e;
        e.id = r.u32();
        e.age = r.u32();
        p->entries.push_back(e);
      }
      return p;
    }
    case net::PacketType::ping: {
      auto p = net::make_packet<core::PingPacket>();
      p->sent_at = r.i64();
      p->is_pong = r.u8() != 0;
      return p;
    }
    case net::PacketType::rank_gossip: {
      auto p = net::make_packet<rank::RankGossipPacket>();
      const std::uint16_t count = r.u16();
      p->samples.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        rank::ScoreSample s;
        s.id = r.u32();
        s.age = static_cast<SimTime>(r.u32()) * kMillisecond;
        s.score = r.f64();
        p->samples.push_back(s);
      }
      return p;
    }
    case net::PacketType::pull_request: {
      auto p = net::make_packet<pull::PullRequestPacket>();
      read_id_list(r, p->known);
      return p;
    }
    case net::PacketType::pull_reply: {
      auto p = net::make_packet<pull::PullReplyPacket>();
      const std::uint8_t count = r.u8();
      p->messages.reserve(count);
      for (std::uint8_t i = 0; i < count; ++i) {
        p->messages.push_back(read_app_message(r));
      }
      return p;
    }
    case net::PacketType::pull_advertise: {
      auto p = net::make_packet<pull::PullAdvertisePacket>();
      read_id_list(r, p->ids);
      return p;
    }
    case net::PacketType::pull_fetch: {
      auto p = net::make_packet<pull::PullFetchPacket>();
      read_id_list(r, p->ids);
      return p;
    }
    case net::PacketType::hyparview: {
      auto p = net::make_packet<overlay::HpvPacket>();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(
                     overlay::HpvPacket::Kind::keepalive_ack)) {
        throw DecodeError("unknown hyparview packet kind");
      }
      p->kind = static_cast<overlay::HpvPacket::Kind>(kind);
      p->subject = r.u32();
      p->ttl = r.u32();
      p->flag = r.u8() != 0;
      const std::uint16_t count = r.u16();
      p->nodes.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) p->nodes.push_back(r.u32());
      return p;
    }
    case net::PacketType::neem: {
      auto p = net::make_packet<overlay::NeemPacket>();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(
                     overlay::NeemPacket::Kind::probe_ack)) {
        throw DecodeError("unknown neem packet kind");
      }
      p->kind = static_cast<overlay::NeemPacket::Kind>(kind);
      const std::uint16_t count = r.u16();
      p->addresses.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) p->addresses.push_back(r.u32());
      return p;
    }
    case net::PacketType::none:
      break;
  }
  throw DecodeError("unknown packet type tag");
}

}  // namespace

std::vector<std::uint8_t> encode_packet(const net::Packet& packet, NodeId src,
                                        NodeId dst) {
  ByteWriter body;
  encode_body(packet, body);

  ByteWriter frame;
  frame.u32(kMagic);
  frame.u8(kVersion);
  frame.u8(static_cast<std::uint8_t>(packet.type));
  frame.u16(0);  // flags
  frame.u32(src);
  frame.u32(dst);
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(fnv1a(body.bytes()));
  frame.raw(body.bytes());
  return frame.take();
}

std::size_t encoded_size(const net::Packet& packet) {
  ByteWriter body;
  encode_body(packet, body);
  return kFrameHeaderBytes + body.size();
}

Frame decode_packet(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kMagic) throw DecodeError("bad magic");
  if (r.u8() != kVersion) throw DecodeError("unsupported version");
  const auto type = static_cast<net::PacketType>(r.u8());
  (void)r.u16();  // flags
  Frame frame;
  frame.src = r.u32();
  frame.dst = r.u32();
  const std::uint32_t body_len = r.u32();
  const std::uint32_t checksum = r.u32();
  if (r.remaining() != body_len) {
    throw DecodeError("body length mismatch");
  }
  if (fnv1a(bytes.subspan(kFrameHeaderBytes)) != checksum) {
    throw DecodeError("checksum mismatch");
  }
  frame.packet = decode_body(type, r);
  r.expect_end();
  return frame;
}

}  // namespace esm::wire
