#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "core/message.hpp"
#include "core/monitor.hpp"
#include "overlay/cyclon.hpp"
#include "overlay/hyparview.hpp"
#include "overlay/neem.hpp"
#include "pull/pull_gossip.hpp"
#include "rank/rank_estimator.hpp"

namespace esm::wire {
namespace {

TEST(ByteBuffer, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  const auto bytes = w.bytes();
  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  r.expect_end();
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(ByteBuffer, ReaderDetectsTruncation) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW(r.u16(), DecodeError);
}

TEST(ByteBuffer, ExpectEndDetectsTrailing) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.bytes());
  r.u16();
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(ByteBuffer, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u32(9);
  w.patch_u32(0, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u32(), 9u);
  EXPECT_THROW(w.patch_u32(6, 1), DecodeError);
}

TEST(Fnv1a, KnownVectors) {
  // FNV-1a("") = offset basis; FNV-1a("a") = 0xe40c292c.
  EXPECT_EQ(fnv1a({}), 0x811c9dc5u);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a(a), 0xe40c292cu);
}

template <typename T>
std::shared_ptr<const T> round_trip(const T& packet, NodeId src = 3,
                                    NodeId dst = 9) {
  const auto bytes = encode_packet(packet, src, dst);
  EXPECT_EQ(bytes.size(), encoded_size(packet));
  const Frame frame = decode_packet(bytes);
  EXPECT_EQ(frame.src, src);
  EXPECT_EQ(frame.dst, dst);
  EXPECT_EQ(frame.packet->type, packet.type);
  return std::static_pointer_cast<const T>(frame.packet);
}

TEST(Codec, DataPacketRoundTrip) {
  core::DataPacket p;
  p.msg.id = MsgId{0xAAAA, 0xBBBB};
  p.msg.origin = 17;
  p.msg.seq = 42;
  p.msg.payload_bytes = 256;
  p.msg.multicast_time = 123456789;
  p.round = 5;
  const auto decoded = round_trip(p);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->msg.id, p.msg.id);
  EXPECT_EQ(decoded->msg.origin, 17u);
  EXPECT_EQ(decoded->msg.seq, 42u);
  EXPECT_EQ(decoded->msg.payload_bytes, 256u);
  EXPECT_EQ(decoded->msg.multicast_time, 123456789);
  EXPECT_EQ(decoded->round, 5u);
}

TEST(Codec, ControlPacketsRoundTrip) {
  core::IHavePacket ihave;
  ihave.ids = {MsgId{1, 2}, MsgId{5, 6}};
  const auto decoded = round_trip(ihave);
  ASSERT_EQ(decoded->ids.size(), 2u);
  EXPECT_EQ(decoded->ids[0], (MsgId{1, 2}));
  EXPECT_EQ(decoded->ids[1], (MsgId{5, 6}));

  core::IWantPacket iwant;
  iwant.id = MsgId{3, 4};
  EXPECT_EQ(round_trip(iwant)->id, (MsgId{3, 4}));

  core::PrunePacket prune;
  prune.id = MsgId{7, 8};
  EXPECT_EQ(round_trip(prune)->id, (MsgId{7, 8}));
}

TEST(Codec, ControlSizesMatchSimulationAccounting) {
  // The simulator bills IHAVE at core::ihave_bytes(n) and IWANT/PRUNE at
  // core::kControlBytes; the real codec must agree, or the bandwidth model
  // lies.
  core::IHavePacket ihave;
  ihave.ids = {MsgId{1, 1}, MsgId{2, 2}, MsgId{3, 3}};
  EXPECT_EQ(encoded_size(ihave), core::ihave_bytes(3));
  core::IWantPacket iwant;
  EXPECT_EQ(encoded_size(iwant), core::kControlBytes);
  core::PrunePacket prune;
  EXPECT_EQ(encoded_size(prune), core::kControlBytes);
}

TEST(Codec, DataSizeIsHeaderPlusMetadataPlusPayload) {
  core::DataPacket p;
  p.msg.payload_bytes = 256;
  // 24 header + 40 message metadata + 256 payload.
  EXPECT_EQ(encoded_size(p), kFrameHeaderBytes + 40 + 256);
}

TEST(Codec, ShuffleRoundTrip) {
  overlay::ShufflePacket p;
  p.is_reply = true;
  p.entries = {{1, 0}, {2, 9}, {300, 77}};
  const auto decoded = round_trip(p);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_TRUE(decoded->is_reply);
  EXPECT_EQ(decoded->entries[2].id, 300u);
  EXPECT_EQ(decoded->entries[2].age, 77u);
}

TEST(Codec, PingRoundTrip) {
  core::PingPacket p;
  p.sent_at = 987654321;
  p.is_pong = true;
  const auto decoded = round_trip(p);
  EXPECT_EQ(decoded->sent_at, 987654321);
  EXPECT_TRUE(decoded->is_pong);
}

TEST(Codec, RankGossipRoundTrip) {
  rank::RankGossipPacket p;
  p.samples = {{4, -1.5, 250 * kMillisecond}, {9, 1e9, 0}};
  const auto decoded = round_trip(p);
  ASSERT_EQ(decoded->samples.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded->samples[0].score, -1.5);
  EXPECT_EQ(decoded->samples[0].age, 250 * kMillisecond);
  EXPECT_DOUBLE_EQ(decoded->samples[1].score, 1e9);
  EXPECT_EQ(decoded->samples[1].age, 0);
}

TEST(Codec, RankGossipAgeIsMillisecondGranular) {
  // Sub-millisecond age truncates to the wire's u32 millisecond field.
  rank::RankGossipPacket p;
  p.samples = {{1, 0.5, 1500}};  // 1.5 ms
  const auto decoded = round_trip(p);
  ASSERT_EQ(decoded->samples.size(), 1u);
  EXPECT_EQ(decoded->samples[0].age, 1 * kMillisecond);
}

TEST(Codec, PullPacketsRoundTrip) {
  pull::PullRequestPacket request;
  request.known = {MsgId{1, 1}, MsgId{2, 2}};
  EXPECT_EQ(round_trip(request)->known.size(), 2u);

  pull::PullReplyPacket reply;
  core::AppMessage m;
  m.id = MsgId{5, 5};
  m.origin = 9;
  m.payload_bytes = 64;
  m.multicast_time = 777;
  reply.messages.push_back(m);
  const auto decoded = round_trip(reply);
  ASSERT_EQ(decoded->messages.size(), 1u);
  EXPECT_EQ(decoded->messages[0].id, (MsgId{5, 5}));
  EXPECT_EQ(decoded->messages[0].multicast_time, 777);

  pull::PullAdvertisePacket adv;
  adv.ids = {MsgId{3, 3}};
  EXPECT_EQ(round_trip(adv)->ids.size(), 1u);

  pull::PullFetchPacket fetch;
  fetch.ids = {MsgId{4, 4}};
  EXPECT_EQ(round_trip(fetch)->ids[0], (MsgId{4, 4}));
}

TEST(Codec, HyParViewPacketsRoundTrip) {
  overlay::HpvPacket p;
  p.kind = overlay::HpvPacket::Kind::shuffle;
  p.subject = 42;
  p.ttl = 3;
  p.flag = true;
  p.nodes = {1, 2, 99};
  const auto decoded = round_trip(p);
  EXPECT_EQ(decoded->kind, overlay::HpvPacket::Kind::shuffle);
  EXPECT_EQ(decoded->subject, 42u);
  EXPECT_EQ(decoded->ttl, 3u);
  EXPECT_TRUE(decoded->flag);
  EXPECT_EQ(decoded->nodes, (std::vector<NodeId>{1, 2, 99}));
}

TEST(Codec, NeemPacketsRoundTrip) {
  overlay::NeemPacket p;
  p.kind = overlay::NeemPacket::Kind::shuffle;
  p.addresses = {4, 8, 15};
  const auto decoded = round_trip(p);
  EXPECT_EQ(decoded->kind, overlay::NeemPacket::Kind::shuffle);
  EXPECT_EQ(decoded->addresses, (std::vector<NodeId>{4, 8, 15}));
}

TEST(Codec, DataPacketWithRealContentRoundTrip) {
  core::DataPacket p;
  p.msg.id = MsgId{11, 12};
  const std::vector<std::uint8_t> content{1, 2, 3, 0, 255};
  p.msg.payload_bytes = static_cast<std::uint32_t>(content.size());
  p.msg.data = std::make_shared<const std::vector<std::uint8_t>>(content);
  const auto decoded = round_trip(p);
  ASSERT_NE(decoded->msg.data, nullptr);
  EXPECT_EQ(*decoded->msg.data, content);
  // Simulated (zero) payloads stay weightless after a round trip.
  core::DataPacket sim_only;
  sim_only.msg.payload_bytes = 64;
  EXPECT_EQ(round_trip(sim_only)->msg.data, nullptr);
  // Inconsistent size metadata is an encoding error.
  core::DataPacket bad;
  bad.msg.payload_bytes = 99;
  bad.msg.data = std::make_shared<const std::vector<std::uint8_t>>(content);
  EXPECT_THROW(encode_packet(bad, 0, 1), DecodeError);
}

TEST(Codec, RejectsBadMagic) {
  auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_packet(bytes), DecodeError);
}

TEST(Codec, RejectsBadVersion) {
  auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  bytes[4] = 99;
  EXPECT_THROW(decode_packet(bytes), DecodeError);
}

TEST(Codec, RejectsCorruptedBody) {
  auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  bytes.back() ^= 0x01;  // flip a body bit: checksum must catch it
  EXPECT_THROW(decode_packet(bytes), DecodeError);
}

TEST(Codec, RejectsTruncation) {
  const auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(decode_packet(prefix), DecodeError) << "cut=" << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  bytes.push_back(0);
  EXPECT_THROW(decode_packet(bytes), DecodeError);
}

/// Retired type bytes (docs/PROTOCOL.md §8): no packet type takes them.
constexpr std::uint8_t kRetiredWireBytes[] = {7, 8, 9};

TEST(Codec, EveryPacketTypeKeepsItsWireByte) {
  // The frame's type byte is the packet's net::PacketType. These values
  // are the wire format (docs/PROTOCOL.md §8): one row per type, pinned.
  const std::pair<std::uint8_t, net::PacketPtr> table[] = {
      {1, net::make_packet<core::DataPacket>()},
      {2, net::make_packet<core::IHavePacket>()},
      {3, net::make_packet<core::IWantPacket>()},
      {4, net::make_packet<overlay::ShufflePacket>()},
      {5, net::make_packet<core::PingPacket>()},
      {6, net::make_packet<rank::RankGossipPacket>()},
      {10, net::make_packet<pull::PullRequestPacket>()},
      {11, net::make_packet<pull::PullReplyPacket>()},
      {12, net::make_packet<pull::PullAdvertisePacket>()},
      {13, net::make_packet<pull::PullFetchPacket>()},
      {14, net::make_packet<core::PrunePacket>()},
      {15, net::make_packet<overlay::HpvPacket>()},
      {16, net::make_packet<overlay::NeemPacket>()},
  };
  // Every type but `none` has a row; 7-9 are retired
  // (Codec.RetiredWireBytesAreRejected).
  EXPECT_EQ(std::size(table) + std::size(kRetiredWireBytes),
            static_cast<std::size_t>(net::PacketType::neem));
  for (const auto& [byte, packet] : table) {
    EXPECT_EQ(static_cast<std::uint8_t>(packet->type), byte);
    const auto bytes = encode_packet(*packet, 3, 9);
    ASSERT_GT(bytes.size(), 5u);
    EXPECT_EQ(bytes[5], byte);
    EXPECT_EQ(static_cast<std::uint8_t>(decode_packet(bytes).packet->type),
              byte);
  }
  // A packet no protocol owns has no frame.
  struct Unowned final : net::Packet {};
  const Unowned unowned;
  EXPECT_EQ(unowned.type, net::PacketType::none);
  EXPECT_THROW(encode_packet(unowned, 3, 9), DecodeError);
  EXPECT_THROW(encoded_size(unowned), DecodeError);
}

TEST(Codec, RetiredWireBytesAreRejected) {
  // A well-formed frame (length and checksum match) whose type byte is
  // retired does not decode.
  for (const std::uint8_t retired : kRetiredWireBytes) {
    auto bytes = encode_packet(core::IWantPacket{}, 3, 9);
    bytes[5] = retired;
    EXPECT_THROW(decode_packet(bytes), DecodeError) << int{retired};
  }
}

TEST(Codec, RejectsUnknownType) {
  auto bytes = encode_packet(core::IHavePacket{}, 0, 1);
  bytes[5] = 0xEE;  // type tag
  EXPECT_THROW(decode_packet(bytes), DecodeError);
}

TEST(Codec, RandomMutationNeverCrashes) {
  // Property: arbitrary single-byte corruptions either decode to a valid
  // frame (flags are ignored, addressing is unvalidated) or throw
  // DecodeError — never UB, never a crash.
  core::DataPacket p;
  p.msg.id = MsgId{7, 8};
  p.msg.payload_bytes = 32;
  const auto original = encode_packet(p, 1, 2);
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      (void)decode_packet(bytes);
    } catch (const DecodeError&) {
      // expected for most mutations
    }
  }
}

TEST(Codec, IHaveIdListWireCapBoundary) {
  // The id count travels as a u16: exactly kMaxIHaveIds must round-trip,
  // one more must be refused at encode (the scheduler splits batches at
  // the cap so live traffic never hits the throw).
  core::IHavePacket full;
  full.ids.reserve(core::kMaxIHaveIds);
  for (std::uint64_t i = 0; i < core::kMaxIHaveIds; ++i) {
    full.ids.push_back(MsgId{i, i});
  }
  const auto decoded = round_trip(full);
  ASSERT_EQ(decoded->ids.size(), core::kMaxIHaveIds);
  EXPECT_EQ(decoded->ids.front(), full.ids.front());
  EXPECT_EQ(decoded->ids.back(), full.ids.back());

  core::IHavePacket overflow = full;
  overflow.ids.push_back(MsgId{1, 2});
  EXPECT_THROW(encode_packet(overflow, 0, 1), DecodeError);
}

TEST(Codec, IHaveRoundTripsAtOneTwoAndMaxIds) {
  // One id sits inline in the packet; more spill to the heap. Either way
  // the wire bytes and the decoded list must match, up to the u16 cap.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, core::kMaxIHaveIds}) {
    core::IHavePacket ihave;
    for (std::uint64_t i = 0; i < n; ++i) ihave.ids.push_back(MsgId{i, ~i});
    EXPECT_EQ(ihave.ids.spilled(), n > 1);
    EXPECT_EQ(encoded_size(ihave), core::ihave_bytes(n));
    const auto decoded = round_trip(ihave);
    ASSERT_EQ(decoded->ids.size(), n);
    EXPECT_EQ(decoded->ids.spilled(), n > 1);
    EXPECT_TRUE(decoded->ids == ihave.ids);
  }
}

TEST(Codec, DecodedPacketsAreStaticPointerCastable) {
  // Decoded packets come from pooled storage; PacketPtr casts must behave
  // exactly as on make_shared packets.
  core::IWantPacket iwant;
  iwant.id = MsgId{5, 6};
  const net::PacketPtr decoded =
      decode_packet(encode_packet(iwant, 0, 1)).packet;
  ASSERT_EQ(decoded->type, net::PacketType::iwant);
  const auto typed = std::static_pointer_cast<const core::IWantPacket>(decoded);
  EXPECT_EQ(typed->id, (MsgId{5, 6}));
  EXPECT_EQ(typed.use_count(), 2);
}

TEST(Codec, RandomInputNeverCrashes) {
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      (void)decode_packet(junk);
    } catch (const DecodeError&) {
    }
  }
}

}  // namespace
}  // namespace esm::wire
