// Wire codec: every protocol packet <-> bytes.
//
// A frame is a 24-byte header (the paper's NeEM header size) followed by
// the body of one packet. The header's type byte is the packet's
// net::PacketType. docs/PROTOCOL.md §8 lays out the header and every
// packet type's body.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/transport.hpp"
#include "wire/buffer.hpp"

namespace esm::wire {

inline constexpr std::uint32_t kMagic = 0x4E45454D;  // "NEEM"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// A decoded frame: the reconstructed packet plus addressing.
struct Frame {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  net::PacketPtr packet;
};

/// Encodes any known packet type into a framed byte vector.
/// Throws DecodeError for packet types the codec does not know.
std::vector<std::uint8_t> encode_packet(const net::Packet& packet, NodeId src,
                                        NodeId dst);

/// Size the packet would occupy on the wire (header + body).
std::size_t encoded_size(const net::Packet& packet);

/// Decodes a framed byte vector. Throws DecodeError on any malformation:
/// truncation, wrong magic/version, unknown type, checksum mismatch,
/// length mismatch, or trailing bytes.
Frame decode_packet(std::span<const std::uint8_t> bytes);

/// Adapter installing this codec on the transport
/// (net::TransportOptions::codec): every simulated packet then really
/// round-trips through serialization.
class WireCodec final : public net::PacketCodec {
 public:
  std::vector<std::uint8_t> encode(const net::Packet& packet, NodeId src,
                                   NodeId dst) const override {
    return encode_packet(packet, src, dst);
  }
  net::PacketPtr decode(const std::vector<std::uint8_t>& bytes) const override {
    return decode_packet(bytes).packet;
  }
};

}  // namespace esm::wire
