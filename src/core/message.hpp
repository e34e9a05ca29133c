// Application messages and the three packet kinds of the lazy
// point-to-point exchange (paper Fig. 3): MSG (payload), IHAVE
// (advertisement), IWANT (retransmission request).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/compact.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"

namespace esm::core {

/// NeEM header size added to every packet (§5.3: 24 bytes).
inline constexpr std::size_t kHeaderBytes = 24;
/// Control packets (IHAVE/IWANT) carry the header plus a 128-bit id.
inline constexpr std::size_t kControlBytes = kHeaderBytes + 16;

/// An application-level multicast message.
///
/// Experiments usually simulate the payload — only `payload_bytes` is
/// billed on the (virtual) wire — but applications can attach real content
/// via `data`, which travels end-to-end (and through the wire codec when
/// installed). The metadata lets the harness compute end-to-end latency on
/// the shared simulation clock.
struct AppMessage {
  MsgId id{};
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
  std::uint32_t payload_bytes = 0;
  SimTime multicast_time = 0;
  /// Optional real payload content; when set, payload_bytes must equal
  /// data->size(). Shared: relays never copy the bytes.
  std::shared_ptr<const std::vector<std::uint8_t>> data;
};

/// Bytes of a payload-bearing packet on the wire.
inline std::size_t wire_bytes(const AppMessage& m) {
  return kHeaderBytes + m.payload_bytes;
}

/// MSG(i, d, r): full payload plus the round counter it is relayed at.
struct DataPacket final : net::PacketOf<net::PacketType::data> {
  AppMessage msg;
  Round round = 0;
};

/// IHAVE(i...): advertisement that the sender holds payload for the listed
/// message ids. The paper sends one id per advertisement; the scheduler can
/// batch several within a short window (ihave_batch_window) to amortize
/// the header — a standard control-traffic optimization. The one id of an
/// unbatched IHAVE sits inline in the packet; batches spill to the heap.
struct IHavePacket final : net::PacketOf<net::PacketType::ihave> {
  compact::InlineVector<MsgId, 1> ids;
};

/// Wire size of an IHAVE carrying `n` ids (header + count + ids).
inline std::size_t ihave_bytes(std::size_t n) {
  return kHeaderBytes + 2 + 16 * n;
}

/// Largest id list one IHAVE packet can carry: the wire count field is a
/// u16 (wire/codec writes the size with w.u16). The scheduler flushes a
/// batch when it reaches this many ids and splits any larger backlog
/// across packets, so encode never sees an oversized list.
inline constexpr std::size_t kMaxIHaveIds = 0xffff;

/// IWANT(i): request for the payload of a previously advertised message.
struct IWantPacket final : net::PacketOf<net::PacketType::iwant> {
  MsgId id{};
};

/// PRUNE(i): feedback from a receiver that the payload of `id` was
/// redundant — the sender should push lazily to this receiver from now on.
/// Only emitted for strategies with `wants_feedback()` (adaptive
/// extension; not part of the paper's baseline protocol).
struct PrunePacket final : net::PacketOf<net::PacketType::prune> {
  MsgId id{};
};

}  // namespace esm::core
