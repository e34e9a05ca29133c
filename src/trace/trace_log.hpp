// Structured experiment traces.
//
// The paper's methodology logs every multicast and delivery for offline
// processing (§5.3: ~1 GB of logs per campaign, later "processed and
// rendered in plots"). This module is that log: delivery and payload-
// transmission events collected during a run, writable as CSV for external
// tooling (gnuplot, pandas, tools/esm_trace) and queryable in-process for
// tests.
//
// Two sink modes:
//   - buffered (default): events accumulate in vectors, written out later
//     with write_csv() and queryable via deliveries()/payloads()/phases().
//   - streaming: after stream_to(os), rows are written to `os` as they are
//     recorded and NOT retained, so tracing a large-N run costs O(in-flight
//     packets) memory instead of O(events). Payload rows are held back until
//     their receive time is known (or flush(), for packets that were lost).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esm::trace {

/// One application-level delivery.
struct DeliveryEvent {
  SimTime time = 0;       // virtual time of delivery
  NodeId node = 0;        // delivering node
  NodeId origin = 0;      // multicast source
  std::uint32_t seq = 0;  // message sequence number
  SimTime latency = 0;    // time - multicast time (0 at the origin)
  /// Sender of the payload that first delivered the message at `node` — the
  /// node's parent in the per-message dissemination tree. Equal to `node`
  /// at the origin; kInvalidNode when unknown (v1 traces, or delivery paths
  /// that bypass the payload scheduler).
  NodeId from = kInvalidNode;
  /// Whether the delivering payload was an eager push (true) or a recovered
  /// lazy transmission / answered request (false). v1 traces default true.
  bool eager = true;
};

/// One payload transmission performed by the scheduler.
struct PayloadEvent {
  SimTime time = 0;  // send time
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;
  bool eager = false;  // eager push vs answered request
  /// Arrival time at dst; 0 = lost in transit or not observed (v1 traces).
  SimTime recv_time = 0;
};

/// A scenario phase boundary (fault-injection measurement window).
struct PhaseEvent {
  SimTime time = 0;
  std::string label;  // must not contain commas or newlines (CSV field)
};

/// Append-only event collector.
class TraceLog {
 public:
  /// Identifies a recorded payload row so its receive time can be patched
  /// in later (returned by record_payload, consumed by set_payload_recv).
  using PayloadHandle = std::uint64_t;
  static constexpr PayloadHandle kNoHandle = ~std::uint64_t{0};

  /// Switches the log into streaming mode: the CSV header is written to
  /// `os` immediately and subsequent events are written as rows instead of
  /// being buffered. Must be called before any event is recorded; `os`
  /// must outlive the log's last record_*/flush call. Call flush() at the
  /// end of the run to emit payload rows whose packets never arrived.
  void stream_to(std::ostream& os);
  bool streaming() const { return sink_ != nullptr; }

  void record_delivery(const DeliveryEvent& event);
  /// Records a payload send. The returned handle can be passed to
  /// set_payload_recv once the packet arrives; in streaming mode the row is
  /// not written until then (or until flush()).
  PayloadHandle record_payload(const PayloadEvent& event);
  /// Sets the receive timestamp of a previously recorded payload send.
  void set_payload_recv(PayloadHandle handle, SimTime recv_time);
  /// Rejects labels containing commas or newlines (they would corrupt the
  /// CSV and surface as a "bad field count" parse error far from the cause).
  void record_phase(PhaseEvent event);
  /// Streaming mode: writes the payload rows still awaiting a receive time
  /// (lost packets) in record order. Buffered mode: no-op.
  void flush();

  /// Buffered-mode accessors (empty in streaming mode — use the counters).
  const std::vector<DeliveryEvent>& deliveries() const { return deliveries_; }
  const std::vector<PayloadEvent>& payloads() const { return payloads_; }
  const std::vector<PhaseEvent>& phases() const { return phases_; }

  /// Totals recorded, valid in both sink modes.
  std::uint64_t delivery_count() const { return delivery_count_; }
  std::uint64_t payload_count() const { return payload_count_; }
  std::uint64_t phase_count() const { return phase_count_; }

  /// CSV with a `kind` discriminator column (schema v2):
  ///   kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us
  ///   delivery,<t>,<node>,<origin>,<seq>,<latency>,<0|1>,<from>,
  ///   payload,<t>,<src>,<dst>,<seq>,,<0|1>,,<recv or empty>
  ///   phase,<t>,,,,,<label>,,
  /// v1 traces (7 columns, no from/recv_time_us) are still readable; absent
  /// fields take the struct defaults documented above.
  void write_csv(std::ostream& os) const;

  /// Parses a CSV previously produced by write_csv (either schema
  /// version). Throws std::runtime_error on malformed input.
  static TraceLog read_csv(std::istream& is);

  /// Payload transmissions recorded for one message (buffered mode).
  std::size_t payloads_for(std::uint32_t seq) const;
  /// Deliveries recorded for one message (buffered mode).
  std::size_t deliveries_for(std::uint32_t seq) const;

 private:
  void write_delivery_row(std::ostream& os, const DeliveryEvent& e) const;
  void write_payload_row(std::ostream& os, const PayloadEvent& e) const;
  void write_phase_row(std::ostream& os, const PhaseEvent& e) const;

  std::vector<DeliveryEvent> deliveries_;
  std::vector<PayloadEvent> payloads_;
  std::vector<PhaseEvent> phases_;
  std::ostream* sink_ = nullptr;
  /// Streaming mode: payload sends awaiting their receive time, keyed by
  /// handle so flush() emits lost packets in record order.
  std::map<PayloadHandle, PayloadEvent> pending_payloads_;
  std::uint64_t delivery_count_ = 0;
  std::uint64_t payload_count_ = 0;
  std::uint64_t phase_count_ = 0;
};

}  // namespace esm::trace
