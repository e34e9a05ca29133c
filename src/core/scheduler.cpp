#include "core/scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.hpp"

namespace esm::core {

PayloadScheduler::PayloadScheduler(sim::Simulator& sim,
                                   net::Transport& transport, NodeId self,
                                   TransmissionStrategy& strategy,
                                   ReceiveFn receive, MessageArena* arena)
    : sim_(sim),
      transport_(transport),
      self_(self),
      strategy_(strategy),
      receive_(std::move(receive)),
      owned_arena_(arena ? nullptr : std::make_unique<MessageArena>()),
      arena_(arena ? arena : owned_arena_.get()) {
  ESM_CHECK(static_cast<bool>(receive_), "receive up-call must be callable");
}

PayloadScheduler::~PayloadScheduler() {
  // Timers capture `this`; a scheduler torn down while its simulator still
  // holds events must disarm them all or a later fire is use-after-free.
  // Slot order is fine here — cancellation is order-insensitive.
  pending_index_.for_each([this](MsgKey, const auto& idx) {
    if (pending_slab_[idx].timer.valid()) sim_.cancel(pending_slab_[idx].timer);
  });
  ihave_outbox_.for_each([this](NodeId, const auto& idx) {
    if (batch_slab_[idx].timer.valid()) sim_.cancel(batch_slab_[idx].timer);
  });
  if (readvertise_timer_.valid()) sim_.cancel(readvertise_timer_);
}

void PayloadScheduler::reserve(std::size_t expected_messages) {
  received_.reserve(expected_messages);
  cache_.reserve(expected_messages);
  pending_index_.reserve(expected_messages);
  // Unlike the key tables above, live Pending slots are bounded by the
  // recovery window over the injection interval (a handful of concurrent
  // recoveries), not by the total message count — reserving the full
  // window here would commit ~sizeof(Pending) * window bytes per node
  // (gigabytes at 1M nodes) that alloc() never touches.
  pending_slab_.reserve(std::min<std::size_t>(expected_messages, 8));
}

PayloadScheduler::Pending* PayloadScheduler::find_pending(MsgKey key) {
  const auto* slot = pending_index_.find(key);
  return slot ? &pending_slab_[*slot] : nullptr;
}

void PayloadScheduler::send_data(const AppMessage& msg, Round round,
                                 NodeId dst, bool eager) {
  auto packet = net::make_packet<DataPacket>();
  packet->msg = msg;
  packet->round = round;
  transport_.send(self_, dst, std::move(packet), wire_bytes(msg),
                  /*is_payload=*/true);
  if (eager) {
    ++stats_.eager_payloads_sent;
  } else {
    ++stats_.requested_payloads_sent;
  }
  if (send_listener_) send_listener_(msg, dst, eager);
}

void PayloadScheduler::l_send(const AppMessage& msg, Round round, NodeId dst) {
  // The sender always remembers the payload: it may be asked for it later
  // by *any* peer it advertised to, and the gossip layer has already
  // recorded the id in K, so this node will never re-enter here for the
  // same message after forwarding once.
  const MsgKey key = arena_->store(msg);
  received_.set(key);
  // May still be IWANTed by others, so cache regardless of eagerness; only
  // the first insertion records the relay round.
  const auto [round_slot, inserted] = cache_.try_emplace(key);
  if (inserted) *round_slot = round;
  // The strategy is always consulted (its RNG draws are part of the
  // deterministic stream); backpressure only overrides an eager verdict.
  if (strategy_.eager(msg.id, round, dst)) {
    if (bp_.enabled && congested_) {
      // Above the high watermark an eager payload would likely be purged
      // at our own egress; degrade to a lazy IHAVE (tiny, survives the
      // queue) and let the receiver pull when we drain.
      ++stats_.eager_deferred;
      if (bp_listener_) bp_listener_(BpEvent::kEagerDeferred);
      enqueue_ihave(key, dst);
    } else {
      send_data(msg, round, dst, /*eager=*/true);
    }
  } else {
    enqueue_ihave(key, dst);
  }
}

void PayloadScheduler::enqueue_ihave(MsgKey key, NodeId dst) {
  if (ihave_batch_window_ <= 0) {
    auto ihave = net::make_packet<IHavePacket>();
    ihave->ids.push_back(arena_->id(key));
    transport_.send(self_, dst, std::move(ihave), ihave_bytes(1),
                    /*is_payload=*/false);
    ++stats_.advertisements_sent;
    return;
  }
  const auto [slot, fresh] = ihave_outbox_.try_emplace(dst);
  if (fresh) {
    *slot = batch_slab_.alloc();
    batch_slab_[*slot].ids.clear();
    batch_slab_[*slot].timer = sim::EventHandle{};
  }
  IHaveBatch& batch = batch_slab_[*slot];
  batch.ids.push_back(key);
  // The wire codec's id count is a u16: a batch window long enough to
  // accumulate more than kMaxIHaveIds ids would make encode throw. Flush
  // eagerly at the cap (the timer, if armed, finds an empty batch later
  // and is a no-op).
  if (batch.ids.size() >= kMaxIHaveIds) {
    flush_ihaves(dst);
    return;
  }
  if (!batch.timer.valid() || !sim_.pending(batch.timer)) {
    batch.timer = sim_.schedule_after(ihave_batch_window_,
                                      [this, dst] { flush_ihaves(dst); });
  }
}

void PayloadScheduler::flush_ihaves(NodeId dst) {
  const auto* slot = ihave_outbox_.find(dst);
  if (slot == nullptr) return;
  const auto idx = *slot;
  if (batch_slab_[idx].ids.empty()) return;
  // Stage the ids in the recycled scratch buffer so the slab slot (and its
  // vector capacity) can be reused before the sends go out.
  flush_scratch_.clear();
  std::swap(flush_scratch_, batch_slab_[idx].ids);
  batch_slab_[idx].timer = sim::EventHandle{};
  batch_slab_.free(idx);
  ihave_outbox_.erase(dst);
  // Split at the u16 wire cap; each chunk is billed as its own packet
  // (header + count + ids), keeping byte accounting consistent with what
  // the codec would actually put on the wire.
  const std::vector<MsgKey>& ids = flush_scratch_;
  for (std::size_t off = 0; off < ids.size(); off += kMaxIHaveIds) {
    const std::size_t count = std::min(kMaxIHaveIds, ids.size() - off);
    auto ihave = net::make_packet<IHavePacket>();
    ihave->ids.reserve(count);
    for (std::size_t i = off; i < off + count; ++i) {
      ihave->ids.push_back(arena_->id(ids[i]));
    }
    transport_.send(self_, dst, std::move(ihave), ihave_bytes(count),
                    /*is_payload=*/false);
    ++stats_.advertisements_sent;
  }
}

void PayloadScheduler::queue_source(MsgKey key, NodeId src) {
  const auto [slot, first_ihave] = pending_index_.try_emplace(key);
  if (first_ihave) {
    *slot = pending_slab_.alloc();
    pending_slab_[*slot].reset();
  }
  Pending& p = pending_slab_[*slot];
  if (std::find(p.peers.begin(), p.peers.end(), src) != p.peers.end()) {
    return;  // duplicate advertisement
  }
  p.peers.push_back(src);
  if (first_ihave && lazy_listener_) {
    lazy_listener_(arena_->id(key), LazyEvent::kFirstIHave, src);
  }
  if (!p.timer.valid() || !sim_.pending(p.timer)) {
    const RequestPolicy policy = strategy_.request_policy();
    // After at least one request has gone out, fresh advertisements wait a
    // full period: the outstanding request is likely to be answered.
    const SimTime delay = p.requested_before ? policy.retransmission_period
                                             : policy.first_request_delay;
    p.timer =
        sim_.schedule_after(delay, [this, key] { request_timer_fired(key); });
  }
}

void PayloadScheduler::request_timer_fired(MsgKey key) {
  Pending* pending = find_pending(key);
  if (pending == nullptr) return;
  Pending& p = *pending;
  const RequestPolicy policy = strategy_.request_policy();
  if (p.head == p.peers.size()) {
    // Queue drained and still no payload: the last IWANT or its DATA
    // reply was lost. Cycle through the already-asked advertisers again
    // (in ask order) up to max_rounds full passes.
    if (p.head == 0 || p.round + 1 >= policy.max_rounds) {
      if (p.head != 0 && p.purged > 0) {
        // Some of the budget was spent on IWANTs our own egress purged —
        // requests that never reached anyone. Refund one extra pass per
        // purge batch: the recovery keeps cycling as long as purges keep
        // eating its requests, and gives up only after a full pass whose
        // requests actually left the node went unanswered.
        p.purged = 0;
        ++p.round;
        p.head = 0;
      } else {
        ++stats_.recovery_gave_up;
        if (lazy_listener_) {
          lazy_listener_(arena_->id(key), LazyEvent::kGaveUp, kInvalidNode);
        }
        clear(key);
        return;
      }
    } else {
      ++p.round;
      p.head = 0;
    }
  }

  const auto queued = std::span<const NodeId>(p.peers).subspan(p.head);
  const std::size_t pick = strategy_.pick_source(queued);
  ESM_CHECK(pick < queued.size(), "strategy picked an invalid source");
  const NodeId target = queued[pick];
  // Move the picked source to the end of the asked prefix, preserving the
  // relative order of the sources it skipped over.
  const auto at = [&](std::uint32_t i) {
    return p.peers.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::rotate(at(p.head), at(p.head + static_cast<std::uint32_t>(pick)),
              at(p.head + static_cast<std::uint32_t>(pick) + 1));
  ++p.head;
  p.requested_before = true;
  p.last_request_target = target;
  p.last_request_time = sim_.now();

  auto iwant = net::make_packet<IWantPacket>();
  iwant->id = arena_->id(key);
  transport_.send(self_, target, std::move(iwant), kControlBytes,
                  /*is_payload=*/false);
  ++stats_.requests_sent;
  if (p.round > 0) ++stats_.iwant_retries;
  if (lazy_listener_) {
    lazy_listener_(arena_->id(key),
                   p.round > 0 ? LazyEvent::kIWantRetry : LazyEvent::kIWant,
                   target);
  }
  // Plumtree GRAFT promotes the recovering edge at both ends: the serving
  // peer promotes us on receiving the IWANT; we promote it here.
  if (strategy_.wants_feedback()) strategy_.on_graft(target);

  // Always re-arm: even with the queue drained the next firing retries an
  // already-asked source (or gives up), so a lost reply cannot stall the
  // recovery. Payload arrival cancels the timer via clear().
  p.timer = sim_.schedule_after(policy.retransmission_period,
                                [this, key] { request_timer_fired(key); });
}

void PayloadScheduler::clear(MsgKey key) {
  const auto* slot = pending_index_.find(key);
  if (slot == nullptr) return;
  const auto idx = *slot;
  Pending& p = pending_slab_[idx];
  if (p.timer.valid()) sim_.cancel(p.timer);
  p.reset();
  pending_slab_.free(idx);
  pending_index_.erase(key);
}

bool PayloadScheduler::handle_packet(NodeId src, const net::PacketPtr& packet) {
  switch (packet->type) {
    case net::PacketType::data: {
      const auto& data = static_cast<const DataPacket&>(*packet);
      const MsgKey key = arena_->store(data.msg);
      const bool fresh = received_.set(key);
      if (accept_listener_) accept_listener_(src, data.msg, !fresh);
      if (!fresh) {
        ++stats_.duplicate_payloads;
        if (strategy_.wants_feedback()) {
          // Plumtree PRUNE demotes the redundant edge at *both* ends: we
          // stop pushing eagerly to the sender, and the PRUNE packet tells
          // the sender to stop pushing eagerly to us.
          strategy_.on_prune(src);
          auto prune = net::make_packet<PrunePacket>();
          prune->id = data.msg.id;
          transport_.send(self_, src, std::move(prune), kControlBytes,
                          /*is_payload=*/false);
          ++stats_.prunes_sent;
        }
        return true;
      }
      if (const Pending* p = find_pending(key)) {
        // Free RTT sample: the payload answered our latest request to `src`.
        if (rtt_observer_ && p->last_request_target == src) {
          rtt_observer_(src, sim_.now() - p->last_request_time);
        }
        if (lazy_listener_) {
          lazy_listener_(data.msg.id, LazyEvent::kRecovered, src);
        }
      }
      clear(key);
      receive_(data.msg, data.round, src);
      return true;
    }
    case net::PacketType::prune:
      strategy_.on_prune(src);
      return true;
    case net::PacketType::ihave:
      for (const MsgId& id : static_cast<const IHavePacket&>(*packet).ids) {
        const MsgKey key = arena_->intern(id);
        if (!received_.test(key)) queue_source(key, src);
      }
      return true;
    case net::PacketType::iwant: {
      // The pull itself is the graft signal: this peer lacked data we hold.
      strategy_.on_graft(src);
      const MsgKey key =
          arena_->find(static_cast<const IWantPacket&>(*packet).id);
      const Round* round = key != kInvalidMsgKey ? cache_.find(key) : nullptr;
      if (round == nullptr) {
        // Only possible after garbage collection: a request can only follow
        // our own advertisement, so the payload was cached at some point.
        ++stats_.requests_unserved;
        return true;
      }
      if (bp_.enabled && congested_) {
        // Per-destination cap on payload replies while congested: the
        // first few are worth racing into the queue, the rest are deferred
        // until the low watermark (retransmission-triggered IWANT storms
        // are the main amplifier past the knee).
        std::uint32_t& in_flight = replies_in_flight_[src];
        if (in_flight >= bp_.max_replies_per_dst) {
          ++stats_.replies_deferred;
          if (bp_listener_) bp_listener_(BpEvent::kReplyDeferred);
          const auto [slot, fresh] =
              deferred_replies_set_.try_emplace(deferred_id(key, src));
          (void)slot;
          if (fresh) deferred_replies_.push_back({key, src});
          return true;
        }
        ++in_flight;
      }
      send_data(arena_->message(key), *round, src, /*eager=*/false);
      return true;
    }
    default:
      return false;  // another protocol's packet
  }
}

void PayloadScheduler::set_congested(bool congested) {
  if (!bp_.enabled || congested_ == congested) return;
  congested_ = congested;
  if (congested) return;
  // Queue drained to the low watermark: the reply budget resets and the
  // deferred work goes out while there is headroom for it.
  replies_in_flight_.clear();
  flush_deferred_replies();
  flush_drop_backlog();
}

void PayloadScheduler::on_egress_purge(NodeId dst, const net::Packet& packet) {
  if (!bp_.enabled) return;
  switch (packet.type) {
    case net::PacketType::data: {
      const MsgKey key =
          arena_->find(static_cast<const DataPacket&>(packet).msg.id);
      if (key != kInvalidMsgKey && cache_.contains(key)) note_drop(key, dst);
      return;
    }
    case net::PacketType::ihave:
      for (const MsgId& id : static_cast<const IHavePacket&>(packet).ids) {
        const MsgKey key = arena_->find(id);
        if (key != kInvalidMsgKey && cache_.contains(key)) note_drop(key, dst);
      }
      return;
    case net::PacketType::iwant: {
      ++stats_.iwants_purged;
      if (bp_listener_) bp_listener_(BpEvent::kIWantPurged);
      // Credit the recovery the purged request belonged to (if it is still
      // live — the payload may have arrived via another path meanwhile), so
      // the retry-budget check refunds the wasted pass instead of giving up.
      const MsgKey key =
          arena_->find(static_cast<const IWantPacket&>(packet).id);
      if (key != kInvalidMsgKey) {
        if (Pending* p = find_pending(key)) ++p->purged;
      }
      return;
    }
    default:
      return;
  }
}

void PayloadScheduler::note_drop(MsgKey key, NodeId dst) {
  const auto [slot, fresh] = drop_backlog_set_.try_emplace(deferred_id(key, dst));
  (void)slot;
  if (!fresh) return;
  drop_backlog_.push_back({key, dst});
  // Fallback: if the low watermark never comes (persistent congestion with
  // a slowly draining queue), re-advertise after a period anyway.
  if (!readvertise_timer_.valid() || !sim_.pending(readvertise_timer_)) {
    readvertise_timer_ = sim_.schedule_after(bp_.readvertise_delay,
                                             [this] { flush_drop_backlog(); });
  }
}

void PayloadScheduler::flush_drop_backlog() {
  if (drop_backlog_.empty()) return;
  drop_flush_scratch_.clear();
  std::swap(drop_flush_scratch_, drop_backlog_);
  drop_backlog_set_.clear();
  order_deferred(drop_flush_scratch_);
  for (const DeferredEntry& e : drop_flush_scratch_) {
    if (!cache_.contains(e.key)) continue;  // GC'd since the purge
    ++stats_.drops_readvertised;
    if (bp_listener_) bp_listener_(BpEvent::kDropReadvertised);
    // Re-advertise instead of re-pushing the payload: the IHAVE is tiny,
    // and if the original DATA actually made it out the receiver simply
    // ignores the duplicate advertisement.
    enqueue_ihave(e.key, e.dst);
  }
}

void PayloadScheduler::flush_deferred_replies() {
  if (deferred_replies_.empty()) return;
  reply_flush_scratch_.clear();
  std::swap(reply_flush_scratch_, deferred_replies_);
  deferred_replies_set_.clear();
  order_deferred(reply_flush_scratch_);
  for (const DeferredEntry& e : reply_flush_scratch_) {
    const Round* round = cache_.find(e.key);
    if (round == nullptr) {
      ++stats_.requests_unserved;  // GC'd while deferred
      continue;
    }
    send_data(arena_->message(e.key), *round, e.dst, /*eager=*/false);
  }
}

void PayloadScheduler::order_deferred(std::vector<DeferredEntry>& entries) {
  if (pull_order_ != PullOrder::rarest || entries.size() < 2) return;
  demand_scratch_.clear();
  for (const DeferredEntry& e : entries) ++demand_scratch_[e.key];
  // Most-demanded keys first (see PullOrder: demand at the server mirrors
  // rarity among its peers); stable, so ties keep insertion order and the
  // result is independent of hash-table iteration order.
  std::stable_sort(entries.begin(), entries.end(),
                   [this](const DeferredEntry& a, const DeferredEntry& b) {
                     return *demand_scratch_.find(a.key) >
                            *demand_scratch_.find(b.key);
                   });
}

void PayloadScheduler::garbage_collect(const std::vector<MsgId>& ids) {
  for (const MsgId& id : ids) {
    const MsgKey key = arena_->find(id);
    if (key == kInvalidMsgKey) continue;
    cache_.erase(key);
    clear(key);
  }
}

}  // namespace esm::core
