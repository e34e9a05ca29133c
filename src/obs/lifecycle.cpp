#include "obs/lifecycle.hpp"

#include "common/check.hpp"

namespace esm::obs {

namespace {

const char* drop_counter_name(net::Transport::DropReason reason) {
  switch (reason) {
    case net::Transport::DropReason::kLoss: return "drops_loss";
    case net::Transport::DropReason::kFault: return "drops_fault";
    case net::Transport::DropReason::kBuffer: return "drops_buffer";
    case net::Transport::DropReason::kPartition: return "drops_partition";
    case net::Transport::DropReason::kSilenced:
    case net::Transport::DropReason::kSilencedDst: return "drops_silenced";
  }
  return "drops_unknown";
}

}  // namespace

LifecycleTracker::LifecycleTracker(sim::Simulator& sim,
                                   std::uint32_t num_nodes,
                                   RunMetrics& metrics,
                                   core::MessageArena* arena)
    : sim_(sim),
      metrics_(metrics),
      owned_arena_(arena ? nullptr : std::make_unique<core::MessageArena>()),
      arena_(arena ? arena : owned_arena_.get()) {
  metrics_.per_node.resize(num_nodes);
}

void LifecycleTracker::on_lazy_event(NodeId node, const MsgId& id,
                                     core::PayloadScheduler::LazyEvent event,
                                     NodeId peer) {
  (void)peer;
  using LazyEvent = core::PayloadScheduler::LazyEvent;
  const std::uint64_t key = episode_key(node, id);
  switch (event) {
    case LazyEvent::kFirstIHave: {
      const auto [ep, inserted] = episodes_.try_emplace(key);
      if (inserted) {
        ep->first_ihave = sim_.now();
        count(node, "recovery_episodes");
      } else if (ep->state == EpisodeState::kGaveUp) {
        // A fresh advertisement restarted an abandoned recovery; it is
        // the same episode (same missing payload), re-opened.
        ep->state = EpisodeState::kOpen;
      }
      break;
    }
    case LazyEvent::kIWant:
    case LazyEvent::kIWantRetry: {
      Episode& ep = episodes_[key];
      ++ep.iwants;
      count(node, "iwants_sent");
      if (event == LazyEvent::kIWantRetry) {
        ++ep.retries;
        count(node, "iwant_retries");
      }
      break;
    }
    case LazyEvent::kRecovered: {
      Episode* ep = episodes_.find(key);
      if (ep != nullptr && ep->state != EpisodeState::kRecovered) {
        recover(node, *ep);
      }
      break;
    }
    case LazyEvent::kGaveUp: {
      Episode* ep = episodes_.find(key);
      if (ep != nullptr && ep->state == EpisodeState::kOpen) {
        ep->state = EpisodeState::kGaveUp;
        ep->closed_at = sim_.now();
      }
      count(node, "recovery_gave_up");
      break;
    }
  }
}

void LifecycleTracker::on_delivery(NodeId node, const MsgId& id,
                                   SimTime latency) {
  count(node, "deliveries");
  sample(node, "delivery_latency_ms",
         static_cast<std::uint64_t>(latency < 0 ? 0 : latency / kMillisecond));

  // A payload can also arrive eagerly after the lazy path gave up; either
  // way, delivery closes the episode as recovered.
  Episode* ep = episodes_.find(episode_key(node, id));
  if (ep != nullptr && ep->state != EpisodeState::kRecovered) {
    recover(node, *ep);
  }
}

void LifecycleTracker::recover(NodeId node, Episode& ep) {
  ep.state = EpisodeState::kRecovered;
  ep.closed_at = sim_.now();
  count(node, "recovery_recovered");
  sample(node, "recovery_ms",
         static_cast<std::uint64_t>((sim_.now() - ep.first_ihave) /
                                    kMillisecond));
}

void LifecycleTracker::on_drop(NodeId src, NodeId dst, bool is_payload,
                               net::Transport::DropReason reason) {
  (void)dst;
  count(src, drop_counter_name(reason));
  if (is_payload) count(src, "drops_payload");
}

void LifecycleTracker::on_relay(NodeId node, std::size_t relayed_to) {
  count(node, "relays");
  sample(node, "relay_fanout", relayed_to);
}

void LifecycleTracker::on_pull_fetch(NodeId node, bool refetch) {
  count(node, "pull_fetches");
  if (refetch) count(node, "pull_refetches");
}

void LifecycleTracker::finalize() {
  ESM_CHECK(!finalized_, "LifecycleTracker::finalize called twice");
  finalized_ = true;
  // Stalled = the payload never arrived: episodes still open at the end
  // of the run plus abandoned ones never closed by a later delivery.
  // (Histogram adds commute, so slot-order iteration stays deterministic.)
  episodes_.for_each([&](std::uint64_t key, const Episode& ep) {
    metrics_.aggregate.histogram("recovery_iwants").add(ep.iwants);
    if (ep.state != EpisodeState::kRecovered) {
      count(static_cast<NodeId>(key >> 32), "recovery_stalled");
    }
  });
  // Pin the headline keys into the aggregate even at zero, so the JSON
  // schema is stable and "recovery_stalled":0 is visible proof rather
  // than an absent key.
  for (const char* name :
       {"recovery_episodes", "recovery_recovered", "recovery_stalled",
        "recovery_gave_up", "iwants_sent", "iwant_retries"}) {
    metrics_.aggregate.add_counter(name, 0);
  }
}

}  // namespace esm::obs
