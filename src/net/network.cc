#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hermes::net {

namespace {

std::pair<SiteId, SiteId> UnorderedPair(SiteId a, SiteId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

Network::Network(const NetworkConfig& config, sim::EventLoop* loop,
                 trace::Tracer* tracer)
    : config_(config), loop_(loop), tracer_(tracer), rng_(config.seed) {}

void Network::RegisterEndpoint(SiteId site, Handler handler) {
  assert(endpoints_.find(site) == endpoints_.end());
  endpoints_[site] = std::move(handler);
}

void Network::UnregisterEndpoint(SiteId site) { endpoints_.erase(site); }

void Network::SetLinkLoss(SiteId from, SiteId to, double p) {
  link_loss_[{from, to}] = p;
}

void Network::ClearLinkLoss(SiteId from, SiteId to) {
  link_loss_.erase({from, to});
}

void Network::Partition(SiteId a, SiteId b, sim::Time until) {
  partitions_[UnorderedPair(a, b)] = until;
}

bool Network::Partitioned(SiteId a, SiteId b) const {
  auto it = partitions_.find(UnorderedPair(a, b));
  return it != partitions_.end() && loop_->Now() < it->second;
}

double Network::LinkLoss(SiteId from, SiteId to) const {
  auto it = link_loss_.find({from, to});
  return it != link_loss_.end() ? it->second : config_.loss_prob;
}

void Network::Drop(SiteId from, SiteId to, const char* cause) {
  ++messages_dropped_;
  if (tracer_ != nullptr) {
    tracer_->Record({.kind = trace::EventKind::kMsgDrop, .site = from,
                     .peer = to, .ok = false, .detail = cause});
  }
}

sim::Duration Network::DrawDelay(SiteId from, SiteId to) {
  sim::Duration delay =
      from == to ? config_.local_latency : config_.base_latency;
  if (config_.jitter > 0) {
    delay += static_cast<sim::Duration>(
        rng_.NextUint64(static_cast<uint64_t>(config_.jitter) + 1));
  }
  return delay;
}

void Network::Deliver(SiteId from, SiteId to, sim::Time at,
                      std::any payload) {
  Envelope env{from, to, std::move(payload)};
  loop_->ScheduleAt(at, [this, to, env = std::move(env)]() {
    auto it = endpoints_.find(to);
    if (it != endpoints_.end()) it->second(env);
  });
}

void Network::Send(SiteId from, SiteId to, std::any payload) {
  ++messages_sent_;
  if (endpoints_.find(to) == endpoints_.end()) {
    // Destination crashed or never started: a real WAN message to a dead
    // host just vanishes — never abort the simulation.
    Drop(from, to, "unregistered");
    return;
  }
  const bool local = from == to;
  if (!local) {
    if (Partitioned(from, to)) {
      Drop(from, to, "partition");
      return;
    }
    const double loss = LinkLoss(from, to);
    if (loss > 0 && rng_.NextBool(loss)) {
      Drop(from, to, "loss");
      return;
    }
  }
  sim::Duration delay = DrawDelay(from, to);
  bool reordered = false;
  if (!local && config_.reorder_prob > 0 &&
      rng_.NextBool(config_.reorder_prob)) {
    // Extra delay outside the FIFO clamp: later sends may overtake this
    // message.
    reordered = true;
    ++messages_reordered_;
    if (config_.reorder_window > 0) {
      delay += static_cast<sim::Duration>(rng_.NextUint64(
          static_cast<uint64_t>(config_.reorder_window) + 1));
    }
  }
  sim::Time at = loop_->Now() + delay;
  if (!reordered) {
    // FIFO per ordered pair: never deliver before an earlier send. A
    // reordered message neither obeys nor advances the clamp, so it can be
    // overtaken without delaying everything behind it.
    auto& last = last_delivery_[{from, to}];
    if (at < last) at = last;
    last = at;
  }
  if (tracer_ != nullptr) {
    tracer_->Record({.kind = trace::EventKind::kMsgSend, .site = from,
                     .peer = to, .value = at - loop_->Now()});
  }
  if (!local && config_.dup_prob > 0 && rng_.NextBool(config_.dup_prob)) {
    // Deliver a second copy after an independent extra delay, outside the
    // FIFO order — the classic retransmit-then-original-arrives duplicate.
    ++messages_duplicated_;
    sim::Duration extra = DrawDelay(from, to);
    if (config_.reorder_window > 0) {
      extra += static_cast<sim::Duration>(rng_.NextUint64(
          static_cast<uint64_t>(config_.reorder_window) + 1));
    }
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = trace::EventKind::kMsgDup, .site = from,
                       .peer = to, .value = at + extra - loop_->Now()});
    }
    Deliver(from, to, at + extra, payload);
  }
  Deliver(from, to, at, std::move(payload));
}

}  // namespace hermes::net
