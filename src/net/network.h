// Simulated inter-site message transport.
//
// The paper (section 2) assumes the 2PC messages "are not corrupted, lost or
// out of order"; by default the Network therefore provides reliable FIFO
// delivery between every ordered pair of sites, with a configurable latency
// model. A fault-injection layer can weaken that assumption on purpose:
// per-link message loss, duplicate delivery, bounded reordering and timed
// partitions, all driven by the same deterministic seeded RNG — so the 2PC
// timeout/retransmission machinery in the Coordinator and the duplicate-safe
// Agent handlers can be exercised reproducibly. Messages a site sends to
// itself (coordinator to co-located agent) use in-process delivery and are
// exempt from all injected faults.
//
// Payloads are type-erased (std::any) so the same transport carries the 2PC
// Agent protocol of the core DTM as well as the centralized CGM baseline
// protocol without the transport depending on either.

#ifndef HERMES_NET_NETWORK_H_
#define HERMES_NET_NETWORK_H_

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::net {

struct NetworkConfig {
  // One-way delay between distinct sites.
  sim::Duration base_latency = 1 * sim::kMillisecond;
  // Uniform random extra delay in [0, jitter].
  sim::Duration jitter = 0;
  // Delay for messages a site sends to itself (coordinator to co-located
  // agent).
  sim::Duration local_latency = 10 * sim::kMicrosecond;
  uint64_t seed = 1;

  // --- fault injection (inter-site messages only) -------------------------
  // Probability that a message is silently dropped (per-link overrides via
  // SetLinkLoss take precedence).
  double loss_prob = 0;
  // Probability that a second copy of a delivered message is also delivered
  // after an independent extra delay (outside the FIFO order).
  double dup_prob = 0;
  // Probability that a message skips the per-pair FIFO clamp and takes a
  // random extra delay in [0, reorder_window], letting later sends overtake
  // it.
  double reorder_prob = 0;
  sim::Duration reorder_window = 5 * sim::kMillisecond;
};

struct Envelope {
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  std::any payload;
};

class Network {
 public:
  using Handler = std::function<void(const Envelope&)>;

  // `tracer` may be null (tracing disabled).
  Network(const NetworkConfig& config, sim::EventLoop* loop,
          trace::Tracer* tracer = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // At most one handler per destination site.
  void RegisterEndpoint(SiteId site, Handler handler);
  // Removes a site's handler (site crash): messages addressed to it — both
  // newly sent and already in flight — are dropped and counted. Re-register
  // when the site recovers. Unknown sites are a no-op.
  void UnregisterEndpoint(SiteId site);

  // Queues `payload` for delivery to `to`'s handler after the modeled
  // latency. Messages between the same ordered pair are delivered in send
  // order (FIFO) even with jitter, unless reordering faults are enabled.
  // Sends to sites without a registered endpoint (crashed / never started)
  // are dropped and counted, never a crash.
  void Send(SiteId from, SiteId to, std::any payload);

  // Overrides the loss probability of the ordered link `from` -> `to`. A
  // per-link entry always wins over the global loss_prob, so p = 0 makes
  // that link lossless even in a lossy network. Remove with ClearLinkLoss.
  void SetLinkLoss(SiteId from, SiteId to, double p);
  void ClearLinkLoss(SiteId from, SiteId to);

  // Drops every message between `a` and `b` (both directions) until virtual
  // time `until`. Repeated calls extend/replace the window.
  void Partition(SiteId a, SiteId b, sim::Time until);
  // True while the (unordered) pair is inside a partition window.
  bool Partitioned(SiteId a, SiteId b) const;

  int64_t messages_sent() const { return messages_sent_; }
  int64_t messages_dropped() const { return messages_dropped_; }
  int64_t messages_duplicated() const { return messages_duplicated_; }
  int64_t messages_reordered() const { return messages_reordered_; }

 private:
  // Counts and traces a message that never reaches its destination
  // handler; `cause` is the trace detail (unregistered / partition / loss).
  void Drop(SiteId from, SiteId to, const char* cause);
  void Deliver(SiteId from, SiteId to, sim::Time at, std::any payload);
  double LinkLoss(SiteId from, SiteId to) const;
  sim::Duration DrawDelay(SiteId from, SiteId to);

  NetworkConfig config_;
  sim::EventLoop* loop_;
  trace::Tracer* tracer_;
  Rng rng_;
  std::map<SiteId, Handler> endpoints_;
  // Last scheduled delivery time per ordered (from, to) pair, for FIFO.
  std::map<std::pair<SiteId, SiteId>, sim::Time> last_delivery_;
  std::map<std::pair<SiteId, SiteId>, double> link_loss_;
  // Partition end time per unordered pair (min, max).
  std::map<std::pair<SiteId, SiteId>, sim::Time> partitions_;
  int64_t messages_sent_ = 0;
  int64_t messages_dropped_ = 0;
  int64_t messages_duplicated_ = 0;
  int64_t messages_reordered_ = 0;
};

}  // namespace hermes::net

#endif  // HERMES_NET_NETWORK_H_
