#include "fault/injector.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

namespace hermes::fault {

namespace {

void Fire(const FaultEvent& ev, core::Mdbs* mdbs, trace::Tracer* tracer) {
  if (tracer != nullptr) {
    tracer->Record({.kind = trace::EventKind::kFaultEvent, .site = ev.site,
                    .peer = ev.peer, .value = ev.duration,
                    .detail = FaultKindName(ev.kind)});
  }
  sim::EventLoop* loop = mdbs->loop();
  switch (ev.kind) {
    case FaultKind::kCrashSite:
      mdbs->CrashSite(ev.site, ev.duration);
      break;
    case FaultKind::kRecoverSite:
      mdbs->RecoverSite(ev.site);
      break;
    case FaultKind::kPartition:
      mdbs->network().Partition(ev.site, ev.peer, loop->Now() + ev.duration);
      break;
    case FaultKind::kHeal:
      // Shrinking the window to "now" ends the partition immediately.
      mdbs->network().Partition(ev.site, ev.peer, loop->Now());
      break;
    case FaultKind::kLossBurst:
      mdbs->network().SetLinkLoss(ev.site, ev.peer, ev.loss_prob);
      mdbs->network().SetLinkLoss(ev.peer, ev.site, ev.loss_prob);
      loop->ScheduleAfter(std::max<sim::Duration>(ev.duration, 0),
                          [mdbs, a = ev.site, b = ev.peer]() {
                            mdbs->network().ClearLinkLoss(a, b);
                            mdbs->network().ClearLinkLoss(b, a);
                          });
      break;
    case FaultKind::kAddSite:
    case FaultKind::kRemoveSite:
    case FaultKind::kReplaceSite: {
      shard::ReconfigOp op;
      op.kind = ev.kind == FaultKind::kAddSite
                    ? shard::ReconfigKind::kAddSite
                : ev.kind == FaultKind::kRemoveSite
                    ? shard::ReconfigKind::kRemoveSite
                    : shard::ReconfigKind::kReplaceSite;
      op.site = ev.site;
      // Best-effort: sharding disabled, a busy controller or an invalid
      // target silently drops the event — chaos plans are requests, not
      // invariants (the kFaultEvent trace above still marks the attempt).
      (void)mdbs->StartReconfig(op);
      break;
    }
  }
}

// State of one kOnPrepared trigger: counts down prepares at the watched
// site, fires once.
struct Watch {
  FaultEvent ev;
  int32_t remaining = 1;
  bool fired = false;
};

}  // namespace

void InstallFaultPlan(const FaultPlan& plan, core::Mdbs* mdbs,
                      trace::Tracer* tracer) {
  sim::EventLoop* loop = mdbs->loop();
  auto watches = std::make_shared<std::map<SiteId, std::vector<Watch>>>();
  for (const FaultEvent& ev : plan.events) {
    if (ev.trigger == TriggerKind::kAtTime) {
      const sim::Duration delay =
          ev.at > loop->Now() ? ev.at - loop->Now() : 0;
      loop->ScheduleAfter(delay,
                          [ev, mdbs, tracer]() { Fire(ev, mdbs, tracer); });
    } else {
      if (ev.watch_site == kInvalidSite ||
          ev.watch_site >= mdbs->num_sites()) {
        continue;
      }
      (*watches)[ev.watch_site].push_back(
          Watch{ev, std::max<int32_t>(ev.nth, 1)});
    }
  }
  for (auto& [site, list] : *watches) {
    (void)list;
    mdbs->agent(site)->add_prepared_hook(
        [watches, site, mdbs, loop, tracer](const TxnId&, LtmTxnHandle) {
          for (Watch& w : (*watches)[site]) {
            if (w.fired) continue;
            if (--w.remaining > 0) continue;
            w.fired = true;
            const FaultEvent ev = w.ev;
            // Defer: this hook runs inside OnPrepare, and firing may crash
            // the very site whose agent is mid-handler.
            loop->ScheduleAfter(
                0, [ev, mdbs, tracer]() { Fire(ev, mdbs, tracer); });
          }
        });
  }
}

}  // namespace hermes::fault
