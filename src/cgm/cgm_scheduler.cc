#include "cgm/cgm_scheduler.h"

namespace hermes::cgm {

CgmScheduler::CgmScheduler(SiteId endpoint, SiteId client_endpoint,
                           const CgmSchedulerConfig& config,
                           sim::EventLoop* loop, net::Network* network,
                           core::Metrics* metrics, trace::Tracer* tracer)
    : endpoint_(endpoint),
      client_endpoint_(client_endpoint),
      config_(config),
      loop_(loop),
      network_(network),
      metrics_(metrics),
      tracer_(tracer),
      locks_(config.lock_timeout, loop) {}

void CgmScheduler::TryAdmission(const TxnId& gtid, std::vector<SiteId> sites,
                                sim::Time deadline) {
  if (graph_.TryAdd(gtid, sites)) {
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = trace::EventKind::kCgmAdmission, .txn = gtid,
                       .site = endpoint_});
    }
    network_->Send(endpoint_, client_endpoint_,
                   CgmMessage{CommitCheckReplyMsg{gtid, Status::Ok()}});
    return;
  }
  if (loop_->Now() >= deadline) {
    ++metrics_->cgm_graph_rejections;
    if (tracer_ != nullptr) {
      tracer_->Record(
          {.kind = trace::EventKind::kCgmAdmission, .txn = gtid,
           .site = endpoint_, .ok = false,
           .detail = "commit graph: admission would create a loop"});
    }
    network_->Send(
        endpoint_, client_endpoint_,
        CgmMessage{CommitCheckReplyMsg{
            gtid,
            Status::Rejected("commit graph: admission would create a loop")}});
    return;
  }
  loop_->ScheduleAfter(config_.admission_retry_interval,
                       [this, gtid, sites = std::move(sites), deadline]() {
                         TryAdmission(gtid, sites, deadline);
                       });
}

void CgmScheduler::Handle(const net::Envelope& env) {
  const auto* msg = std::any_cast<CgmMessage>(&env.payload);
  if (msg == nullptr) return;

  if (const auto* m = std::get_if<LockRequestMsg>(msg)) {
    const TxnId gtid = m->gtid;
    const uint64_t request_id = m->request_id;
    const int64_t granules = static_cast<int64_t>(m->granules.size());
    locks_.AcquireAll(gtid, m->granules,
                      [this, gtid, request_id, granules](Status s) {
      if (!s.ok()) ++metrics_->cgm_lock_timeouts;
      if (tracer_ != nullptr) {
        tracer_->Record({.kind = trace::EventKind::kCgmLock, .txn = gtid,
                         .site = endpoint_, .value = granules, .ok = s.ok(),
                         .detail = s.ok() ? std::string() : s.ToString()});
      }
      network_->Send(endpoint_, client_endpoint_,
                     CgmMessage{LockReplyMsg{gtid, request_id, s}});
    });
    return;
  }
  if (const auto* m = std::get_if<CommitCheckMsg>(msg)) {
    TryAdmission(m->gtid, m->sites, loop_->Now() + config_.admission_timeout);
    return;
  }
  if (const auto* m = std::get_if<FinishedMsg>(msg)) {
    locks_.ReleaseAll(m->gtid);
    graph_.Remove(m->gtid);
  }
}

}  // namespace hermes::cgm
