#include "consensus/paxos.h"

#include <algorithm>
#include <utility>

namespace hermes::consensus {

PaxosCommit::PaxosCommit(const PaxosConfig& config, sim::EventLoop* loop,
                         net::Network* network, history::Recorder* recorder,
                         core::Metrics* metrics, trace::Tracer* tracer)
    : config_(config),
      f_(std::min(config.f, (config.num_sites - 1) / 2)),
      loop_(loop),
      network_(network),
      recorder_(recorder),
      metrics_(metrics),
      tracer_(tracer) {
  if (f_ < 0) f_ = 0;
}

PaxosCommit::~PaxosCommit() {
  for (auto& [gtid, l] : leaders_) CancelTimer(l.decide_timer);
  for (auto& [gtid, r] : resolvers_) CancelTimer(r.retry_timer);
}

void PaxosCommit::CancelTimer(sim::EventId& id) {
  if (id != sim::kInvalidEvent) {
    loop_->Cancel(id);
    id = sim::kInvalidEvent;
  }
}

void PaxosCommit::TraceEvent(trace::EventKind kind, const TxnId& gtid,
                             SiteId peer, int64_t value, bool ok) {
  if (tracer_ == nullptr) return;
  trace::Event e;
  e.kind = kind;
  e.txn = gtid;
  e.site = config_.site;
  e.peer = peer;
  e.value = value;
  e.ok = ok;
  tracer_->Record(std::move(e));
}

void PaxosCommit::SendToAcceptors(const core::Message& msg) {
  for (SiteId a = 0; a < static_cast<SiteId>(num_acceptors()); ++a) {
    network_->Send(config_.site, a, msg);
  }
}

// --- leader role -------------------------------------------------------------

void PaxosCommit::BeginDecision(const TxnId& gtid,
                                const std::vector<SiteId>& participants) {
  LeaderTxn& l = leaders_[gtid];
  l.participants = participants;
  TraceEvent(trace::EventKind::kPaxosBegin, gtid, kInvalidSite,
             static_cast<int64_t>(participants.size()), true);
  core::PaxosBeginMsg msg;
  msg.gtid = gtid;
  msg.leader = config_.site;
  msg.participants = participants;
  SendToAcceptors(core::Message{msg});
}

void PaxosCommit::Decide(const TxnId& gtid, DecideMode mode,
                         const std::vector<SiteId>& participants,
                         int64_t /*csn*/, DecidedFn done) {
  // Paxos Commit does not persist per-decision metadata; CSN certification
  // is 2PC-only (Mdbs downgrades the knob) so the csn is always -1 here.
  if (mode == DecideMode::kAbortFinal) {
    // A definite refusal: no READY value can ever be chosen for the
    // refusing instance (its RM only ever proposed REFUSE at ballot 0, and
    // resolvers propose REFUSE for free instances), so every resolver
    // reaches the same abort. Seal it locally and answer immediately.
    auto it = leaders_.find(gtid);
    if (it != leaders_.end()) CancelTimer(it->second.decide_timer);
    decided_.emplace(gtid, false);
    TraceEvent(trace::EventKind::kPaxosDecided, gtid, kInvalidSite,
               /*value=*/-1, /*ok=*/false);
    done(gtid, false);
    return;
  }
  if (auto it = decided_.find(gtid); it != decided_.end()) {
    // A resolution round at this site (its own agent escalated, or an
    // inquiry reached AnswerInquiry) sealed the outcome before the
    // coordinator asked; Finish will not run again, so answer now.
    done(gtid, it->second);
    return;
  }
  LeaderTxn& l = leaders_[gtid];
  if (l.participants.empty()) l.participants = participants;
  l.decide_requested = true;
  l.done = std::move(done);
  if (mode == DecideMode::kAbortTimeout) {
    // Votes are missing; the outcome is genuinely open (a prepared RM's
    // broadcast may have reached the acceptors even though the VoteMsg to
    // the coordinator was lost). Only a consensus round may seal it.
    StartResolve(gtid);
    return;
  }
  // kCommit: every participant told the coordinator READY. Wait for the
  // ballot-0 fast path; fall back to a resolution round on timeout.
  CheckFastPath(gtid);
  if (decided_.count(gtid) != 0) return;
  LeaderTxn& l2 = leaders_[gtid];  // CheckFastPath may not have finished
  if (l2.decide_timer == sim::kInvalidEvent) {
    l2.decide_timer = loop_->ScheduleAfter(
        config_.decide_timeout, [this, gtid]() {
          auto it = leaders_.find(gtid);
          if (it == leaders_.end()) return;
          it->second.decide_timer = sim::kInvalidEvent;
          if (decided_.count(gtid) == 0) StartResolve(gtid);
        });
  }
}

void PaxosCommit::CheckFastPath(const TxnId& gtid) {
  auto it = leaders_.find(gtid);
  if (it == leaders_.end() || decided_.count(gtid) != 0) return;
  LeaderTxn& l = it->second;
  if (!l.decide_requested) return;
  if (static_cast<int>(l.begin_acks.size()) < quorum()) return;
  for (SiteId p : l.participants) {
    auto rit = l.ready_2b.find(p);
    if (rit == l.ready_2b.end() ||
        static_cast<int>(rit->second.size()) < quorum()) {
      return;
    }
  }
  ++metrics_->paxos_decided_fast;
  Finish(gtid, /*commit=*/true, /*ballot=*/0);
}

std::optional<bool> PaxosCommit::AnswerInquiry(const TxnId& gtid,
                                               SiteId requester) {
  auto it = decided_.find(gtid);
  if (it != decided_.end()) return it->second;
  requesters_[gtid].insert(requester);
  StartResolve(gtid);
  return std::nullopt;
}

void PaxosCommit::Forget(const TxnId& gtid) {
  auto it = leaders_.find(gtid);
  if (it != leaders_.end()) {
    CancelTimer(it->second.decide_timer);
    leaders_.erase(it);
  }
  requesters_.erase(gtid);
}

void PaxosCommit::Crash() {
  // Everything but the acceptor log is volatile. Decided outcomes are
  // recoverable from the acceptor quorum, so the cache may be dropped too.
  for (auto& [gtid, l] : leaders_) CancelTimer(l.decide_timer);
  for (auto& [gtid, r] : resolvers_) CancelTimer(r.retry_timer);
  leaders_.clear();
  resolvers_.clear();
  acceptor_.clear();
  decided_.clear();
  requesters_.clear();
}

std::vector<DecisionProtocol::InFlight> PaxosCommit::RecoverInFlight() {
  // Nothing to re-drive from the coordinator: outcomes live in the acceptor
  // quorum and prepared agents pull them via inquiry escalation.
  return {};
}

void PaxosCommit::Recover() {
  // Replay the durable records in order; the latest record per key wins.
  for (const AcceptorLogRecord& rec : log_.records()) {
    AcceptorTxn& a = acceptor_[rec.gtid];
    switch (rec.kind) {
      case AcceptorRecordKind::kPromise:
        a.promised = std::max(a.promised, rec.ballot);
        break;
      case AcceptorRecordKind::kMembership:
        if (rec.ballot >= a.membership_ballot) {
          a.membership_ballot = rec.ballot;
          a.membership = rec.membership;
        }
        break;
      case AcceptorRecordKind::kVote: {
        Slot& s = a.votes[rec.participant];
        if (rec.ballot >= s.ballot) {
          s.ballot = rec.ballot;
          s.ready = rec.ready;
        }
        break;
      }
    }
  }
}

// --- participant (RM) side ---------------------------------------------------

void PaxosCommit::BroadcastVote(const TxnId& gtid, bool ready, SiteId leader) {
  core::PaxosVoteMsg msg;
  msg.gtid = gtid;
  msg.participant = config_.site;
  msg.leader = leader;
  msg.ready = ready;
  SendToAcceptors(core::Message{msg});
}

void PaxosCommit::Escalate(const TxnId& gtid, SiteId coordinator,
                           int attempt) {
  requesters_[gtid].insert(config_.site);
  auto it = decided_.find(gtid);
  if (it != decided_.end()) {
    network_->Send(config_.site, config_.site,
                   core::Message{core::DecisionMsg{gtid, it->second}});
    return;
  }
  if (resolvers_.count(gtid) != 0) return;  // election already running
  ++metrics_->paxos_elections;
  TraceEvent(trace::EventKind::kPaxosElect, gtid, coordinator, attempt, true);
  StartResolve(gtid);
}

// --- message plumbing --------------------------------------------------------

void PaxosCommit::Handle(SiteId from, const core::Message& msg) {
  if (const auto* m = std::get_if<core::PaxosBeginMsg>(&msg)) {
    OnBegin(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosBeginAckMsg>(&msg)) {
    OnBeginAck(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosVoteMsg>(&msg)) {
    OnVote(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosVotedMsg>(&msg)) {
    OnVoted(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosPrepareMsg>(&msg)) {
    OnPrepare(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosPromiseMsg>(&msg)) {
    OnPromise(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosProposeMsg>(&msg)) {
    OnPropose(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosAcceptedMsg>(&msg)) {
    OnAccepted(from, *m);
  }
}

// --- acceptor role -----------------------------------------------------------

void PaxosCommit::OnBegin(SiteId /*from*/, const core::PaxosBeginMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (a.membership_ballot == 0) {
    // Duplicate: re-ack (the first ack may have raced a leader restart).
    network_->Send(config_.site, msg.leader,
                   core::Message{core::PaxosBeginAckMsg{msg.gtid}});
    return;
  }
  if (a.promised > 0 || a.membership_ballot > 0) return;  // resolver took over
  a.membership_ballot = 0;
  a.membership = msg.participants;
  AcceptorLogRecord rec;
  rec.kind = AcceptorRecordKind::kMembership;
  rec.gtid = msg.gtid;
  rec.ballot = 0;
  rec.membership = msg.participants;
  log_.ForceAppend(std::move(rec));
  ++metrics_->paxos_forced_writes;
  network_->Send(config_.site, msg.leader,
                 core::Message{core::PaxosBeginAckMsg{msg.gtid}});
}

void PaxosCommit::OnVote(SiteId /*from*/, const core::PaxosVoteMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  Slot& s = a.votes[msg.participant];
  if (s.ballot == 0) {
    // Duplicate ballot-0 vote: re-send the 2b.
    network_->Send(config_.site, msg.leader,
                   core::Message{core::PaxosVotedMsg{msg.gtid,
                                                     msg.participant,
                                                     s.ready}});
    return;
  }
  if (a.promised > 0 || s.ballot > 0) return;  // resolver took over
  s.ballot = 0;
  s.ready = msg.ready;
  AcceptorLogRecord rec;
  rec.kind = AcceptorRecordKind::kVote;
  rec.gtid = msg.gtid;
  rec.ballot = 0;
  rec.participant = msg.participant;
  rec.ready = msg.ready;
  log_.ForceAppend(std::move(rec));
  ++metrics_->paxos_forced_writes;
  ++metrics_->paxos_votes_accepted;
  TraceEvent(trace::EventKind::kPaxosVote, msg.gtid, msg.participant,
             /*value=*/0, msg.ready);
  network_->Send(
      config_.site, msg.leader,
      core::Message{core::PaxosVotedMsg{msg.gtid, msg.participant, s.ready}});
}

void PaxosCommit::OnPrepare(SiteId from, const core::PaxosPrepareMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (msg.ballot <= a.promised) return;  // an equal/higher ballot holds
  a.promised = msg.ballot;
  AcceptorLogRecord rec;
  rec.kind = AcceptorRecordKind::kPromise;
  rec.gtid = msg.gtid;
  rec.ballot = msg.ballot;
  log_.ForceAppend(std::move(rec));
  ++metrics_->paxos_forced_writes;
  TraceEvent(trace::EventKind::kPaxosPromise, msg.gtid, from, msg.ballot,
             true);
  core::PaxosPromiseMsg reply;
  reply.gtid = msg.gtid;
  reply.ballot = msg.ballot;
  reply.membership_ballot = a.membership_ballot;
  reply.membership = a.membership;
  for (const auto& [participant, slot] : a.votes) {
    if (slot.ballot < 0) continue;
    reply.votes.push_back(core::PaxosPromiseMsg::AcceptedVote{
        participant, slot.ballot, slot.ready});
  }
  network_->Send(config_.site, from, core::Message{std::move(reply)});
}

void PaxosCommit::OnPropose(SiteId from, const core::PaxosProposeMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (msg.ballot < a.promised) return;
  a.promised = msg.ballot;
  a.membership_ballot = msg.ballot;
  a.membership = msg.membership;
  AcceptorLogRecord mrec;
  mrec.kind = AcceptorRecordKind::kMembership;
  mrec.gtid = msg.gtid;
  mrec.ballot = msg.ballot;
  mrec.membership = msg.membership;
  log_.ForceAppend(std::move(mrec));
  ++metrics_->paxos_forced_writes;
  for (SiteId p : msg.membership) {
    Slot& s = a.votes[p];
    s.ballot = msg.ballot;
    s.ready = std::find(msg.ready_participants.begin(),
                        msg.ready_participants.end(),
                        p) != msg.ready_participants.end();
    AcceptorLogRecord rec;
    rec.kind = AcceptorRecordKind::kVote;
    rec.gtid = msg.gtid;
    rec.ballot = msg.ballot;
    rec.participant = p;
    rec.ready = s.ready;
    log_.ForceAppend(std::move(rec));
    ++metrics_->paxos_forced_writes;
  }
  const bool would_commit =
      !msg.membership.empty() &&
      msg.ready_participants.size() == msg.membership.size();
  TraceEvent(trace::EventKind::kPaxosAccept, msg.gtid, from, msg.ballot,
             would_commit);
  network_->Send(config_.site, from,
                 core::Message{core::PaxosAcceptedMsg{msg.gtid, msg.ballot}});
}

// --- leader / resolver replies ----------------------------------------------

void PaxosCommit::OnBeginAck(SiteId from, const core::PaxosBeginAckMsg& msg) {
  auto it = leaders_.find(msg.gtid);
  if (it == leaders_.end()) return;
  it->second.begin_acks.insert(from);
  CheckFastPath(msg.gtid);
}

void PaxosCommit::OnVoted(SiteId from, const core::PaxosVotedMsg& msg) {
  auto it = leaders_.find(msg.gtid);
  if (it == leaders_.end() || !msg.ready) return;
  it->second.ready_2b[msg.participant].insert(from);
  CheckFastPath(msg.gtid);
}

void PaxosCommit::StartResolve(const TxnId& gtid) {
  if (decided_.count(gtid) != 0 || resolvers_.count(gtid) != 0) return;
  ResolverTxn& r = resolvers_[gtid];
  r.attempt = 0;
  r.ballot = NextBallot(0);
  ++metrics_->paxos_resolutions;
  SendResolvePrepare(gtid, r);
}

void PaxosCommit::SendResolvePrepare(const TxnId& gtid, ResolverTxn& r) {
  r.promises.clear();
  r.accepts.clear();
  r.proposed = false;
  TraceEvent(trace::EventKind::kPaxosPrepare, gtid, kInvalidSite, r.ballot,
             true);
  SendToAcceptors(core::Message{core::PaxosPrepareMsg{gtid, r.ballot}});
  CancelTimer(r.retry_timer);
  sim::Duration delay = config_.resolve_retry_initial;
  for (int i = 0; i < r.attempt; ++i) {
    delay = std::min(delay * 2, config_.resolve_retry_max);
  }
  r.retry_timer =
      loop_->ScheduleAfter(delay, [this, gtid]() { OnResolveRetry(gtid); });
}

void PaxosCommit::OnResolveRetry(const TxnId& gtid) {
  auto it = resolvers_.find(gtid);
  if (it == resolvers_.end()) return;
  ResolverTxn& r = it->second;
  r.retry_timer = sim::kInvalidEvent;
  if (decided_.count(gtid) != 0) {
    resolvers_.erase(it);
    return;
  }
  // The round stalled (acceptor down, messages lost, or a higher ballot in
  // the way): retry at a fresh, strictly higher site-unique ballot.
  ++r.attempt;
  r.ballot = NextBallot(r.attempt);
  SendResolvePrepare(gtid, r);
}

void PaxosCommit::OnPromise(SiteId from, const core::PaxosPromiseMsg& msg) {
  auto it = resolvers_.find(msg.gtid);
  if (it == resolvers_.end()) return;
  ResolverTxn& r = it->second;
  if (msg.ballot != r.ballot || r.proposed) return;
  r.promises[from] = msg;
  if (static_cast<int>(r.promises.size()) < quorum()) return;
  // Phase 2a: adopt the highest-ballot accepted membership; if none was
  // accepted anywhere in the quorum, the original leader may propose its
  // real set, any other resolver must propose the empty abort marker.
  int64_t best_ballot = -1;
  std::vector<SiteId> membership;
  for (const auto& [site, promise] : r.promises) {
    if (promise.membership_ballot > best_ballot) {
      best_ballot = promise.membership_ballot;
      membership = promise.membership;
    }
  }
  if (best_ballot < 0) {
    auto lit = leaders_.find(msg.gtid);
    if (lit != leaders_.end() && !lit->second.participants.empty()) {
      membership = lit->second.participants;
    } else {
      membership.clear();  // abort marker
    }
  }
  // Per instance in the membership: adopt the highest-ballot accepted vote,
  // or REFUSE if the instance is free.
  std::vector<SiteId> ready;
  for (SiteId p : membership) {
    int64_t vb = -1;
    bool vready = false;
    for (const auto& [site, promise] : r.promises) {
      for (const auto& v : promise.votes) {
        if (v.participant == p && v.ballot > vb) {
          vb = v.ballot;
          vready = v.ready;
        }
      }
    }
    if (vb >= 0 && vready) ready.push_back(p);
  }
  r.proposed = true;
  r.prop_membership = std::move(membership);
  r.prop_ready = std::move(ready);
  core::PaxosProposeMsg prop;
  prop.gtid = msg.gtid;
  prop.ballot = r.ballot;
  prop.membership = r.prop_membership;
  prop.ready_participants = r.prop_ready;
  SendToAcceptors(core::Message{std::move(prop)});
}

void PaxosCommit::OnAccepted(SiteId from, const core::PaxosAcceptedMsg& msg) {
  auto it = resolvers_.find(msg.gtid);
  if (it == resolvers_.end()) return;
  ResolverTxn& r = it->second;
  if (msg.ballot != r.ballot || !r.proposed) return;
  r.accepts.insert(from);
  if (static_cast<int>(r.accepts.size()) < quorum()) return;
  const bool commit = !r.prop_membership.empty() &&
                      r.prop_ready.size() == r.prop_membership.size();
  ++metrics_->paxos_decided_resolved;
  Finish(msg.gtid, commit, r.ballot);
}

// --- outcome -----------------------------------------------------------------

void PaxosCommit::Finish(const TxnId& gtid, bool commit, int64_t ballot) {
  if (decided_.count(gtid) != 0) return;
  decided_.emplace(gtid, commit);
  TraceEvent(trace::EventKind::kPaxosDecided, gtid, kInvalidSite, ballot,
             commit);
  std::vector<SiteId> participants;
  auto rit = resolvers_.find(gtid);
  if (rit != resolvers_.end()) {
    participants = rit->second.prop_membership;
    CancelTimer(rit->second.retry_timer);
    resolvers_.erase(rit);
  }
  DecidedFn done;
  auto lit = leaders_.find(gtid);
  if (lit != leaders_.end()) {
    if (participants.empty()) participants = lit->second.participants;
    CancelTimer(lit->second.decide_timer);
    done = std::move(lit->second.done);
    lit->second.done = nullptr;
  }
  if (done) {
    // The co-located coordinator is alive: it records the outcome in the
    // history and fans out the decision itself.
    done(gtid, commit);
    return;
  }
  // Resolver path — the coordinator is dead or never asked. Record the
  // global outcome (the Recorder deduplicates against a coordinator that
  // recorded before crashing, and against other resolvers) and deliver the
  // decision to every participant and inquirer directly.
  if (commit) {
    recorder_->RecordGlobalCommit(gtid, config_.site);
  } else {
    recorder_->RecordGlobalAbort(gtid, config_.site);
  }
  std::set<SiteId> targets(participants.begin(), participants.end());
  auto qit = requesters_.find(gtid);
  if (qit != requesters_.end()) {
    targets.insert(qit->second.begin(), qit->second.end());
    requesters_.erase(qit);
  }
  for (SiteId s : targets) {
    network_->Send(config_.site, s,
                   core::Message{core::DecisionMsg{gtid, commit}});
  }
}

}  // namespace hermes::consensus
