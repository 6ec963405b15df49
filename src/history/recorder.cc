#include "history/recorder.h"

#include "common/str.h"

namespace hermes::history {

void Recorder::Append(Op op) {
  if (!enabled_) return;
  op.seq = ops_.size();
  op.at = loop_->Now();
  ops_.push_back(std::move(op));
}

void Recorder::RecordRead(const SubTxnId& subtxn, const ItemId& item,
                          const db::VersionTag& observed) {
  Op op;
  op.kind = OpKind::kRead;
  op.subtxn = subtxn;
  op.site = item.site;
  op.item = item;
  op.version = observed;
  Append(std::move(op));
}

void Recorder::RecordWrite(const SubTxnId& subtxn, const ItemId& item,
                           const db::VersionTag& produced, bool is_delete) {
  Op op;
  op.kind = is_delete ? OpKind::kDelete : OpKind::kWrite;
  op.subtxn = subtxn;
  op.site = item.site;
  op.item = item;
  op.version = produced;
  Append(std::move(op));
}

void Recorder::RecordPrepare(const SubTxnId& subtxn, SiteId site) {
  Op op;
  op.kind = OpKind::kPrepare;
  op.subtxn = subtxn;
  op.site = site;
  Append(std::move(op));
}

void Recorder::RecordLocalCommit(const SubTxnId& subtxn, SiteId site) {
  Op op;
  op.kind = OpKind::kLocalCommit;
  op.subtxn = subtxn;
  op.site = site;
  Append(std::move(op));
}

void Recorder::RecordLocalAbort(const SubTxnId& subtxn, SiteId site,
                                bool unilateral) {
  Op op;
  op.kind = OpKind::kLocalAbort;
  op.subtxn = subtxn;
  op.site = site;
  op.unilateral = unilateral;
  Append(std::move(op));
}

void Recorder::RecordMigrateOut(const SubTxnId& subtxn, SiteId site) {
  Op op;
  op.kind = OpKind::kMigrateOut;
  op.subtxn = subtxn;
  op.site = site;
  Append(std::move(op));
}

bool Recorder::RecordGlobalCommit(const TxnId& txn, SiteId coordinator_site) {
  return RecordGlobalDecision(txn, coordinator_site, /*commit=*/true);
}

bool Recorder::RecordGlobalAbort(const TxnId& txn, SiteId coordinator_site) {
  return RecordGlobalDecision(txn, coordinator_site, /*commit=*/false);
}

bool Recorder::RecordGlobalDecision(const TxnId& txn, SiteId coordinator_site,
                                    bool commit) {
  // Under Paxos Commit the same chosen outcome may be learned — and
  // reported — by the leader and by several independent resolvers. The
  // repeats carry no information, so only the first record of a given
  // outcome is kept. A *conflicting* outcome is still appended: that is a
  // genuine atomicity violation and must stay visible to the oracles.
  // The map is kept with recording disabled too, so the first-record answer
  // (and the metrics counted on it) never depends on history recording.
  auto [it, first] = global_decisions_.emplace(txn, commit);
  if (first || it->second != commit) {
    Op op;
    op.kind = commit ? OpKind::kGlobalCommit : OpKind::kGlobalAbort;
    op.subtxn = SubTxnId{txn, 0};
    op.site = coordinator_site;
    Append(std::move(op));
  }
  return first;
}

std::string Recorder::ToString() const {
  std::string out;
  for (const Op& op : ops_) {
    if (!out.empty()) out += " ";
    out += op.ToString();
  }
  return out;
}

}  // namespace hermes::history
