// Append-only recorder of the overall multidatabase history H.
//
// Every LTM, 2PC agent and coordinator in a simulation records its events
// here; the resulting linear sequence (ordered by the deterministic event
// loop) is exactly the shuffle history H of the paper's model, from which
// tests and benchmarks compute committed projections, serialization graphs
// and view-serializability verdicts.

#ifndef HERMES_HISTORY_RECORDER_H_
#define HERMES_HISTORY_RECORDER_H_

#include <unordered_map>
#include <vector>

#include "history/op.h"

namespace hermes::history {

class Recorder {
 public:
  explicit Recorder(const sim::EventLoop* loop) : loop_(loop) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Disable to skip all recording (large throughput benchmarks).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void RecordRead(const SubTxnId& subtxn, const ItemId& item,
                  const db::VersionTag& observed);
  void RecordWrite(const SubTxnId& subtxn, const ItemId& item,
                   const db::VersionTag& produced, bool is_delete);
  void RecordPrepare(const SubTxnId& subtxn, SiteId site);
  void RecordLocalCommit(const SubTxnId& subtxn, SiteId site);
  void RecordLocalAbort(const SubTxnId& subtxn, SiteId site, bool unilateral);
  // A shard handoff moved the prepared residue of `subtxn` away from
  // `site`; the subtransaction's outcome there is settled by the adopting
  // site (the atomicity oracle treats the source site as closed).
  void RecordMigrateOut(const SubTxnId& subtxn, SiteId site);
  // Global outcomes. Each returns true if it is the first outcome recorded
  // for `txn`: whoever learns an outcome first counts it in the metrics.
  bool RecordGlobalCommit(const TxnId& txn, SiteId coordinator_site);
  bool RecordGlobalAbort(const TxnId& txn, SiteId coordinator_site);

  const std::vector<Op>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  void Clear() {
    ops_.clear();
    global_decisions_.clear();
  }

  std::string ToString() const;

 private:
  void Append(Op op);
  // Appends the global outcome unless it repeats one already recorded
  // (leader + resolvers under Paxos Commit); a conflicting outcome is kept
  // for the atomicity oracle. Returns true for the first outcome of `txn`.
  bool RecordGlobalDecision(const TxnId& txn, SiteId coordinator_site,
                            bool commit);

  const sim::EventLoop* loop_;
  bool enabled_ = true;
  std::vector<Op> ops_;
  std::unordered_map<TxnId, bool> global_decisions_;
};

}  // namespace hermes::history

#endif  // HERMES_HISTORY_RECORDER_H_
