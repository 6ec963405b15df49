// Unit tests of the history toolkit, including exact reproductions of the
// paper's example histories:
//   H1 (section 3)  — global view distortion after a unilateral abort and
//                     resubmission,
//   H2 (section 5.1) — local view distortion through a direct conflict,
//   H3 (section 5.1) — local view distortion through purely indirect
//                     conflicts (reversed commit orders, no shared items).
// The view-serializability oracle must reject all three and accept their
// well-ordered variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/str.h"

#include "history/graphs.h"
#include "history/projection.h"
#include "history/recorder.h"
#include "history/view_checker.h"

namespace hermes::history {
namespace {

// Builds op sequences the way the execution engine would record them:
// version tags carry per-subtransaction write sequence numbers, reads carry
// the observed tag.
class HistoryBuilder {
 public:
  // Sites and items.
  static constexpr SiteId kA = 0;
  static constexpr SiteId kB = 1;

  ItemId Item(SiteId site, int64_t key) const { return ItemId{site, 0, key}; }

  db::VersionTag Write(const SubTxnId& subtxn, const ItemId& item,
                       bool is_delete = false) {
    const db::VersionTag tag{subtxn, ++write_seq_[subtxn]};
    Op op;
    op.kind = is_delete ? OpKind::kDelete : OpKind::kWrite;
    op.subtxn = subtxn;
    op.site = item.site;
    op.item = item;
    op.version = tag;
    Append(op);
    return tag;
  }

  void Read(const SubTxnId& subtxn, const ItemId& item,
            const db::VersionTag& from) {
    Op op;
    op.kind = OpKind::kRead;
    op.subtxn = subtxn;
    op.site = item.site;
    op.item = item;
    op.version = from;
    Append(op);
  }

  void Prepare(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kPrepare;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void LocalCommit(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kLocalCommit;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void LocalAbort(const SubTxnId& subtxn, SiteId site,
                  bool unilateral = true) {
    Op op;
    op.kind = OpKind::kLocalAbort;
    op.subtxn = subtxn;
    op.site = site;
    op.unilateral = unilateral;
    Append(op);
  }

  void GlobalAbort(const TxnId& txn) {
    Op op;
    op.kind = OpKind::kGlobalAbort;
    op.subtxn = SubTxnId{txn, 0};
    op.site = 2;  // coordinating site
    Append(op);
  }

  void MigrateOut(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kMigrateOut;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void GlobalCommit(const TxnId& txn) {
    Op op;
    op.kind = OpKind::kGlobalCommit;
    op.subtxn = SubTxnId{txn, 0};
    op.site = 2;  // coordinating site
    Append(op);
  }

  const std::vector<Op>& ops() const { return ops_; }

 private:
  void Append(Op op) {
    op.seq = ops_.size();
    op.at = static_cast<sim::Time>(ops_.size());
    ops_.push_back(op);
  }

  std::vector<Op> ops_;
  std::map<SubTxnId, uint64_t> write_seq_;
};

SubTxnId Sub(int64_t k, int resubmission = 0) {
  return SubTxnId{TxnId::MakeGlobal(2, k), resubmission};
}
SubTxnId Local(SiteId site, int64_t k) {
  return SubTxnId{TxnId::MakeLocal(site, k), 0};
}

// --- H1: global view distortion (paper section 3) ----------------------------

std::vector<Op> BuildH1() {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const db::VersionTag t0{};  // initial transaction T_0

  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1), t20 = Sub(2, 0);

  // T1 original execution.
  h.Read(t10, X, t0);
  h.Read(t10, Y, t0);
  h.Write(t10, Y);
  h.Read(t10, Z, t0);
  const auto w10z = h.Write(t10, Z);
  h.Prepare(t10, HistoryBuilder::kA);
  h.Prepare(t10, HistoryBuilder::kB);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);  // unilateral abort at site a
  h.LocalCommit(t10, HistoryBuilder::kB);

  // T2 runs in the failure window: deletes Y, updates X, updates Z.
  h.Write(t20, Y, /*is_delete=*/true);
  h.Read(t20, X, t0);
  const auto w20x = h.Write(t20, X);
  h.Read(t20, Z, w10z);
  h.Write(t20, Z);
  h.Prepare(t20, HistoryBuilder::kA);
  h.Prepare(t20, HistoryBuilder::kB);
  h.GlobalCommit(t20.txn);
  h.LocalCommit(t20, HistoryBuilder::kA);
  h.LocalCommit(t20, HistoryBuilder::kB);

  // T1's resubmission at a: Y is gone, so the decomposition shrank to a
  // single read — which now observes T2's X. Two views for T1.
  h.Read(t11, X, w20x);
  h.LocalCommit(t11, HistoryBuilder::kA);
  return h.ops();
}

TEST(PaperHistories, H1GlobalViewDistortionIsNotViewSerializable) {
  const auto ops = BuildH1();
  const auto committed = CommittedProjection(ops);
  // Both T1 and T2 are committed and complete, so nothing is dropped.
  EXPECT_EQ(committed.size(), ops.size());
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");

  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
}

TEST(PaperHistories, H1LocalProjectionAtSiteAIsClassicallySerializable) {
  // The paper's point: H1(^a) *looks* serializable to the local scheduler
  // (whose committed projection excludes the aborted T^a_10); only the
  // redefined C(H) exposes the distortion.
  const auto ops = BuildH1();
  const auto site_a = SiteProjection(ops, HistoryBuilder::kA);
  // Classical local view: drop T10's aborted ops, keep T11 and T20.
  std::vector<Op> classical;
  for (const Op& op : site_a) {
    if (op.subtxn == Sub(1, 0)) continue;
    classical.push_back(op);
  }
  const auto check = CheckViewSerializability(classical);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
}

TEST(PaperHistories, H1SerializationGraphHasCycle) {
  const auto committed = CommittedProjection(BuildH1());
  EXPECT_TRUE(BuildSerializationGraph(committed).HasCycle());
}

// --- H2: local view distortion, direct conflict (section 5.1) ---------------

std::vector<Op> BuildH2() {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Q = h.Item(HistoryBuilder::kA, 3);
  const auto U = h.Item(HistoryBuilder::kA, 4);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const db::VersionTag t0{};

  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1), t30 = Sub(3, 0);
  const SubTxnId l4 = Local(HistoryBuilder::kA, 4);

  // T1 as in H1.
  h.Read(t10, X, t0);
  h.Read(t10, Y, t0);
  h.Write(t10, Y);
  h.Read(t10, Z, t0);
  const auto w10z = h.Write(t10, Z);
  h.Prepare(t10, HistoryBuilder::kA);
  h.Prepare(t10, HistoryBuilder::kB);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);
  h.LocalCommit(t10, HistoryBuilder::kB);

  // T3 reads Z from T1 at b and writes Q at a; commits at a *before* T1's
  // resubmission commits there (reversed local commit orders).
  h.Read(t30, Z, w10z);
  h.Read(t30, Q, t0);
  const auto w30q = h.Write(t30, Q);
  h.Prepare(t30, HistoryBuilder::kA);
  h.Prepare(t30, HistoryBuilder::kB);
  h.GlobalCommit(t30.txn);
  h.LocalCommit(t30, HistoryBuilder::kA);
  h.LocalCommit(t30, HistoryBuilder::kB);

  // Local transaction L4 at a: sees T3's Q but T_0's Y — an inconsistent
  // view (T3 observed T1's effects, L4 does not).
  h.Read(l4, Q, w30q);
  h.Read(l4, Y, t0);
  h.Write(l4, U);
  h.LocalCommit(l4, HistoryBuilder::kA);

  // T1's resubmission at a.
  h.Read(t11, X, t0);
  h.Read(t11, Y, t0);
  h.Write(t11, Y);
  h.LocalCommit(t11, HistoryBuilder::kA);
  return h.ops();
}

TEST(PaperHistories, H2LocalViewDistortionIsNotViewSerializable) {
  const auto committed = CommittedProjection(BuildH2());
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
}

TEST(PaperHistories, H2CommitOrderGraphIsCyclic) {
  const auto committed = CommittedProjection(BuildH2());
  const TxnGraph cg = BuildCommitOrderGraph(committed);
  EXPECT_TRUE(cg.HasCycle()) << cg.ToString();
  // The cycle runs through T1 and T3 (commits reversed across a and b).
  const auto cycle = cg.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_NE(std::find(cycle->begin(), cycle->end(), Sub(1, 0).txn),
            cycle->end());
  EXPECT_NE(std::find(cycle->begin(), cycle->end(), Sub(3, 0).txn),
            cycle->end());
}

// --- H3: local view distortion, indirect conflicts only (section 5.1) -------

// T5 writes A@a and C@b, T6 writes B@a and D@b — no direct conflict
// anywhere, so their prepares may occur in any relative order at the two
// sites. Unilateral aborts open the failure windows in which local readers
// observe the reversed commit orders. (Without failures, rigorous LTMs keep
// prepared subtransactions' locks, so locals cannot read around them — "if
// no unilateral aborts of prepared local subtransactions occur, then no
// anomalies can occur".)
std::vector<Op> BuildH3(bool reversed_commit_orders) {
  HistoryBuilder h;
  const auto A = h.Item(HistoryBuilder::kA, 0);
  const auto B = h.Item(HistoryBuilder::kA, 1);
  const auto C = h.Item(HistoryBuilder::kB, 2);
  const auto D = h.Item(HistoryBuilder::kB, 3);
  const db::VersionTag t0{};

  const SubTxnId t5 = Sub(5, 0), t5r = Sub(5, 1);
  const SubTxnId t6 = Sub(6, 0), t6r = Sub(6, 1);
  const SubTxnId l7 = Local(HistoryBuilder::kA, 7);
  const SubTxnId l8 = Local(HistoryBuilder::kB, 8);

  const auto w5a = h.Write(t5, A);
  h.Write(t5, C);
  const auto w6b = h.Write(t6, B);
  const auto w6d = h.Write(t6, D);
  (void)w6b;
  h.Prepare(t5, HistoryBuilder::kA);
  h.Prepare(t5, HistoryBuilder::kB);
  h.Prepare(t6, HistoryBuilder::kA);
  h.Prepare(t6, HistoryBuilder::kB);
  h.GlobalCommit(t5.txn);
  h.GlobalCommit(t6.txn);

  // Site a: T6's subtransaction is unilaterally aborted (its write of B is
  // undone and its locks released); T5 commits; local L7 reads A from T5
  // and B from T_0 — it sees T5 but not T6. T6 is then resubmitted and
  // commits at a.
  h.LocalAbort(t6, HistoryBuilder::kA);
  h.LocalCommit(t5, HistoryBuilder::kA);
  h.Read(l7, A, w5a);
  h.Read(l7, B, t0);
  h.LocalCommit(l7, HistoryBuilder::kA);
  h.Write(t6r, B);
  h.LocalCommit(t6r, HistoryBuilder::kA);

  if (reversed_commit_orders) {
    // Site b mirrors the failure with the roles swapped: T5's
    // subtransaction aborts, T6 commits first, and L8 sees T6 but not T5 —
    // the pair of local views is jointly unserializable.
    h.LocalAbort(t5, HistoryBuilder::kB);
    h.LocalCommit(t6, HistoryBuilder::kB);
    h.Read(l8, D, w6d);
    h.Read(l8, C, t0);
    h.LocalCommit(l8, HistoryBuilder::kB);
    const auto w5c_r = h.Write(t5r, C);
    (void)w5c_r;
    h.LocalCommit(t5r, HistoryBuilder::kB);
  } else {
    // No failure at b: commits land in the same order as at a and L8's
    // view is consistent with L7's.
    h.LocalCommit(t5, HistoryBuilder::kB);
    h.LocalCommit(t6, HistoryBuilder::kB);
    const auto w5c = t0;  // unused marker
    (void)w5c;
    h.Read(l8, D, w6d);
    h.LocalCommit(l8, HistoryBuilder::kB);
  }
  return h.ops();
}

TEST(PaperHistories, H3IndirectLocalViewDistortionIsNotViewSerializable) {
  const auto committed = CommittedProjection(BuildH3(true));
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
  // No direct conflict between T5 and T6, yet CG is cyclic.
  EXPECT_FALSE(BuildSerializationGraph(committed)
                   .HasEdge(Sub(5, 0).txn, Sub(6, 0).txn));
  EXPECT_TRUE(BuildCommitOrderGraph(committed).HasCycle());
}

TEST(PaperHistories, H3WithAlignedCommitOrdersIsViewSerializable) {
  const auto committed = CommittedProjection(BuildH3(false));
  EXPECT_FALSE(BuildCommitOrderGraph(committed).HasCycle());
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
}

// --- committed projection ----------------------------------------------------

TEST(Projection, DropsAbortedGlobalAndKeepsAbortedSubtxnOfCommitted) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const db::VersionTag t0{};
  const SubTxnId committed0 = Sub(1, 0), committed1 = Sub(1, 1);
  const SubTxnId aborted = Sub(2, 0);

  h.Read(committed0, X, t0);
  h.Prepare(committed0, 0);
  h.GlobalCommit(committed0.txn);
  h.LocalAbort(committed0, 0);
  h.Read(committed1, X, t0);
  h.LocalCommit(committed1, 0);

  h.Read(aborted, X, t0);  // global transaction that never commits

  const auto fates = ClassifyTransactions(h.ops());
  EXPECT_TRUE(fates.at(committed0.txn).InCommittedProjection());
  EXPECT_FALSE(fates.at(aborted.txn).InCommittedProjection());
  EXPECT_EQ(fates.at(committed0.txn).resubmissions, 1);
  EXPECT_EQ(fates.at(committed0.txn).unilateral_aborts, 1);

  const auto committed = CommittedProjection(h.ops());
  // All of T1's ops survive — including the unilaterally aborted
  // subtransaction's read — and T2's read is dropped.
  ASSERT_EQ(committed.size(), 6u);
  for (const Op& op : committed) {
    EXPECT_EQ(op.subtxn.txn, committed0.txn);
  }
}

TEST(Projection, GlobalTxnMissingALocalCommitIsIncomplete) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const auto Z = h.Item(1, 1);
  const SubTxnId t = Sub(1, 0);
  h.Write(t, X);
  h.Write(t, Z);
  h.Prepare(t, 0);
  h.Prepare(t, 1);
  h.GlobalCommit(t.txn);
  h.LocalCommit(t, 0);  // site 1's local commit still missing

  const auto fates = ClassifyTransactions(h.ops());
  EXPECT_TRUE(fates.at(t.txn).committed);
  EXPECT_FALSE(fates.at(t.txn).complete);
  EXPECT_TRUE(CommittedProjection(h.ops()).empty());
}

TEST(OrderInvariant, HoldsForWellFormedHistories) {
  EXPECT_EQ(CheckOrderInvariant(BuildH1()), "");
  EXPECT_EQ(CheckOrderInvariant(BuildH2()), "");
  EXPECT_EQ(CheckOrderInvariant(BuildH3(true)), "");
}

TEST(OrderInvariant, DetectsLocalCommitBeforeGlobalCommit) {
  HistoryBuilder h;
  const SubTxnId t = Sub(1, 0);
  h.Write(t, h.Item(0, 0));
  h.Prepare(t, 0);
  h.LocalCommit(t, 0);  // before C_k: the 2PC protocol forbids this
  h.GlobalCommit(t.txn);
  EXPECT_NE(CheckOrderInvariant(h.ops()), "");
}

TEST(OrderInvariant, DetectsPrepareAfterGlobalCommit) {
  HistoryBuilder h;
  const SubTxnId t = Sub(1, 0);
  h.Write(t, h.Item(0, 0));
  h.GlobalCommit(t.txn);
  h.Prepare(t, 0);  // C_k requires all READY votes, hence all prepares
  h.LocalCommit(t, 0);
  EXPECT_NE(CheckOrderInvariant(h.ops()), "");
}

// --- graphs -------------------------------------------------------------------

TEST(Graphs, TopologicalOrderOfAcyclicGraph) {
  TxnGraph g;
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  const TxnId c = TxnId::MakeGlobal(0, 3);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(a, c);
  EXPECT_FALSE(g.HasCycle());
  const auto topo = g.TopologicalOrder();
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(*topo, (std::vector<TxnId>{a, b, c}));
}

TEST(Graphs, FindCycleReturnsClosedPath) {
  TxnGraph g;
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  const auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_FALSE(g.TopologicalOrder().has_value());
}

TEST(Graphs, CommitOrderGraphExemptsMigratedTransactions) {
  // A shard handoff moves T1's prepared residue from site b to site a; the
  // adopted subtransaction commits at a when the carried decision lands,
  // which can be after unrelated commits at a — an inversion the adopter's
  // SN-certified commit order cannot rule out. CG must exempt migrated
  // transactions; they stay in C(H) for the atomicity/replay/VSR oracles.
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const SubTxnId t1 = Sub(1), l = Local(HistoryBuilder::kA, 1);

  h.Write(t1, X);
  h.Write(t1, Z);
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.MigrateOut(t1, HistoryBuilder::kB);  // residue leaves b for a
  h.Write(l, Y);
  h.LocalCommit(l, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kA);  // adopted commit lands after L

  const auto committed = CommittedProjection(h.ops());
  EXPECT_FALSE(BuildCommitOrderGraph(committed).HasCycle());
  EXPECT_TRUE(CommitGraphAcyclic(committed));

  // Without the kMigrateOut marker the same commit sequence reads as a
  // genuine T1 -> L -> T1 inversion at site a.
  auto unmarked = h.ops();
  std::erase_if(unmarked,
                [](const Op& op) { return op.kind == OpKind::kMigrateOut; });
  EXPECT_TRUE(BuildCommitOrderGraph(unmarked).HasCycle());
}

// --- reduced graphs against the paper's pairwise graphs ---------------------

// The paper's CG and SG with every pairwise arc, ordered by Kahn's algorithm
// emitting the smallest ready id: the reference the reduced builders and the
// oracle's certificates must agree with.
using PairwiseGraph = std::map<TxnId, std::set<TxnId>>;

PairwiseGraph PairwiseSerializationGraph(const std::vector<Op>& ops) {
  PairwiseGraph g;
  std::map<ItemId, std::vector<const Op*>> per_item;
  for (const Op& op : ops) {
    g[op.subtxn.txn];
    if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite ||
        op.kind == OpKind::kDelete) {
      per_item[op.item].push_back(&op);
    }
  }
  for (const auto& [item, item_ops] : per_item) {
    for (size_t i = 0; i < item_ops.size(); ++i) {
      for (size_t j = i + 1; j < item_ops.size(); ++j) {
        const Op& a = *item_ops[i];
        const Op& b = *item_ops[j];
        if (a.subtxn.txn == b.subtxn.txn) continue;
        if (a.kind != OpKind::kRead || b.kind != OpKind::kRead) {
          g[a.subtxn.txn].insert(b.subtxn.txn);
        }
      }
    }
  }
  return g;
}

PairwiseGraph PairwiseCommitOrderGraph(const std::vector<Op>& ops) {
  std::set<TxnId> migrated;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMigrateOut) migrated.insert(op.subtxn.txn);
  }
  PairwiseGraph g;
  std::map<SiteId, std::vector<TxnId>> commits;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kLocalCommit) continue;
    if (migrated.count(op.subtxn.txn) != 0) continue;
    commits[op.site].push_back(op.subtxn.txn);
    g[op.subtxn.txn];
  }
  for (const auto& [site, seq] : commits) {
    for (size_t i = 0; i < seq.size(); ++i) {
      for (size_t j = i + 1; j < seq.size(); ++j) {
        if (seq[i] != seq[j]) g[seq[i]].insert(seq[j]);
      }
    }
  }
  return g;
}

std::optional<std::vector<TxnId>> PairwiseTopologicalOrder(
    const PairwiseGraph& g) {
  std::map<TxnId, int> indegree;
  for (const auto& [node, out] : g) {
    indegree[node];
    for (const TxnId& t : out) ++indegree[t];
  }
  std::set<TxnId> ready;
  for (const auto& [node, d] : indegree) {
    if (d == 0) ready.insert(node);
  }
  std::vector<TxnId> order;
  while (!ready.empty()) {
    const TxnId node = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(node);
    for (const TxnId& t : g.at(node)) {
      if (--indegree[t] == 0) ready.insert(t);
    }
  }
  if (order.size() != g.size()) return std::nullopt;
  return order;
}

// CheckViewSerializability's certificate sequence — CG order, SG order,
// then exhaustive search — over the pairwise graphs.
ViewCheckResult PairwiseViewCheck(const std::vector<Op>& committed,
                                  size_t max_txns) {
  ViewCheckResult result;
  std::map<TxnId, std::vector<const Op*>> groups;
  std::vector<TxnId> txns;
  for (const Op& op : committed) {
    auto [it, inserted] = groups.try_emplace(op.subtxn.txn);
    if (inserted) txns.push_back(op.subtxn.txn);
    it->second.push_back(&op);
  }
  if (txns.empty()) {
    result.verdict = Verdict::kSerializable;
    return result;
  }
  std::map<uint64_t, db::VersionTag> recorded;
  for (const Op& op : committed) {
    if (op.kind != OpKind::kRead) continue;
    recorded[op.seq] = op.version;
    if (!op.version.initial() && groups.count(op.version.writer.txn) == 0) {
      result.verdict = Verdict::kNotSerializable;
      result.reason =
          StrCat(op.ToString(), " reads from a transaction outside C(H)");
      return result;
    }
  }
  std::vector<const Op*> h_order;
  for (const Op& op : committed) h_order.push_back(&op);
  const auto finals = Replay(h_order).final_versions;

  std::string first_mismatch;
  auto try_order = [&](const std::vector<TxnId>& order) {
    ++result.orders_tried;
    std::vector<const Op*> layout;
    for (const TxnId& t : order) {
      layout.insert(layout.end(), groups.at(t).begin(), groups.at(t).end());
    }
    const ReplayOutcome r = Replay(layout);
    std::string mismatch;
    for (const auto& [seq, tag] : recorded) {
      const db::VersionTag& got = r.reads_from.at(seq);
      if (!(got == tag)) {
        mismatch = StrCat("read op#", seq, " observed ", tag.ToString(),
                          " in H but ", got.ToString(), " in the serial order");
        break;
      }
    }
    for (const auto& [item, tag] : finals) {
      if (!mismatch.empty()) break;
      auto it = r.final_versions.find(item);
      const db::VersionTag got =
          it == r.final_versions.end() ? db::VersionTag{} : it->second;
      if (!(got == tag)) {
        mismatch = StrCat("final write of ", item.ToString(), " is ",
                          tag.ToString(), " in H but ", got.ToString(),
                          " in the serial order");
      }
    }
    if (mismatch.empty()) {
      result.verdict = Verdict::kSerializable;
      result.witness = order;
      return true;
    }
    if (first_mismatch.empty()) first_mismatch = std::move(mismatch);
    return false;
  };
  if (auto topo =
          PairwiseTopologicalOrder(PairwiseCommitOrderGraph(committed))) {
    const std::set<TxnId> seen(topo->begin(), topo->end());
    for (const TxnId& t : txns) {
      if (seen.count(t) == 0) topo->push_back(t);
    }
    if (try_order(*topo)) return result;
  }
  if (auto topo =
          PairwiseTopologicalOrder(PairwiseSerializationGraph(committed))) {
    if (try_order(*topo)) return result;
  }
  if (txns.size() > max_txns) {
    result.verdict = Verdict::kUnknown;
    result.reason = StrCat("too many transactions (", txns.size(),
                           ") for exhaustive search");
    return result;
  }
  std::vector<TxnId> order(txns);
  std::sort(order.begin(), order.end());
  do {
    if (try_order(order)) return result;
  } while (std::next_permutation(order.begin(), order.end()));
  result.verdict = Verdict::kNotSerializable;
  result.reason = StrCat("no serial order of ", txns.size(),
                         " transactions is view-equivalent (",
                         result.orders_tried, " orders tried); e.g. ",
                         first_mismatch);
  return result;
}

// A random interleaving of global transactions (subtransactions at one to
// three sites, prepared, then globally aborted or committed with local
// commits; a prepared subtransaction may abort unilaterally and be
// resubmitted) and local transactions (committed or aborted). Reads observe
// the latest surviving version; a local abort rolls its writes back.
std::vector<Op> RandomHistory(uint64_t seed, int max_txns) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto chance = [&rng](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  const int num_sites = uniform(2, 4);
  const int items_per_site = uniform(2, 5);

  HistoryBuilder h;
  std::map<ItemId, std::vector<db::VersionTag>> versions;
  struct DataOp {
    ItemId item;
    bool write = false;
    bool is_delete = false;
  };
  auto run = [&h, &versions](const SubTxnId& sub, const DataOp& d) {
    std::vector<db::VersionTag>& stack = versions[d.item];
    if (!d.write) {
      h.Read(sub, d.item, stack.empty() ? db::VersionTag{} : stack.back());
    } else {
      stack.push_back(h.Write(sub, d.item, d.is_delete));
    }
  };
  auto rollback = [&h, &versions](const SubTxnId& sub, SiteId site,
                                  bool unilateral) {
    h.LocalAbort(sub, site, unilateral);
    for (auto& [item, stack] : versions) {
      if (item.site != site) continue;
      std::erase_if(stack, [&](const db::VersionTag& v) {
        return v.writer == sub;
      });
    }
  };
  auto random_ops = [&](SiteId site) {
    std::vector<DataOp> ops(static_cast<size_t>(uniform(1, 3)));
    for (DataOp& d : ops) {
      d.item = h.Item(site, uniform(0, items_per_site - 1));
      d.write = chance(0.5);
      d.is_delete = d.write && chance(0.1);
    }
    return ops;
  };

  // One action script per transaction, interleaved at random below.
  std::vector<std::vector<std::function<void()>>> scripts;
  const int globals = uniform(1, max_txns);
  for (int k = 1; k <= globals; ++k) {
    std::vector<SiteId> sites;
    for (SiteId s = 0; s < num_sites; ++s) {
      if (chance(0.5)) sites.push_back(s);
    }
    if (sites.empty()) sites.push_back(uniform(0, num_sites - 1));
    std::vector<std::function<void()>> script;
    const SubTxnId first = Sub(k, 0), resubmitted = Sub(k, 1);
    for (SiteId s : sites) {
      for (const DataOp& d : random_ops(s)) {
        script.push_back([=] { run(first, d); });
      }
    }
    for (SiteId s : sites) script.push_back([=, &h] { h.Prepare(first, s); });
    if (chance(0.15)) {
      script.push_back([=, &h] { h.GlobalAbort(first.txn); });
      for (SiteId s : sites) {
        script.push_back([=] { rollback(first, s, /*unilateral=*/false); });
      }
    } else {
      script.push_back([=, &h] { h.GlobalCommit(first.txn); });
      for (SiteId s : sites) {
        if (chance(0.25)) {
          script.push_back([=] { rollback(first, s, /*unilateral=*/true); });
          for (const DataOp& d : random_ops(s)) {
            script.push_back([=] { run(resubmitted, d); });
          }
          script.push_back([=, &h] { h.LocalCommit(resubmitted, s); });
        } else {
          script.push_back([=, &h] { h.LocalCommit(first, s); });
        }
      }
    }
    scripts.push_back(std::move(script));
  }
  const int locals = uniform(0, max_txns / 2);
  for (int k = 1; k <= locals; ++k) {
    const SiteId s = uniform(0, num_sites - 1);
    const SubTxnId l = Local(s, k);
    std::vector<std::function<void()>> script;
    for (const DataOp& d : random_ops(s)) {
      script.push_back([=] { run(l, d); });
    }
    if (chance(0.15)) {
      script.push_back([=] { rollback(l, s, /*unilateral=*/false); });
    } else {
      script.push_back([=, &h] { h.LocalCommit(l, s); });
    }
    scripts.push_back(std::move(script));
  }

  std::vector<size_t> next(scripts.size(), 0);
  std::vector<size_t> live(scripts.size());
  std::iota(live.begin(), live.end(), size_t{0});
  while (!live.empty()) {
    const size_t pick = static_cast<size_t>(
        uniform(0, static_cast<int>(live.size()) - 1));
    const size_t t = live[pick];
    scripts[t][next[t]++]();
    if (next[t] == scripts[t].size()) live.erase(live.begin() + pick);
  }
  return h.ops();
}

TEST(Graphs, ReducedGraphsAgreeWithPairwiseGraphsOnRandomHistories) {
  std::map<std::string, int> seen;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Op> ops = RandomHistory(seed, seed % 3 == 0 ? 24 : 5);
    const std::vector<Op> committed = CommittedProjection(ops);
    ASSERT_EQ(VerifyReplayMatchesRecorded(ops), "");
    for (const std::vector<Op>* h : {&ops, &committed}) {
      const TxnGraph cg = BuildCommitOrderGraph(*h);
      const TxnGraph sg = BuildSerializationGraph(*h);
      const auto cg_order =
          PairwiseTopologicalOrder(PairwiseCommitOrderGraph(*h));
      const auto sg_order =
          PairwiseTopologicalOrder(PairwiseSerializationGraph(*h));
      EXPECT_EQ(cg.HasCycle(), !cg_order.has_value());
      EXPECT_EQ(sg.HasCycle(), !sg_order.has_value());
      EXPECT_TRUE(cg.TopologicalOrder() == cg_order);
      EXPECT_TRUE(sg.TopologicalOrder() == sg_order);
      for (const TxnGraph* g : {&cg, &sg}) {
        const auto cycle = g->FindCycle();
        if (!cycle) continue;
        ASSERT_GE(cycle->size(), 3u);
        EXPECT_EQ(cycle->front(), cycle->back());
        for (size_t i = 0; i + 1 < cycle->size(); ++i) {
          EXPECT_TRUE(g->HasEdge((*cycle)[i], (*cycle)[i + 1]));
        }
      }
      ++seen[cg_order ? "cg-acyclic" : "cg-cyclic"];
      ++seen[sg_order ? "sg-acyclic" : "sg-cyclic"];
    }
    const ViewCheckResult got = CheckViewSerializability(committed, 5);
    const ViewCheckResult want = PairwiseViewCheck(committed, 5);
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.witness, want.witness);
    EXPECT_EQ(got.reason, want.reason);
    EXPECT_EQ(got.orders_tried, want.orders_tried);
    ++seen[VerdictName(got.verdict)];
  }
  // The histories exercise both answers of every check.
  for (const char* key :
       {"cg-acyclic", "cg-cyclic", "sg-acyclic", "sg-cyclic",
        "VIEW-SERIALIZABLE", "NOT-VIEW-SERIALIZABLE", "UNKNOWN"}) {
    EXPECT_GT(seen[key], 0) << key;
  }
}

// `n` global transactions over 4 sites, executed one after another: T_k
// reads one item at site k%4 and writes one there and one at site (k+1)%4,
// so T_k and T_k+4 share both sites. With `invert` >= 0, T_invert's local
// commit at its first site is delayed past T_invert+4's: one cross-site
// commit inversion. Prepares are left out; no check below reads them.
std::vector<Op> LargeHistory(int n, int invert) {
  constexpr int kSites = 4, kKeys = 16;
  HistoryBuilder h;
  std::map<ItemId, db::VersionTag> latest;
  std::optional<SubTxnId> delayed;
  for (int k = 0; k < n; ++k) {
    const SubTxnId t = Sub(k);
    const SiteId s0 = k % kSites, s1 = (k + 1) % kSites;
    const ItemId read = h.Item(s0, (k + 1) % kKeys);
    h.Read(t, read, latest[read]);
    for (SiteId s : {s0, s1}) {
      const ItemId item = h.Item(s, k % kKeys);
      latest[item] = h.Write(t, item);
    }
    h.GlobalCommit(t.txn);
    if (k == invert) {
      delayed = t;
    } else {
      h.LocalCommit(t, s0);
    }
    h.LocalCommit(t, s1);
    if (delayed && k == invert + kSites) {
      h.LocalCommit(*delayed, s0);
      delayed.reset();
    }
  }
  return h.ops();
}

TEST(LargeHistory, AlignedCommitOrdersAreSerializable) {
  constexpr int kTxns = 100'000;
  const std::vector<Op> ops = LargeHistory(kTxns, /*invert=*/-1);
  EXPECT_TRUE(CommitGraphAcyclic(ops));
  const ViewCheckResult check = CheckViewSerializability(ops);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
  EXPECT_EQ(check.witness.size(), static_cast<size_t>(kTxns));
  EXPECT_EQ(check.orders_tried, 1u);
}

TEST(LargeHistory, OneCommitInversionMakesTheCommitGraphCyclic) {
  constexpr int kTxns = 100'000, kInverted = kTxns / 2;
  const std::vector<Op> ops = LargeHistory(kTxns, kInverted);
  EXPECT_FALSE(CommitGraphAcyclic(ops));
  const TxnGraph cg = BuildCommitOrderGraph(ops);
  const auto cycle = cg.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  for (size_t i = 0; i + 1 < cycle->size(); ++i) {
    EXPECT_TRUE(cg.HasEdge((*cycle)[i], (*cycle)[i + 1]));
  }
  // Every other arc points forward in transaction order, so the cycle must
  // take the inverted arc T_inverted+4 -> T_inverted.
  for (const int k : {kInverted, kInverted + 4}) {
    EXPECT_NE(std::find(cycle->begin(), cycle->end(), Sub(k).txn),
              cycle->end());
  }
}

// --- replay -------------------------------------------------------------------

TEST(Replay, AbortRestoresPreviousVersion) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const SubTxnId w1 = Local(0, 1), w2 = Local(0, 2), r = Local(0, 3);
  const auto v1 = h.Write(w1, X);
  h.LocalCommit(w1, 0);
  h.Write(w2, X);
  h.LocalAbort(w2, 0);
  h.Read(r, X, v1);
  h.LocalCommit(r, 0);

  std::vector<const Op*> order;
  for (const Op& op : h.ops()) order.push_back(&op);
  const ReplayOutcome out = Replay(order);
  // The read (seq 4) observes w1's version because w2 was rolled back.
  EXPECT_EQ(out.reads_from.at(4), v1);
  EXPECT_EQ(out.final_versions.at(X), v1);
}

TEST(Replay, MultipleWritesBySameTxnUnwindTogether) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const SubTxnId w = Local(0, 1);
  h.Write(w, X);
  h.Write(w, X);
  h.LocalAbort(w, 0);

  std::vector<const Op*> order;
  for (const Op& op : h.ops()) order.push_back(&op);
  const ReplayOutcome out = Replay(order);
  EXPECT_TRUE(out.final_versions.at(X).initial());
}

// --- global atomicity oracle -------------------------------------------------

TEST(GlobalAtomicity, CleanCommitAndCleanAbortPass) {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kB, 1);

  const SubTxnId t1 = Sub(1);
  h.Write(t1, X);
  h.Write(t1, Y);
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kB);

  const SubTxnId t2 = Sub(2);
  h.Write(t2, X);
  h.GlobalAbort(t2.txn);
  h.LocalAbort(t2, HistoryBuilder::kA, /*unilateral=*/false);

  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, BothDecisionsRecordedIsAViolation) {
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.GlobalCommit(t1.txn);
  h.GlobalAbort(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, LocalCommitWithoutGlobalDecisionIsAViolation) {
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t1, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kA);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, RollbackAfterCommitDecisionIsAViolation) {
  // The split the coordinator decision log exists to prevent: C_k was
  // recorded, one site committed, the other was told presumed abort.
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Write(t1, h.Item(HistoryBuilder::kB, 1));
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.LocalAbort(t1, HistoryBuilder::kB, /*unilateral=*/false);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, UnilateralAbortAfterCommitIsNotAViolation) {
  // A unilateral abort after C_k is the paper's resubmission case — a
  // liveness obligation (the agent must re-run the subtransaction), not an
  // atomicity violation. The resubmission then closes it with a commit.
  HistoryBuilder h;
  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1);
  h.Write(t10, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t10, HistoryBuilder::kA);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);  // unilateral
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");

  h.Write(t11, h.Item(HistoryBuilder::kA, 0));
  h.LocalCommit(t11, HistoryBuilder::kA);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, PendingSubtransactionsAreTolerated) {
  // A run truncated mid-protocol (or mid-resubmission) leaves sites
  // pending; that is a liveness question, not an atomicity one.
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t1, HistoryBuilder::kA);
  h.GlobalCommit(t1.txn);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, LocalTransactionsAreIgnored) {
  HistoryBuilder h;
  const SubTxnId l = Local(HistoryBuilder::kA, 1);
  h.Write(l, h.Item(HistoryBuilder::kA, 0));
  h.LocalCommit(l, HistoryBuilder::kA);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

}  // namespace
}  // namespace hermes::history
