// View-serializability oracle.
//
// Implements the paper's correctness criterion: the committed projection
// C(H) — which includes unilaterally aborted local subtransactions of
// committed complete global transactions — must be view equivalent to some
// serial history containing the same transaction histories H(T_k).
//
// Equivalence is decided on (a) the reads-from relation, computed with full
// rollback semantics (a local abort A^s_kj undoes the subtransaction's
// writes, per the RR assumption), and (b) the final versions of all items.
// Topological orders of CG(H) and SG(H) are tried first, since the paper
// proves a CG-topological order is a view-serialization order. Both graphs
// are the reduced, same-reachability graphs of graphs.h, so these
// certificates cost O(n log n) in the history length and give the orders
// the paper's pairwise graphs would. Only when both fail does the exact
// check enumerate serial orders, which is exponential and bounded by
// `max_txns` (feasible for the scripted scenario histories and small
// property-test runs; beyond it the verdict is kUnknown).

#ifndef HERMES_HISTORY_VIEW_CHECKER_H_
#define HERMES_HISTORY_VIEW_CHECKER_H_

#include <map>
#include <string>
#include <vector>

#include "history/graphs.h"
#include "history/op.h"

namespace hermes::history {

enum class Verdict {
  kSerializable,
  kNotSerializable,
  // Too many transactions for the exact check and the fast certificates
  // failed; use CommitGraphAcyclic for large histories.
  kUnknown,
};

const char* VerdictName(Verdict v);

struct ViewCheckResult {
  Verdict verdict = Verdict::kUnknown;
  // Set when kSerializable: an equivalent serial order of transactions.
  std::vector<TxnId> witness;
  // Set when kNotSerializable: human-readable explanation (first
  // inequivalence found, checked orders count).
  std::string reason;
  // Number of serial orders examined.
  uint64_t orders_tried = 0;
};

// Outcome of replaying an operation sequence with rollback semantics.
struct ReplayOutcome {
  // op.seq of each read -> version observed in the replay.
  std::map<uint64_t, db::VersionTag> reads_from;
  // Last surviving version per item at the end.
  std::map<ItemId, db::VersionTag> final_versions;
};

// Replays `ops` (in the given order) maintaining per-item version stacks;
// kLocalAbort removes the aborting subtransaction's versions (RR).
ReplayOutcome Replay(const std::vector<const Op*>& ops);

// Self-check of the recording pipeline: replaying C(H) in history order must
// observe exactly the version tags the execution actually recorded, provided
// no transaction read from a version that C(H) excludes (dirty read). The
// returned string is empty on success, else a description of the mismatch.
std::string VerifyReplayMatchesRecorded(const std::vector<Op>& committed);

// The exact view-serializability check over a committed projection.
// `max_txns` bounds the permutation search.
ViewCheckResult CheckViewSerializability(const std::vector<Op>& committed,
                                         size_t max_txns = 9);

// The paper's polynomial sufficient condition (Theorem 19 of the companion
// report): CG(C(H)) acyclic => H view serializable (assuming CI and DLU held
// during execution).
bool CommitGraphAcyclic(const std::vector<Op>& committed);

}  // namespace hermes::history

#endif  // HERMES_HISTORY_VIEW_CHECKER_H_
