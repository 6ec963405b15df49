// Serialization graph SG(H) and commit order graph CG(H).
//
// SG(H) is the classical conflict graph over the committed projection (the
// paper notes SG(H) may be cyclic while H is still view serializable, which
// is why view serializability is the ultimate criterion). CG(H) is the
// paper's section-5 instrument: nodes are transactions with at least one
// local commit; there is an arc T_k -> T_i iff some site commits a
// subtransaction of T_k before one of T_i. Acyclicity of CG(C(H)) is the
// paper's sufficient condition for view serializability (under CI and DLU).
//
// Both builders keep only the arcs needed for the same reachability: CG
// links each local commit to the next one at its site, SG links the
// conflicting ops of an item through its write sequence. Every kept arc is
// an arc of the paper's pairwise graph and every pairwise arc is a path of
// kept arcs, so the transitive closures agree. Cycle existence, and the
// smallest-id-first topological order (the emitted set is always closed
// under predecessors, so a node is ready in one graph exactly when it is
// ready in the other), are therefore those of the paper's graphs; building
// and ordering cost O(n log n) in the history length.

#ifndef HERMES_HISTORY_GRAPHS_H_
#define HERMES_HISTORY_GRAPHS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "history/op.h"

namespace hermes::history {

// Directed graph over transactions. Ids are interned to dense indices in
// first-seen order; adjacency is a flat vector of out-lists.
class TxnGraph {
 public:
  void AddNode(const TxnId& id) { Intern(id); }
  // Self-edges are ignored.
  void AddEdge(const TxnId& from, const TxnId& to);

  // Answers for the graph as built: on BuildCommitOrderGraph and
  // BuildSerializationGraph output that is the reduced graph, which may
  // lack a pairwise arc of the paper's CG/SG that a path still implies.
  bool HasEdge(const TxnId& from, const TxnId& to) const;

  bool HasCycle() const { return FindCycle().has_value(); }
  // Any cycle as a node sequence (first == last); nullopt when acyclic.
  std::optional<std::vector<TxnId>> FindCycle() const;
  // Topological order emitting the smallest ready id first; nullopt when
  // cyclic.
  std::optional<std::vector<TxnId>> TopologicalOrder() const;

  std::string ToString() const;

 private:
  uint32_t Intern(const TxnId& id);

  std::vector<TxnId> ids_;
  std::unordered_map<TxnId, uint32_t> index_;
  std::vector<std::vector<uint32_t>> out_;
};

// Conflict serialization graph over `ops` (pass a committed projection for
// SG(C(H))). Per item, in sequence order: last write -> each following
// read, last write -> next write, each read since the last write -> next
// write (different transactions only). Same reachability as the pairwise
// graph with T_a -> T_b for every conflicting pair with T_a's op first.
TxnGraph BuildSerializationGraph(const std::vector<Op>& ops);

// Commit order graph per section 5.1, as the chain of consecutive local
// commits per site (same reachability as the pairwise graph).
TxnGraph BuildCommitOrderGraph(const std::vector<Op>& ops);

}  // namespace hermes::history

#endif  // HERMES_HISTORY_GRAPHS_H_
