#include "history/graphs.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_set>

#include "common/str.h"

namespace hermes::history {

namespace {

bool IsDataKind(OpKind k) {
  return k == OpKind::kRead || k == OpKind::kWrite || k == OpKind::kDelete;
}

}  // namespace

uint32_t TxnGraph::Intern(const TxnId& id) {
  auto [it, inserted] =
      index_.try_emplace(id, static_cast<uint32_t>(ids_.size()));
  if (inserted) {
    ids_.push_back(id);
    out_.emplace_back();
  }
  return it->second;
}

void TxnGraph::AddEdge(const TxnId& from, const TxnId& to) {
  if (from == to) return;
  const uint32_t f = Intern(from);
  const uint32_t t = Intern(to);
  std::vector<uint32_t>& out = out_[f];
  if (out.empty() || out.back() != t) out.push_back(t);
}

bool TxnGraph::HasEdge(const TxnId& from, const TxnId& to) const {
  auto f = index_.find(from);
  auto t = index_.find(to);
  if (f == index_.end() || t == index_.end()) return false;
  const std::vector<uint32_t>& out = out_[f->second];
  return std::find(out.begin(), out.end(), t->second) != out.end();
}

std::optional<std::vector<TxnId>> TxnGraph::FindCycle() const {
  enum : uint8_t { kUnvisited, kInProgress, kDone };
  std::vector<uint8_t> state(ids_.size(), kUnvisited);
  // Iterative DFS: (node, index of its next out-edge to follow).
  std::vector<std::pair<uint32_t, size_t>> stack;
  for (uint32_t root = 0; root < ids_.size(); ++root) {
    if (state[root] != kUnvisited) continue;
    state[root] = kInProgress;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next == out_[node].size()) {
        state[node] = kDone;
        stack.pop_back();
        continue;
      }
      const uint32_t to = out_[node][next++];
      if (state[to] == kInProgress) {
        // `to` is on the stack: the cycle is the stack from it onwards.
        auto start = std::find_if(
            stack.begin(), stack.end(),
            [to](const auto& frame) { return frame.first == to; });
        std::vector<TxnId> cycle;
        for (auto it = start; it != stack.end(); ++it) {
          cycle.push_back(ids_[it->first]);
        }
        cycle.push_back(ids_[to]);
        return cycle;
      }
      if (state[to] == kUnvisited) {
        state[to] = kInProgress;
        stack.emplace_back(to, 0);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxnId>> TxnGraph::TopologicalOrder() const {
  std::vector<uint32_t> indegree(ids_.size(), 0);
  for (const auto& out : out_) {
    for (uint32_t t : out) ++indegree[t];
  }
  // Kahn's algorithm on a min-heap, so the smallest ready id is emitted
  // first (deterministic, independent of insertion order).
  using Ready = std::pair<TxnId, uint32_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  for (uint32_t i = 0; i < ids_.size(); ++i) {
    if (indegree[i] == 0) ready.emplace(ids_[i], i);
  }
  std::vector<TxnId> order;
  order.reserve(ids_.size());
  while (!ready.empty()) {
    const uint32_t node = ready.top().second;
    ready.pop();
    order.push_back(ids_[node]);
    for (uint32_t t : out_[node]) {
      if (--indegree[t] == 0) ready.emplace(ids_[t], t);
    }
  }
  if (order.size() != ids_.size()) return std::nullopt;
  return order;
}

std::string TxnGraph::ToString() const {
  std::string out;
  for (size_t node = 0; node < ids_.size(); ++node) {
    StrAppend(out, ids_[node].ToString(), " -> {");
    for (size_t i = 0; i < out_[node].size(); ++i) {
      if (i > 0) out += ", ";
      out += ids_[out_[node][i]].ToString();
    }
    out += "}\n";
  }
  return out;
}

TxnGraph BuildSerializationGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  // Per item: the last writer and the readers since that write.
  struct ItemState {
    std::optional<TxnId> last_write;
    std::vector<TxnId> reads;
  };
  std::unordered_map<ItemId, ItemState, ItemIdHash> items;
  for (const Op& op : ops) {
    const TxnId& t = op.subtxn.txn;
    g.AddNode(t);
    if (!IsDataKind(op.kind)) continue;
    ItemState& s = items[op.item];
    if (s.last_write) g.AddEdge(*s.last_write, t);
    if (op.kind == OpKind::kRead) {
      if (s.reads.empty() || s.reads.back() != t) s.reads.push_back(t);
    } else {
      for (const TxnId& r : s.reads) g.AddEdge(r, t);
      s.reads.clear();
      s.last_write = t;
    }
  }
  return g;
}

TxnGraph BuildCommitOrderGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  // Transactions whose prepared residue left a site in a shard handoff
  // (kMigrateOut) commit at the adopting site when the carried decision
  // lands — an instant dictated by the handoff, not by the adopter's
  // SN-certified commit order — so the per-site total-order invariant does
  // not apply to them. They stay in C(H) and are still judged by the
  // atomicity, replay and view-serializability oracles.
  std::unordered_set<TxnId> migrated;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMigrateOut) migrated.insert(op.subtxn.txn);
  }
  // Per site, the previous local commit: each commit gets one arc from it.
  std::unordered_map<SiteId, TxnId> last;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kLocalCommit) continue;
    const TxnId& t = op.subtxn.txn;
    if (migrated.count(t) != 0) continue;
    g.AddNode(t);
    auto [it, first] = last.try_emplace(op.site, t);
    if (!first) {
      g.AddEdge(it->second, t);
      it->second = t;
    }
  }
  return g;
}

}  // namespace hermes::history
