// Write ledger kept by the benchmark apart from the program: every write a
// client submits is recorded with its transaction, every outcome is taken
// from the client callback, and the final row values in db::Storage are
// checked against what the acknowledged (and possibly the in-doubt)
// transactions wrote. Only additive writes (`val = val + delta`, the only
// write the benchmark submits) are tracked, so order does not matter.

#ifndef HERMES_PERFBENCH_LEDGER_H_
#define HERMES_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "db/command.h"
#include "db/storage.h"
#include "db/table.h"

namespace hermes::perfbench {

enum class Outcome { kPending, kCommitted, kAborted, kInDoubt };

// (site, table, key)
using RowRef = std::tuple<SiteId, db::TableId, int64_t>;

class Ledger {
 public:
  // Records a submitted transaction; returns its ledger index.
  size_t Submit() {
    txns_.emplace_back();
    return txns_.size() - 1;
  }

  // Records one command of transaction `txn` executed at `site`. Commands
  // that write something other than `val = val + <int>` on one key are
  // rejected (returns false): the check could not account for them.
  bool AddCommand(size_t txn, SiteId site, const db::Command& cmd) {
    if (!db::CommandWrites(cmd)) return true;
    const auto* update = std::get_if<db::UpdateCmd>(&cmd);
    const std::optional<int64_t> key = db::CommandExactKey(cmd);
    if (update == nullptr || !key || update->sets.size() != 1) return false;
    const db::Assignment& set = update->sets[0];
    const auto* delta = std::get_if<int64_t>(&set.operand);
    if (set.field != "val" || set.kind != db::Assignment::Kind::kAdd ||
        delta == nullptr) {
      return false;
    }
    txns_[txn].writes.push_back({RowRef{site, update->table, *key}, *delta});
    return true;
  }

  void Resolve(size_t txn, Outcome outcome) { txns_[txn].outcome = outcome; }
  Outcome outcome(size_t txn) const { return txns_[txn].outcome; }

  int64_t Count(Outcome outcome) const {
    int64_t n = 0;
    for (const Txn& t : txns_) n += t.outcome == outcome ? 1 : 0;
    return n;
  }

  // Checks every loaded row of `tables` at `storage`'s site (rows start at
  // `initial`): with no transaction in doubt a row's value must equal the
  // initial value plus the committed writes exactly; otherwise it must lie
  // between that and the initial value plus the committed and in-doubt
  // writes (deltas are positive). Pending transactions count as in doubt.
  // Returns "" when every row holds, else the first mismatch.
  std::string Check(const db::Storage& storage,
                    const std::vector<db::TableId>& tables,
                    int64_t initial) const {
    const SiteId site = storage.site();
    std::map<RowRef, std::pair<int64_t, int64_t>> expected;  // (lo, hi)
    for (const Txn& t : txns_) {
      if (t.outcome == Outcome::kAborted) continue;
      const bool sure = t.outcome == Outcome::kCommitted;
      for (const Write& w : t.writes) {
        if (std::get<0>(w.row) != site) continue;
        auto& [lo, hi] = expected[w.row];
        if (sure) lo += w.delta;
        hi += w.delta;
      }
    }
    for (db::TableId table : tables) {
      const db::Table* t = storage.GetTable(table);
      if (t == nullptr) return "missing table " + std::to_string(table);
      for (const auto& [key, entry] : t->entries()) {
        const db::Value* v = entry.live() ? entry.row->Get("val") : nullptr;
        const int64_t* got = v == nullptr ? nullptr : std::get_if<int64_t>(v);
        if (got == nullptr) return Where(site, table, key) + " has no val";
        int64_t lo = initial;
        int64_t hi = initial;
        if (auto it = expected.find(RowRef{site, table, key});
            it != expected.end()) {
          lo += it->second.first;
          hi += it->second.second;
        }
        if (*got < lo || *got > hi) {
          return Where(site, table, key) + " holds " + std::to_string(*got) +
                 ", ledger expects " +
                 (lo == hi ? std::to_string(lo)
                           : "[" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
        }
      }
    }
    return "";
  }

 private:
  struct Write {
    RowRef row;
    int64_t delta = 0;
  };
  struct Txn {
    std::vector<Write> writes;
    Outcome outcome = Outcome::kPending;
  };

  static std::string Where(SiteId site, db::TableId table, int64_t key) {
    return "site " + std::to_string(site) + " table " +
           std::to_string(table) + " key " + std::to_string(key);
  }

  std::vector<Txn> txns_;
};

// Shows that Ledger::Check catches a lost write and a doubled write, and
// accepts an in-doubt write either way. Returns "" on success.
inline std::string LedgerSelfTest() {
  db::Storage storage(0);
  const db::TableId table = *storage.CreateTable("t0");
  auto set_value = [&](int64_t key, int64_t value) {
    (void)storage.GetTable(table)->Put(
        key, db::RowEntry{db::Row{{"val", db::Value(value)}}, {}});
  };
  for (int64_t k = 0; k < 4; ++k) set_value(k, 0);

  Ledger ledger;
  const size_t committed = ledger.Submit();
  (void)ledger.AddCommand(committed, 0,
                          db::MakeAddKey(table, 1, "val", db::Value(int64_t{1})));
  ledger.Resolve(committed, Outcome::kCommitted);
  const size_t aborted = ledger.Submit();
  (void)ledger.AddCommand(aborted, 0,
                          db::MakeAddKey(table, 2, "val", db::Value(int64_t{1})));
  ledger.Resolve(aborted, Outcome::kAborted);
  const size_t in_doubt = ledger.Submit();
  (void)ledger.AddCommand(in_doubt, 0,
                          db::MakeAddKey(table, 3, "val", db::Value(int64_t{1})));
  ledger.Resolve(in_doubt, Outcome::kInDoubt);
  const std::vector<db::TableId> tables{table};

  set_value(1, 1);
  if (std::string e = ledger.Check(storage, tables, 0); !e.empty()) {
    return "correct storage rejected: " + e;
  }
  set_value(3, 1);
  if (std::string e = ledger.Check(storage, tables, 0); !e.empty()) {
    return "applied in-doubt write rejected: " + e;
  }
  set_value(1, 0);
  if (ledger.Check(storage, tables, 0).empty()) return "lost write accepted";
  set_value(1, 2);
  if (ledger.Check(storage, tables, 0).empty()) return "doubled write accepted";
  set_value(1, 1);
  set_value(2, 1);
  if (ledger.Check(storage, tables, 0).empty()) {
    return "aborted write accepted";
  }
  return "";
}

}  // namespace hermes::perfbench

#endif  // HERMES_PERFBENCH_LEDGER_H_
