#include "ltm/command_executor.h"

#include <algorithm>
#include <cassert>

#include "common/str.h"
#include "ltm/ltm.h"

namespace hermes::ltm {

CommandExecutor::CommandExecutor(Ltm* ltm, LtmTxnHandle txn, db::Command cmd,
                                 Callback cb)
    : ltm_(ltm), txn_(txn), cmd_(std::move(cmd)), cb_(std::move(cb)) {}

void CommandExecutor::Start() { LockRound(); }

void CommandExecutor::Cancel() {
  cancelled_ = true;
  if (apply_event_ != sim::kInvalidEvent) {
    ltm_->loop()->Cancel(apply_event_);
    apply_event_ = sim::kInvalidEvent;
  }
  // Pending lock waits are cancelled by the LTM via LockManager::CancelWaits.
}

void CommandExecutor::FailNow(const Status& status) {
  assert(!status.ok());
  Finish(status, db::CmdResult{});
}

void CommandExecutor::Finish(const Status& status, db::CmdResult result) {
  if (finished_) return;
  finished_ = true;
  Callback cb = std::move(cb_);
  ltm_->loop()->ScheduleAfter(
      0, [cb = std::move(cb), status, result = std::move(result)]() {
        cb(status, result);
      });
  ltm_->OnExecutorDone(txn_);
}

void CommandExecutor::AbortTxn(const Status& reason) {
  // Finish makes the LTM drop its reference to *this; keep *this alive
  // across both steps.
  auto self = shared_from_this();
  Finish(reason, db::CmdResult{});
  ltm_->UnilateralAbortInternal(txn_, reason);
}

LockMode CommandExecutor::NeededMode() const {
  return db::CommandWrites(cmd_) ? LockMode::kExclusive : LockMode::kShared;
}

bool CommandExecutor::NeedsDluGate() const {
  if (!db::CommandWrites(cmd_)) return false;
  const LocalTxn* txn = ltm_->Find(txn_);
  return txn != nullptr && !txn->global();
}

std::vector<int64_t> CommandExecutor::ComputeKeys() const {
  if (const auto* ins = std::get_if<db::InsertCmd>(&cmd_)) {
    return {ins->key};
  }
  const db::TableId table_id = db::CommandTable(cmd_);
  const db::Table* table = ltm_->storage()->GetTable(table_id);
  if (table == nullptr) return {};
  if (const auto* sel = std::get_if<db::SelectCmd>(&cmd_)) {
    return table->Match(sel->pred);
  }
  if (const auto* upd = std::get_if<db::UpdateCmd>(&cmd_)) {
    return table->Match(upd->pred);
  }
  return table->Match(std::get<db::DeleteCmd>(cmd_).pred);
}

void CommandExecutor::LockRound() {
  if (cancelled_ || finished_) return;
  if (++rounds_ > kMaxLockRounds) {
    const Status reason =
        Status::Internal("command could not stabilize its lock set");
    AbortTxn(reason);
    return;
  }
  if (ltm_->storage()->GetTable(db::CommandTable(cmd_)) == nullptr) {
    const Status reason =
        Status::NotFound(StrCat("table ", db::CommandTable(cmd_)));
    AbortTxn(reason);
    return;
  }
  to_lock_.clear();
  for (int64_t key : ComputeKeys()) {
    if (locked_.count(key) == 0) to_lock_.push_back(key);
  }
  if (to_lock_.empty()) {
    ScheduleApply();
    return;
  }
  std::sort(to_lock_.begin(), to_lock_.end());
  LockNextKey();
}

void CommandExecutor::LockNextKey() {
  if (cancelled_ || finished_) return;
  if (to_lock_.empty()) {
    // Revalidate the match under the locks just taken.
    LockRound();
    return;
  }
  const int64_t key = to_lock_.back();
  const ItemId item =
      ltm_->storage()->MakeItemId(db::CommandTable(cmd_), key);
  std::weak_ptr<CommandExecutor> wp = weak_from_this();
  if (NeedsDluGate() && ltm_->IsBound(item)) {
    // DLU: a local transaction's update of bound data waits until the item
    // is unbound (or times out / is rejected).
    ltm_->WaitUnbound(item, [wp, key](Status s) {
      if (auto self = wp.lock()) self->OnDluCleared(key, s);
    });
    return;
  }
  ltm_->lock_manager().Acquire(txn_, item, NeededMode(),
                               [wp, key](Status s) {
                                 if (auto self = wp.lock()) {
                                   self->OnLockGranted(key, s);
                                 }
                               });
}

void CommandExecutor::OnDluCleared(int64_t key, const Status& s) {
  if (cancelled_ || finished_) return;
  if (!s.ok()) {
    AbortTxn(s);
    return;
  }
  const ItemId item =
      ltm_->storage()->MakeItemId(db::CommandTable(cmd_), key);
  std::weak_ptr<CommandExecutor> wp = weak_from_this();
  ltm_->lock_manager().Acquire(txn_, item, NeededMode(),
                               [wp, key](Status st) {
                                 if (auto self = wp.lock()) {
                                   self->OnLockGranted(key, st);
                                 }
                               });
}

void CommandExecutor::OnLockGranted(int64_t key, const Status& s) {
  if (cancelled_ || finished_) return;
  if (!s.ok()) {
    // Lock wait timeout: the LDBS resolves (potential) deadlocks by
    // unilaterally aborting the requester.
    const Status reason = Status::Timeout(
        StrCat("lock wait timeout on key ", key, " of ",
               db::CommandToString(cmd_)));
    AbortTxn(reason);
    return;
  }
  const ItemId item =
      ltm_->storage()->MakeItemId(db::CommandTable(cmd_), key);
  if (NeedsDluGate() && ltm_->IsBound(item)) {
    // The item became bound while we were waiting for the lock (a global
    // subtransaction prepared in between). Back out this one untouched lock
    // and re-enter the DLU gate; releasing is 2PL-safe because no data was
    // accessed under the lock yet.
    ltm_->lock_manager().Release(txn_, item);
    std::weak_ptr<CommandExecutor> wp = weak_from_this();
    ltm_->WaitUnbound(item, [wp, key](Status st) {
      if (auto self = wp.lock()) self->OnDluCleared(key, st);
    });
    return;
  }
  locked_.insert(key);
  assert(!to_lock_.empty() && to_lock_.back() == key);
  to_lock_.pop_back();
  LockNextKey();
}

void CommandExecutor::ScheduleApply() {
  if (cancelled_ || finished_) return;
  const sim::Duration delay =
      ltm_->config().command_latency +
      ltm_->config().per_row_latency * static_cast<int64_t>(locked_.size());
  std::weak_ptr<CommandExecutor> wp = weak_from_this();
  apply_event_ = ltm_->loop()->ScheduleAfter(delay, [wp]() {
    if (auto self = wp.lock()) {
      self->apply_event_ = sim::kInvalidEvent;
      self->Apply();
    }
  });
}

void CommandExecutor::Apply() {
  if (cancelled_ || finished_) return;
  // The database may have changed while the processing delay elapsed; if
  // new rows now match, go lock them too.
  for (int64_t key : ComputeKeys()) {
    if (locked_.count(key) == 0) {
      LockRound();
      return;
    }
  }
  LocalTxn* txn = ltm_->FindMutable(txn_);
  assert(txn != nullptr && txn->state == TxnState::kActive);
  db::Table* table = ltm_->storage()->GetTable(db::CommandTable(cmd_));
  assert(table != nullptr);
  history::Recorder* rec = ltm_->recorder();
  db::CmdResult result;

  auto make_tag = [&]() {
    return db::VersionTag{txn->id, txn->next_write_seq++};
  };
  auto record_read = [&](int64_t key, const db::RowEntry& entry) {
    const ItemId item = ltm_->storage()->MakeItemId(table->id(), key);
    txn->read_set.insert(item);
    rec->RecordRead(txn->id, item, entry.version);
  };
  auto record_write = [&](int64_t key, const db::VersionTag& tag,
                          bool is_delete) {
    const ItemId item = ltm_->storage()->MakeItemId(table->id(), key);
    txn->write_set.insert(item);
    rec->RecordWrite(txn->id, item, tag, is_delete);
  };

  std::vector<ItemId> shared_locked;  // for early release (non-rigorous)

  if (const auto* sel = std::get_if<db::SelectCmd>(&cmd_)) {
    for (int64_t key : table->Match(sel->pred)) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      result.rows.emplace_back(key, *entry->row);
      shared_locked.push_back(
          ltm_->storage()->MakeItemId(table->id(), key));
    }
    result.affected = static_cast<int64_t>(result.rows.size());
  } else if (const auto* ins = std::get_if<db::InsertCmd>(&cmd_)) {
    const db::RowEntry* existing = table->Get(ins->key);
    if (existing != nullptr && existing->live() && !ins->upsert) {
      const Status reason = Status::AlreadyExists(
          StrCat("key ", ins->key, " in table ", table->name()));
      AbortTxn(reason);
      return;
    }
    const db::VersionTag tag = make_tag();
    std::optional<db::RowEntry> before =
        table->Put(ins->key, db::RowEntry{ins->row, tag});
    txn->undo.push_back(UndoRecord{table->id(), ins->key, std::move(before)});
    record_write(ins->key, tag, /*is_delete=*/false);
    result.affected = 1;
  } else if (const auto* upd = std::get_if<db::UpdateCmd>(&cmd_)) {
    for (int64_t key : table->Match(upd->pred)) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      db::Row new_row = *entry->row;
      for (const db::Assignment& a : upd->sets) {
        if (a.kind == db::Assignment::Kind::kSet) {
          new_row.Set(a.field, a.operand);
        } else {
          const db::Value* cur = new_row.Get(a.field);
          auto sum = db::AddValues(cur ? *cur : db::Value{}, a.operand);
          if (!sum.has_value()) {
            const Status reason = Status::InvalidArgument(
                StrCat("non-numeric ADD on field ", a.field));
            AbortTxn(reason);
            return;
          }
          new_row.Set(a.field, *sum);
        }
      }
      const db::VersionTag tag = make_tag();
      std::optional<db::RowEntry> before =
          table->Put(key, db::RowEntry{new_row, tag});
      txn->undo.push_back(UndoRecord{table->id(), key, std::move(before)});
      record_write(key, tag, /*is_delete=*/false);
      result.rows.emplace_back(key, std::move(new_row));
      ++result.affected;
    }
  } else {
    const auto& del = std::get<db::DeleteCmd>(cmd_);
    for (int64_t key : table->Match(del.pred)) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      const db::VersionTag tag = make_tag();
      std::optional<db::RowEntry> before = table->Delete(key, tag);
      txn->undo.push_back(UndoRecord{table->id(), key, std::move(before)});
      record_write(key, tag, /*is_delete=*/true);
      ++result.affected;
    }
  }

  // Non-rigorous ablation: release read locks as soon as the command is
  // done. This violates SRS and lets the negative experiments demonstrate
  // why the certifier requires rigorous LDBSs.
  if (!ltm_->config().rigorous) {
    for (const ItemId& item : shared_locked) {
      if (txn->write_set.count(item) == 0) {
        ltm_->lock_manager().Release(txn_, item);
      }
    }
  }

  Finish(Status::Ok(), std::move(result));
}

}  // namespace hermes::ltm
