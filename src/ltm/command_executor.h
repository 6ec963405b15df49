// Asynchronous execution of one DML command inside the LTM.
//
// This is the paper's deterministic decomposition function D(O^i, S^i) made
// operational: a command is matched against the current database state,
// item locks are acquired for exactly the matched rows (ascending key
// order), matching is revalidated after each wait, and the elementary R/W
// operations are then applied and recorded. Because matching depends on
// state, a resubmitted command may legitimately decompose differently than
// the original — the effect at the heart of the global view distortion.

#ifndef HERMES_LTM_COMMAND_EXECUTOR_H_
#define HERMES_LTM_COMMAND_EXECUTOR_H_

#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "db/command.h"
#include "ltm/local_txn.h"
#include "ltm/lock_manager.h"

namespace hermes::ltm {

class Ltm;

class CommandExecutor : public std::enable_shared_from_this<CommandExecutor> {
 public:
  using Callback = std::function<void(const Status&, const db::CmdResult&)>;

  CommandExecutor(Ltm* ltm, LtmTxnHandle txn, db::Command cmd, Callback cb);

  CommandExecutor(const CommandExecutor&) = delete;
  CommandExecutor& operator=(const CommandExecutor&) = delete;

  void Start();

  // Detaches the executor: no further callbacks fire, pending waits and
  // events are cancelled. Called by the LTM when the transaction dies.
  void Cancel();

  // Completes with an error without touching the transaction (the LTM abort
  // path uses this to fail the in-flight command).
  void FailNow(const Status& status);

 private:
  static constexpr int kMaxLockRounds = 32;

  // One matching + locking round; re-entered until the matched key set is
  // fully locked and stable.
  void LockRound();
  void LockNextKey();
  void OnDluCleared(int64_t key, const Status& s);
  void OnLockGranted(int64_t key, const Status& s);
  void ScheduleApply();
  void Apply();
  void Finish(const Status& status, db::CmdResult result);
  // Finishes the command with `reason` and unilaterally aborts its txn.
  void AbortTxn(const Status& reason);

  // Keys the command currently matches (insert: the target key).
  std::vector<int64_t> ComputeKeys() const;
  LockMode NeededMode() const;
  // DLU applies to updates performed by local transactions only.
  bool NeedsDluGate() const;

  Ltm* ltm_;
  LtmTxnHandle txn_;
  db::Command cmd_;
  Callback cb_;

  bool cancelled_ = false;
  bool finished_ = false;
  int rounds_ = 0;
  std::vector<int64_t> to_lock_;
  std::set<int64_t> locked_;
  sim::EventId apply_event_ = sim::kInvalidEvent;
};

}  // namespace hermes::ltm

#endif  // HERMES_LTM_COMMAND_EXECUTOR_H_
