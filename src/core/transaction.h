#ifndef PRIMA_CORE_TRANSACTION_H_
#define PRIMA_CORE_TRANSACTION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "access/access_system.h"
#include "obs/counter.h"

namespace prima::recovery {
class CheckpointDaemon;
class WalWriter;
}  // namespace prima::recovery

namespace prima::core {

enum class LockMode : uint8_t { kRead, kWrite };

class TransactionManager;

/// A node of a nested-transaction tree (paper §4, refining Moss [Mo81]):
/// subtransactions acquire locks under the ancestor rule, commit by
/// inheriting locks and undo information to their parent, and abort by
/// selective in-transaction recovery — only the subtree's effects are
/// compensated.
///
/// All data operations go through the transaction so locking and undo
/// logging are automatic: each write names this transaction to the access
/// system (access::WriteTxn), which tags its log records and version-chain
/// entries with the root id and appends its undo records here. Lock
/// requests are non-blocking: a conflicting request returns kConflict and
/// the caller decides (retry or abort).
class Transaction {
 public:
  uint64_t id() const { return id_; }
  /// Id of the top-level ancestor (this transaction's own id at top level):
  /// the transaction its reads, version-chain entries and log records
  /// belong to.
  uint64_t root_id() const;
  Transaction* parent() const { return parent_; }
  bool active() const { return state_ == State::kActive; }
  size_t undo_size() const { return undo_.size(); }

  /// Spawn a subtransaction (the unit of work of semantic decomposition).
  util::Result<Transaction*> BeginChild();

  // --- transactional data operations -----------------------------------------

  util::Result<access::Tid> InsertAtom(access::AtomTypeId type,
                                       std::vector<access::AttrValue> values);
  util::Result<access::Atom> GetAtom(
      const access::Tid& tid, const std::vector<uint16_t>& projection = {});
  util::Status ModifyAtom(const access::Tid& tid,
                          std::vector<access::AttrValue> changes);
  util::Status DeleteAtom(const access::Tid& tid);
  util::Status Connect(const access::Tid& from, uint16_t attr,
                       const access::Tid& to);
  util::Status Disconnect(const access::Tid& from, uint16_t attr,
                          const access::Tid& to);

  // --- outcome -----------------------------------------------------------------

  /// Commit: a subtransaction passes locks + undo to its parent; a
  /// top-level transaction forces the log (durable on return) and releases
  /// everything. Fails if any child is still active.
  util::Status Commit();

  /// Abort: compensate this subtree's effects (reverse undo application),
  /// publish its chain entries and release its locks. The surrounding
  /// transaction continues.
  util::Status Abort();

 private:
  friend class TransactionManager;
  enum class State : uint8_t { kActive, kCommitted, kAborted };

  Transaction(TransactionManager* mgr, uint64_t id, Transaction* parent)
      : mgr_(mgr), id_(id), parent_(parent) {}

  /// Write-lock the atom and every atom its association change will touch.
  util::Status LockRefTargets(const access::Value& value);

  /// This transaction as a writer names itself to the access system: the
  /// root id, and this node's undo list, the only list of its writes.
  access::WriteTxn write_txn() { return {root_id(), &undo_}; }

  util::Status CheckActive() const;

  TransactionManager* mgr_;
  uint64_t id_;
  Transaction* parent_;
  State state_ = State::kActive;
  std::vector<std::unique_ptr<Transaction>> children_;
  size_t active_children_ = 0;
  std::vector<access::UndoRecord> undo_;
  std::map<uint64_t, LockMode> locks_;  // packed tid -> mode
};

struct TransactionStats {
  obs::Counter begun;
  obs::Counter committed;
  obs::Counter aborted;
  obs::Counter lock_conflicts;
  obs::Counter undo_applied;
  /// Transactions re-run after a transient (kConflict) failure. The kernel
  /// cannot see a client's retry decision, so drivers add the retries
  /// their util::RetryPolicy::retry_counter collected; remote clients
  /// retry on their own side of the wire and this stays 0 for them.
  obs::Counter txn_retries;
};

inline constexpr obs::CounterDef<TransactionStats> kTransactionCounters[] = {
    {&TransactionStats::begun, "prima_txns_begun", "transactions begun"},
    {&TransactionStats::committed, "prima_txns_committed", "transactions committed"},
    {&TransactionStats::aborted, "prima_txns_aborted", "transactions aborted"},
    {&TransactionStats::lock_conflicts, "prima_txn_lock_conflicts", "lock requests refused (non-blocking 2PL)"},
    {&TransactionStats::undo_applied, "prima_txn_undo_applied", "undo records compensated by aborts"},
    {&TransactionStats::txn_retries, "prima_txn_retries", "transactions re-run after a transient failure"},
};

/// Owns the transaction trees and the atom lock table.
class TransactionManager {
 public:
  /// Top-level transactions write begin/commit/abort records to `wal`, a
  /// top-level Commit() forces it (group commit — durability at commit,
  /// not at the next flush), and Abort() brackets its compensations with a
  /// kCompensation record.
  TransactionManager(access::AccessSystem* access, recovery::WalWriter* wal)
      : access_(access), wal_(wal) {}

  /// Start a top-level transaction (owned by the manager until finished).
  util::Result<Transaction*> Begin();

  /// Destroy a FINISHED top-level transaction tree and release its memory.
  /// Without reaping, the manager keeps every transaction it ever began
  /// (tests inspect them after the fact); a session executing millions of
  /// auto-committed statements must reap each one or the registry grows
  /// without bound. The pointer is invalid afterwards. Fails (and leaves
  /// the transaction alone) if it is still active, is a subtransaction, or
  /// is not registered here.
  util::Status Reap(Transaction* txn);

  /// Attach (or detach) the background checkpoint daemon. A top-level
  /// Commit() whose log force is refused with NoSpace (circular WAL full)
  /// then pokes the daemon and retries the force once after the checkpoint
  /// completes, instead of bubbling NoSpace to a well-behaved committer.
  void SetCheckpointDaemon(recovery::CheckpointDaemon* daemon) {
    ckpt_daemon_ = daemon;
  }

  /// Raise the id generator to at least `id`. Restart recovery calls this
  /// with one past the highest transaction id in the log's scan window:
  /// reusing an id still visible there would let the old id's commit
  /// record mark a new crashed transaction as finished.
  void SeedNextId(uint64_t id);

  TransactionStats& stats() { return stats_; }
  access::AccessSystem& access() { return *access_; }

  /// Number of atoms currently locked (tests).
  size_t LockedAtomCount() const;

 private:
  friend class Transaction;

  /// Moss's rule: a lock may be granted iff every conflicting holder is an
  /// ancestor of (or is) the requester.
  util::Status Acquire(Transaction* txn, const access::Tid& tid, LockMode mode);
  void ReleaseAll(Transaction* txn);
  void InheritToParent(Transaction* child);

  /// Top-level ancestor of `txn` — the transaction the WAL knows about
  /// (subtransaction structure is volatile; their records share the root
  /// id, which every write and compensation passes to the access system).
  static uint64_t RootId(const Transaction* txn);

  static bool IsAncestorOf(const Transaction* maybe_ancestor,
                           const Transaction* txn);

  access::AccessSystem* access_;
  recovery::WalWriter* const wal_;
  recovery::CheckpointDaemon* ckpt_daemon_ = nullptr;
  TransactionStats stats_;

  mutable std::mutex mu_;  // lock table + registry
  struct LockEntry {
    std::map<Transaction*, LockMode> holders;
  };
  std::unordered_map<uint64_t, LockEntry> lock_table_;
  std::vector<std::unique_ptr<Transaction>> top_level_;
  uint64_t next_id_ = 1;
};

}  // namespace prima::core

#endif  // PRIMA_CORE_TRANSACTION_H_
