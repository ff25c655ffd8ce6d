#include "core/transaction.h"

#include <algorithm>
#include <optional>

#include "recovery/checkpoint_daemon.h"
#include "recovery/wal_writer.h"

namespace prima::core {

using access::Atom;
using access::AttrValue;
using access::Tid;
using util::Result;
using util::Status;

namespace {
std::vector<Tid> RefTargets(const access::Value& v) {
  std::vector<Tid> out;
  if (v.kind() == access::Value::Kind::kTid) {
    if (!v.AsTid().IsNull()) out.push_back(v.AsTid());
  } else if (v.kind() == access::Value::Kind::kList) {
    for (const auto& e : v.elems()) {
      if (e.kind() == access::Value::Kind::kTid && !e.AsTid().IsNull()) {
        out.push_back(e.AsTid());
      }
    }
  }
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

Result<Transaction*> TransactionManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  auto txn =
      std::unique_ptr<Transaction>(new Transaction(this, next_id_++, nullptr));
  Transaction* raw = txn.get();
  top_level_.push_back(std::move(txn));
  stats_.begun++;
  wal_->Append(recovery::LogRecord::Begin(raw->id()));
  return raw;
}

Status TransactionManager::Reap(Transaction* txn) {
  if (txn == nullptr || txn->parent() != nullptr) {
    return Status::InvalidArgument("only top-level transactions are reaped");
  }
  if (txn->active()) {
    return Status::InvalidArgument("transaction " + std::to_string(txn->id()) +
                                   " is still active");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = top_level_.begin(); it != top_level_.end(); ++it) {
    if (it->get() == txn) {
      top_level_.erase(it);  // frees the whole tree (children owned by it)
      return Status::Ok();
    }
  }
  return Status::NotFound("transaction is not registered");
}

uint64_t TransactionManager::RootId(const Transaction* txn) {
  while (txn->parent() != nullptr) txn = txn->parent();
  return txn->id();
}

void TransactionManager::SeedNextId(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id > next_id_) next_id_ = id;
}

bool TransactionManager::IsAncestorOf(const Transaction* maybe_ancestor,
                                      const Transaction* txn) {
  for (const Transaction* t = txn; t != nullptr; t = t->parent()) {
    if (t == maybe_ancestor) return true;
  }
  return false;
}

Status TransactionManager::Acquire(Transaction* txn, const Tid& tid,
                                   LockMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  LockEntry& entry = lock_table_[tid.Pack()];
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn) continue;
    const bool conflicting =
        mode == LockMode::kWrite || held_mode == LockMode::kWrite;
    if (conflicting && !IsAncestorOf(holder, txn)) {
      stats_.lock_conflicts++;
      return Status::Conflict("atom " + tid.ToString() + " locked by txn " +
                              std::to_string(holder->id()));
    }
  }
  auto it = entry.holders.find(txn);
  if (it == entry.holders.end()) {
    entry.holders[txn] = mode;
  } else if (mode == LockMode::kWrite) {
    it->second = LockMode::kWrite;  // upgrade
  }
  auto lt = txn->locks_.find(tid.Pack());
  if (lt == txn->locks_.end()) {
    txn->locks_[tid.Pack()] = mode;
  } else if (mode == LockMode::kWrite) {
    lt->second = LockMode::kWrite;
  }
  return Status::Ok();
}

void TransactionManager::ReleaseAll(Transaction* txn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [packed, mode] : txn->locks_) {
    auto it = lock_table_.find(packed);
    if (it == lock_table_.end()) continue;
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) lock_table_.erase(it);
  }
  txn->locks_.clear();
}

void TransactionManager::InheritToParent(Transaction* child) {
  std::lock_guard<std::mutex> lock(mu_);
  Transaction* parent = child->parent();
  for (const auto& [packed, mode] : child->locks_) {
    auto it = lock_table_.find(packed);
    if (it == lock_table_.end()) continue;
    it->second.holders.erase(child);
    auto& parent_mode = it->second.holders[parent];
    if (mode == LockMode::kWrite) parent_mode = LockMode::kWrite;
    auto pl = parent->locks_.find(packed);
    if (pl == parent->locks_.end()) {
      parent->locks_[packed] = mode;
    } else if (mode == LockMode::kWrite) {
      pl->second = LockMode::kWrite;
    }
  }
  child->locks_.clear();
  // Undo inheritance: the parent compensates the child's effects if it
  // later aborts.
  parent->undo_.insert(parent->undo_.end(),
                       std::make_move_iterator(child->undo_.begin()),
                       std::make_move_iterator(child->undo_.end()));
  child->undo_.clear();
}

size_t TransactionManager::LockedAtomCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lock_table_.size();
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Status Transaction::CheckActive() const {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction " + std::to_string(id_) +
                                   " is not active");
  }
  return Status::Ok();
}

Result<Transaction*> Transaction::BeginChild() {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  std::lock_guard<std::mutex> lock(mgr_->mu_);
  auto child = std::unique_ptr<Transaction>(
      new Transaction(mgr_, mgr_->next_id_++, this));
  Transaction* raw = child.get();
  children_.push_back(std::move(child));
  ++active_children_;
  mgr_->stats_.begun++;
  return raw;
}

Status Transaction::LockRefTargets(const access::Value& value) {
  for (const Tid& t : RefTargets(value)) {
    PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, t, LockMode::kWrite));
  }
  return Status::Ok();
}

Result<Tid> Transaction::InsertAtom(access::AtomTypeId type,
                                    std::vector<AttrValue> values) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  for (const AttrValue& av : values) {
    PRIMA_RETURN_IF_ERROR(LockRefTargets(av.value));
  }
  PRIMA_ASSIGN_OR_RETURN(
      const Tid tid,
      mgr_->access_->InsertAtom(type, std::move(values), write_txn()));
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, tid, LockMode::kWrite));
  return tid;
}

uint64_t Transaction::root_id() const {
  return TransactionManager::RootId(this);
}

Result<Atom> Transaction::GetAtom(const Tid& tid,
                                  const std::vector<uint16_t>& projection) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, tid, LockMode::kRead));
  const std::shared_ptr<access::VersionStore::Pin> pin =
      mgr_->access_->versions().OpenSnapshot(root_id());
  return mgr_->access_->GetAtom(tid, pin->view(), projection);
}

Status Transaction::ModifyAtom(const Tid& tid,
                               std::vector<AttrValue> changes) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, tid, LockMode::kWrite));
  // Lock both the old and new association targets (their back-references
  // change). The base atom is read only when an association changes.
  const auto* def = mgr_->access_->catalog().GetAtomType(tid.type);
  std::optional<Atom> current;
  for (const AttrValue& av : changes) {
    if (def == nullptr || av.attr >= def->attrs.size() ||
        !def->attrs[av.attr].type.IsAssociation()) {
      continue;
    }
    if (!current.has_value()) {
      PRIMA_ASSIGN_OR_RETURN(current, mgr_->access_->GetBaseAtom(tid, def));
    }
    PRIMA_RETURN_IF_ERROR(LockRefTargets(current->attrs[av.attr]));
    PRIMA_RETURN_IF_ERROR(LockRefTargets(av.value));
  }
  return mgr_->access_->ModifyAtom(tid, std::move(changes), write_txn());
}

Status Transaction::DeleteAtom(const Tid& tid) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, tid, LockMode::kWrite));
  PRIMA_ASSIGN_OR_RETURN(const Atom current, mgr_->access_->GetBaseAtom(tid));
  const auto* def = mgr_->access_->catalog().GetAtomType(tid.type);
  for (size_t i = 0; i < current.attrs.size(); ++i) {
    if (def->attrs[i].type.IsAssociation()) {
      PRIMA_RETURN_IF_ERROR(LockRefTargets(current.attrs[i]));
    }
  }
  return mgr_->access_->DeleteAtom(tid, write_txn());
}

Status Transaction::Connect(const Tid& from, uint16_t attr, const Tid& to) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, from, LockMode::kWrite));
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, to, LockMode::kWrite));
  return mgr_->access_->Connect(from, attr, to, write_txn());
}

Status Transaction::Disconnect(const Tid& from, uint16_t attr, const Tid& to) {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, from, LockMode::kWrite));
  PRIMA_RETURN_IF_ERROR(mgr_->Acquire(this, to, LockMode::kWrite));
  return mgr_->access_->Disconnect(from, attr, to, write_txn());
}

Status Transaction::Commit() {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  if (active_children_ > 0) {
    return Status::InvalidArgument(
        "cannot commit with active subtransactions");
  }
  uint64_t commit_lsn = 0;
  if (parent_ == nullptr) {
    // Durability at commit: the commit record — and with it every earlier
    // record of this transaction — must be on the device before locks drop.
    // Concurrent committers share one device write + fsync (group commit):
    // whoever forces covers every record appended before it, and the write
    // itself runs with the log buffer unlocked, so other transactions keep
    // appending during it. On a force failure (device error, or a bounded WAL
    // that needs a checkpoint to recycle space) the transaction stays active
    // (locks held, undo intact) so the caller can retry or abort; note the
    // abort record then follows the buffered commit record, and restart treats
    // the transaction as finished either way — consistent with the CLRs the
    // abort writes.
    commit_lsn = mgr_->wal_->Append(recovery::LogRecord::Commit(id_));
    Status force_st = mgr_->wal_->CommitForce(commit_lsn);
    if (force_st.IsNoSpace() && mgr_->ckpt_daemon_ != nullptr) {
      // The ring caught up with us between the daemon's polls. A refused
      // force is side-effect free and the commit record is still buffered,
      // so: poke the daemon, wait for a full checkpoint to truncate, and
      // force once more. Only a ring that a checkpoint cannot free (e.g. a
      // long-running transaction pinning the undo floor) still surfaces
      // NoSpace here.
      if (mgr_->ckpt_daemon_->RequestCheckpoint().ok()) {
        force_st = mgr_->wal_->CommitForce(commit_lsn);
      }
    }
    if (force_st.IsNoSpace()) {
      // The checkpoint ran and the ring is still full: some long-running
      // transaction's first record pins the undo floor, so truncation cannot
      // advance past it. Name the culprit — a driver staring at a bare
      // "log full" has no way to know which session to kill, and the stuck
      // committer holds its own locks, so without this the storm wedges into
      // a retry loop that can never succeed.
      uint64_t culprit_id = 0, culprit_lsn = 0;
      for (const auto& [txn_id, first_lsn] : mgr_->wal_->ActiveTxns()) {
        if (culprit_id == 0 || first_lsn < culprit_lsn) {
          culprit_id = txn_id;
          culprit_lsn = first_lsn;
        }
      }
      std::string msg = force_st.message();
      if (culprit_id != 0 && culprit_id != id_) {
        msg += "; undo floor pinned at oldest_active_lsn " +
               std::to_string(culprit_lsn) + " by txn " +
               std::to_string(culprit_id);
      }
      return Status::NoSpace(std::move(msg));
    }
    PRIMA_RETURN_IF_ERROR(force_st);
  }
  state_ = State::kCommitted;
  if (parent_ != nullptr) {
    mgr_->InheritToParent(this);
    std::lock_guard<std::mutex> lock(mgr_->mu_);
    --parent_->active_children_;
  } else {
    // Stamp this transaction's version-chain entries with the next commit
    // sequence BEFORE the write locks drop: once another writer can touch
    // these atoms, its new pending entries must land strictly after ours.
    mgr_->access_->versions().Publish(undo_, commit_lsn);
    mgr_->ReleaseAll(this);
    undo_.clear();
  }
  mgr_->stats_.committed++;
  return Status::Ok();
}

Status Transaction::Abort() {
  PRIMA_RETURN_IF_ERROR(CheckActive());
  if (active_children_ > 0) {
    return Status::InvalidArgument("cannot abort with active subtransactions");
  }
  // Selective in-transaction recovery: compensate this subtree only, in
  // reverse log order. The compensating writes are CLR-logged under the
  // root transaction; the kCompensation record afterwards tells restart
  // undo that these entries are already rolled back. A record without an
  // LSN is a write that failed before it logged: nothing to compensate.
  const uint64_t root = root_id();
  access::AccessSystem& access = *mgr_->access_;
  Status first_error;
  std::vector<uint64_t> compensated;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (it->lsn == 0) continue;
    compensated.push_back(it->lsn);
    Status st;
    if (it->kind == access::UndoRecord::Kind::kInsert) {
      st = access.RawDeleteAtom(it->tid, root);
    } else if (std::optional<Atom> before =
                   access.versions().BeforeImage(it->tid, it->entry)) {
      st = it->kind == access::UndoRecord::Kind::kModify
               ? access.RawOverwriteAtom(*before, root)
               : access.RawRestoreAtom(*before, root);
    } else {
      st = Status::Corruption("no version-chain entry to undo atom " +
                              it->tid.ToString());
    }
    mgr_->stats_.undo_applied++;
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  if (!compensated.empty()) {
    std::reverse(compensated.begin(), compensated.end());  // log order
    mgr_->wal_->Append(
        recovery::LogRecord::Compensation(root, std::move(compensated)));
  }
  // Publish this subtree's entries (see VersionStore::Publish) before its
  // locks drop: left pending, a child's would hide the commits of every
  // writer that locks the atom next until the root ends.
  access.versions().Publish(undo_, /*wal_lsn=*/0);
  undo_.clear();
  state_ = State::kAborted;
  mgr_->ReleaseAll(this);
  if (parent_ != nullptr) {
    std::lock_guard<std::mutex> lock(mgr_->mu_);
    --parent_->active_children_;
  } else {
    // No force needed: losing this record merely repeats the (idempotent)
    // rollback at restart.
    mgr_->wal_->Append(recovery::LogRecord::Abort(id_));
  }
  mgr_->stats_.aborted++;
  return first_error;
}

}  // namespace prima::core
