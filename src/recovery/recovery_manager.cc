#include "recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <unordered_map>

#include "access/tid.h"
#include "util/slice.h"
#include "util/thread_pool.h"

namespace prima::recovery {

using access::Tid;
using util::Result;
using util::Slice;
using util::Status;

Status RecoveryManager::AnalyzeAndRedo() {
  return AnalyzeAndRedoFrom(wal_->checkpoint_lsn());
}

Status RecoveryManager::MediaRecover(uint64_t dump_start_lsn) {
  // The replay has to reach all the way back to the dump's start point —
  // a gap (blocks recycled before archiving began, or no archive at all on
  // a wrapped ring) would silently truncate history and under-recover.
  if (dump_start_lsn < wal_->ScanFloor()) {
    return Status::Corruption(
        "media recovery needs the log from LSN " +
        std::to_string(dump_start_lsn) + ", but archive + live WAL only "
        "reach back to " + std::to_string(wal_->ScanFloor()));
  }
  // ... and forward to at least the dump's start: that checkpoint record
  // was in the log when the dump was taken, so a log ending below it is
  // not the log the dump depends on (the WAL file was lost or replaced).
  // Without this check an EMPTY fresh log would pass every other guard and
  // "recover" the raw fuzzy dump pages with zero replay.
  if (wal_->durable_lsn() < dump_start_lsn) {
    return Status::Corruption(
        "the live WAL ends at LSN " + std::to_string(wal_->durable_lsn()) +
        ", before the dump's start LSN " + std::to_string(dump_start_lsn) +
        " - the log the dump depends on is missing");
  }
  return AnalyzeAndRedoFrom(dump_start_lsn);
}

Status RecoveryManager::AnalyzeAndRedoFrom(uint64_t ckpt_lsn) {
  ckpt_lsn_ = ckpt_lsn;

  // Pass A: the checkpoint-begin record names the undo floor — the oldest
  // begin-LSN among transactions that were still active at the checkpoint.
  uint64_t scan_start = ckpt_lsn_;
  if (ckpt_lsn_ != 0) {
    const Status st = wal_->Scan(ckpt_lsn_, [&](const LogRecord& rec) {
      if (rec.type == LogRecordType::kCheckpointBegin) {
        scan_start = std::min(scan_start, rec.undo_low_lsn);
      }
      return Status::Aborted("first record only");  // stop the scan
    });
    if (!st.ok() && !st.IsAborted()) return st;
  }
  // A transaction still active at the scan start can push the floor below
  // it — make sure the log actually reaches that far back (on a normal
  // restart it always does: truncation never passes the undo floor).
  if (scan_start < wal_->ScanFloor()) {
    return Status::Corruption(
        "undo floor " + std::to_string(scan_start) +
        " lies below the oldest readable log byte " +
        std::to_string(wal_->ScanFloor()));
  }

  // Pass B, scan half: one single-threaded pass over the stream. Records
  // with global-order semantics (segment metadata, the transaction table,
  // atom undo collection) are handled inline; page redo records are only
  // PARTITIONED here — each page's records append to its chain in log
  // order, and the chains replay concurrently afterwards. Page redo is
  // LSN-gated per page, so records older than the on-device state
  // (including everything before the checkpoint when the undo floor
  // reaches back further) skip harmlessly during the apply phase.
  std::map<std::pair<uint32_t, uint32_t>, PageChain> chains;
  uint64_t scan_end = scan_start;
  const Status scan_st = wal_->Scan(scan_start, [&](const LogRecord& rec) {
    stats_.records_scanned++;
    max_txn_id_ = std::max(max_txn_id_, rec.txn_id);
    switch (rec.type) {
      case LogRecordType::kBegin: {
        TxnState st;
        st.first_lsn = rec.lsn;
        txns_.emplace(rec.txn_id, st);
        break;
      }
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        txns_[rec.txn_id].finished = true;
        break;
      case LogRecordType::kPageRedo:
      case LogRecordType::kPageImage: {
        PageChain& chain = chains[{rec.segment, rec.page}];
        chain.page_size = rec.page_size;
        chain.recs.push_back(rec);
        break;
      }
      case LogRecordType::kSegMeta:
        // Pre-checkpoint bookkeeping is already captured by the segment
        // headers the checkpoint flushed; replay only from the checkpoint
        // on, in order (last record wins).
        if (rec.lsn >= ckpt_lsn_) {
          PRIMA_RETURN_IF_ERROR(storage_->RecoverSegmentMeta(
              rec.segment, static_cast<storage::PageSize>(rec.page_size_code),
              rec.page_count, rec.free_head));
          stats_.segmeta_applied++;
        }
        break;
      case LogRecordType::kAtomUndo: {
        atom_recs_.push_back(rec);
        if (!rec.clr && rec.txn_id != 0) {
          txns_[rec.txn_id].undo_stack.push_back(atom_recs_.size() - 1);
        }
        break;
      }
      case LogRecordType::kCompensation: {
        // An aborted subtree already compensated these undo entries; drop
        // exactly them (they need not be the stream's tail — a parent may
        // have worked while the child was active).
        auto& stack = txns_[rec.txn_id].undo_stack;
        const std::set<uint64_t> done(rec.comp_lsns.begin(),
                                      rec.comp_lsns.end());
        stack.erase(std::remove_if(stack.begin(), stack.end(),
                                   [&](size_t idx) {
                                     return done.count(atom_recs_[idx].lsn) >
                                            0;
                                   }),
                    stack.end());
        break;
      }
      case LogRecordType::kCheckpointBegin:
        for (const auto& [id, first_lsn] : rec.active_txns) {
          TxnState st;
          st.first_lsn = first_lsn;
          txns_.emplace(id, st);
        }
        break;
      case LogRecordType::kCheckpointEnd:
        break;
      case LogRecordType::kStructRoot:
        // Collected in log order; UndoAndFixup re-points the attached
        // structures after the access system loads its (possibly stale)
        // catalog — last record per structure wins. Records below the
        // checkpoint are already reflected in the persisted catalog, but
        // replaying them is harmless (roots only move forward in the log).
        struct_roots_.emplace_back(rec.segment, rec.page);
        break;
    }
    return Status::Ok();
  }, &scan_end);
  PRIMA_RETURN_IF_ERROR(scan_st);
  // The scan ending early is normal ONLY at the log's real tail (a torn
  // last force). Stopping short of the durable end the log's own open
  // found means a bad block inside the replayed HISTORY — in practice a
  // damaged archived block during media recovery — and silently treating
  // it as end-of-log would "recover" an ancient state.
  if (scan_end < wal_->durable_lsn()) {
    return Status::Corruption(
        "log replay stopped at LSN " + std::to_string(scan_end) +
        ", short of the durable end " + std::to_string(wal_->durable_lsn()) +
        " - the archived history is damaged");
  }

  // Pass B, apply half: the chains are a clean independence partition —
  // fan them out.
  PRIMA_RETURN_IF_ERROR(ApplyRedoChains(&chains));

  if (!torn_pages_.empty()) {
    const auto& [seg, page] = *torn_pages_.begin();
    return Status::Corruption(
        std::to_string(torn_pages_.size()) +
        " torn page(s) with no full-image record in the log (first: segment " +
        std::to_string(seg) + " page " + std::to_string(page) +
        ") — media recovery needed");
  }

  // Segment files whose zeroed header Open() skipped and whose creation the
  // replayed history never mentioned were born after the last durable log
  // force — no committed work can reference them (WAL rule), so the files
  // are crash residue and are removed rather than left to fail the next
  // restart.
  PRIMA_ASSIGN_OR_RETURN(const size_t dropped,
                         storage_->DropUnrecoveredSegments());
  stats_.torn_segments_dropped = dropped;
  return Status::Ok();
}

Status RecoveryManager::ApplyRedoChains(
    std::map<std::pair<uint32_t, uint32_t>, PageChain>* chains) {
  struct ChainTask {
    const std::pair<uint32_t, uint32_t>* key = nullptr;
    const PageChain* chain = nullptr;
    storage::StorageSystem::RedoChainResult result;
    Status status;
  };
  std::vector<ChainTask> tasks;
  tasks.reserve(chains->size());
  for (const auto& [key, chain] : *chains) {
    ChainTask t;
    t.key = &key;
    t.chain = &chain;
    tasks.push_back(std::move(t));
  }

  stats_.redo_chains = tasks.size();
  if (tasks.empty()) {
    stats_.redo_threads = 0;  // clean open: no apply phase at all
    return Status::Ok();
  }
  size_t threads = redo_threads_ == 0 ? util::ThreadPool::DefaultThreads()
                                      : redo_threads_;
  threads = std::max<size_t>(1, std::min(threads, tasks.size()));
  stats_.redo_threads = threads;

  const auto apply_one = [this](ChainTask* task) {
    const auto& [seg, page] = *task->key;
    std::vector<storage::StorageSystem::RedoEntry> entries;
    entries.reserve(task->chain->recs.size());
    for (const LogRecord& rec : task->chain->recs) {
      storage::StorageSystem::RedoEntry e;
      e.lsn = rec.lsn;
      e.full_image = rec.type == LogRecordType::kPageImage;
      e.ranges.reserve(rec.ranges.size());
      for (const auto& r : rec.ranges) {
        e.ranges.emplace_back(r.offset, Slice(r.bytes));
      }
      entries.push_back(std::move(e));
    }
    auto result_or = storage_->RecoverApplyPageRedoChain(
        seg, page, task->chain->page_size, entries);
    if (result_or.ok()) {
      task->result = *result_or;
    } else {
      task->status = result_or.status();
    }
  };

  // Whatever the fan-out, EVERY chain runs to completion even after
  // another chain failed: the failure path does bounded extra work, and in
  // exchange the reported error is identical at every thread count (lowest
  // first-LSN wins below) instead of depending on worker scheduling — or,
  // serially, on map iteration order.
  if (threads <= 1) {
    // Serial replay (recovery_threads = 1): same chain order, same
    // results, no pool — the degenerate case of the partition.
    for (ChainTask& task : tasks) {
      apply_one(&task);
    }
  } else {
    util::ThreadPool pool(threads);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(tasks.size());
    for (ChainTask& task : tasks) {
      jobs.emplace_back([&apply_one, &task] { apply_one(&task); });
    }
    pool.SubmitAll(std::move(jobs));
    pool.Wait();
  }

  // Deterministic aggregation: counters sum in chain (page) order; the
  // winning error is the failed chain whose FIRST record is oldest —
  // exactly the record serial replay would have tripped on first.
  const ChainTask* first_error = nullptr;
  for (const ChainTask& task : tasks) {
    if (!task.status.ok()) {
      if (first_error == nullptr ||
          task.chain->recs.front().lsn < first_error->chain->recs.front().lsn) {
        first_error = &task;
      }
      continue;
    }
    stats_.redo_applied += task.result.applied;
    stats_.redo_skipped += task.result.skipped;
    if (task.result.torn) torn_pages_.insert(*task.key);
  }
  return first_error == nullptr ? Status::Ok() : first_error->status;
}

Status RecoveryManager::UndoAndFixup(access::AccessSystem* access) {
  // --- structure-root fixups, in log order --------------------------------
  // Before anything touches the access structures: the catalog the access
  // system just loaded persisted at the last checkpoint, so a B-tree root
  // split (or grid meta assignment) since then left it pointing at a page
  // that is no longer the root — index lookups would silently miss every
  // key above it even though redo replayed the tree pages perfectly.
  for (const auto& [structure_id, root_page] : struct_roots_) {
    PRIMA_RETURN_IF_ERROR(access->RecoverStructureRoot(structure_id,
                                                       root_page));
    stats_.struct_roots_applied++;
  }

  // --- address-table fixups, in log order ---------------------------------
  for (const LogRecord& rec : atom_recs_) {
    PRIMA_RETURN_IF_ERROR(access->RecoverAtomFixup(
        rec.op, Tid::Unpack(rec.tid), rec.rid));
    stats_.fixups_applied++;
  }

  // --- undo losers --------------------------------------------------------
  // Write locks are held to top-level end, so losers' write sets are
  // disjoint and per-transaction reverse order equals global reverse order
  // where it matters.
  for (auto& [txn_id, st] : txns_) {
    if (st.finished || txn_id == 0 || st.undo_stack.empty()) {
      if (!st.finished && txn_id != 0) {
        // Loser with nothing to undo still needs its abort on record.
        wal_->Append(LogRecord::Abort(txn_id));
        stats_.loser_txns++;
      }
      continue;
    }
    stats_.loser_txns++;
    std::vector<uint64_t> undone;
    undone.reserve(st.undo_stack.size());
    for (auto it = st.undo_stack.rbegin(); it != st.undo_stack.rend(); ++it) {
      const LogRecord& rec = atom_recs_[*it];
      const Tid tid = Tid::Unpack(rec.tid);
      Status s;
      switch (rec.op) {
        case AtomOp::kInsert:
          s = access->RawDeleteAtom(tid, txn_id);
          break;
        case AtomOp::kModify: {
          auto before_or = access->DecodeAtom(tid.type, Slice(rec.before));
          if (!before_or.ok()) {
            s = before_or.status();
            break;
          }
          s = access->RawOverwriteAtom(*before_or, txn_id);
          break;
        }
        case AtomOp::kDelete: {
          auto before_or = access->DecodeAtom(tid.type, Slice(rec.before));
          if (!before_or.ok()) {
            s = before_or.status();
            break;
          }
          s = access->RawRestoreAtom(*before_or, txn_id);
          break;
        }
      }
      // Idempotence across repeated restarts: the state may already be
      // rolled back (abort raced the crash, or recovery itself reran).
      if (!s.ok() && !s.IsNotFound() && !s.IsAlreadyExists()) return s;
      undone.push_back(rec.lsn);
      stats_.undo_applied++;
    }
    wal_->Append(LogRecord::Compensation(txn_id, std::move(undone)));
    wal_->Append(LogRecord::Abort(txn_id));
  }

  // --- re-enqueue lost deferred redundancy --------------------------------
  // The pending queue died with the process; reconstruct per-atom outcomes
  // from the post-checkpoint records (structures were drained at the
  // checkpoint, so its image is what they still hold).
  struct AtomOutcome {
    bool saw_insert = false;
    bool has_before = false;
    std::string first_before;
    bool touched = false;
  };
  std::unordered_map<uint64_t, AtomOutcome> outcomes;
  for (const LogRecord& rec : atom_recs_) {
    if (rec.lsn < ckpt_lsn_) continue;
    AtomOutcome& o = outcomes[rec.tid];
    if (!o.touched) {
      o.touched = true;
      if (rec.op == AtomOp::kInsert) {
        o.saw_insert = true;
      } else {
        o.has_before = true;
        o.first_before = rec.before;
      }
    }
  }
  for (const auto& [packed, o] : outcomes) {
    const Tid tid = Tid::Unpack(packed);
    access::Atom before;
    const access::Atom* before_ptr = nullptr;
    if (o.has_before && !o.saw_insert) {
      auto before_or = access->DecodeAtom(tid.type, Slice(o.first_before));
      if (before_or.ok()) {
        before = std::move(*before_or);
        before_ptr = &before;
      }
    }
    PRIMA_RETURN_IF_ERROR(access->RecoverRedundancy(tid, before_ptr));
  }
  // Restart recovery is upstream of the checkpoint that will truncate a
  // full circular log — its own force must not be refused for headroom.
  wal_->SetCheckpointWindow(true);
  const Status force_st = wal_->ForceAll();
  wal_->SetCheckpointWindow(false);
  return force_st;
}

Status RecoveryManager::Checkpoint(access::AccessSystem* access) {
  // One checkpoint at a time: the daemon, Flush() callers, and NoSpace
  // retries may all request one concurrently, and the per-thread
  // checkpoint-window registration must not be clobbered mid-flush.
  std::lock_guard<std::mutex> ckpt_lock(ckpt_mu_);
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  // Order matters: snapshot append_lsn BEFORE the active-txn table. A
  // transaction beginning between the two reads then appears in
  // active_txns with begin_lsn >= the snapshot and cannot lower the
  // floor; the reverse order would let it slip past both reads, and the
  // truncation this floor authorizes would recycle a live transaction's
  // begin/undo records.
  begin.undo_low_lsn = wal_->append_lsn();
  begin.active_txns = wal_->ActiveTxns();
  for (const auto& [id, first_lsn] : begin.active_txns) {
    begin.undo_low_lsn = std::min(begin.undo_low_lsn, first_lsn);
  }
  const uint64_t begin_lsn = wal_->Append(begin);

  // The checkpoint's own log traffic may consume the circular log's
  // headroom reserve: when commits are already refused with NoSpace, this
  // is the path that frees the space, so it must always get through.
  wal_->SetCheckpointWindow(true);

  // The fuzzy window: drain deferred updates, persist catalog + address
  // table, write back every dirty page (one force up front covers them
  // all, then each write-back re-checks the WAL rule).
  Status flush_st = access != nullptr ? access->Flush() : storage_->Flush();
  if (flush_st.ok()) {
    LogRecord end;
    end.type = LogRecordType::kCheckpointEnd;
    wal_->Append(end);
    flush_st = wal_->ForceAll();
  }
  wal_->SetCheckpointWindow(false);
  PRIMA_RETURN_IF_ERROR(flush_st);

  // The master write is the checkpoint's commit point — and, in circular
  // mode, the truncation's: log blocks below the undo floor become
  // recyclable in the same atomic step, so a crash anywhere before this
  // write leaves the previous checkpoint and its floor in charge.
  PRIMA_RETURN_IF_ERROR(wal_->WriteMaster(begin_lsn, begin.undo_low_lsn));
  stats_.checkpoints++;
  return Status::Ok();
}

}  // namespace prima::recovery
