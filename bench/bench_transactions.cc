// Experiment E15 (paper §4): nested transactions as the generic control
// structure.
//
// Claims: (1) transactional bracketing adds bounded overhead per operation
// (locking + undo logging); (2) aborting a subtransaction compensates only
// its own subtree ("selective in-transaction recovery"); (3) lock
// inheritance lets children reuse ancestor locks without conflicts;
// (4) group commit lets concurrent committers share one log force —
// commits-per-force grows with the committer count and commit throughput
// beats the synchronous one-fsync-per-commit baseline;
// (5) with wal_max_bytes set, a checkpointed workload keeps the WAL file
// size bounded (circular log truncation); (6) restart and media rebuild
// replay the redo window in one forward pass, timed as medians over fresh
// clones of one crashed image.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "recovery/crash_device.h"
#include "storage/block_device.h"
#include "storage/wal.h"

namespace prima::bench {
namespace {

using access::AttrValue;
using access::Tid;
using access::Value;

std::unique_ptr<core::Prima> MakeDb(int items) {
  auto db = OpenDb();
  Require(db->Execute("CREATE ATOM_TYPE part"
                      " ( part_id : IDENTIFIER,"
                      "   num : INTEGER,"
                      "   name : CHAR_VAR,"
                      "   subs : SET_OF (REF_TO (part.supers)),"
                      "   supers : SET_OF (REF_TO (part.subs)) )"
                      " KEYS_ARE (num)")
              .status(),
          "schema");
  const auto* part = db->access().catalog().FindAtomType("part");
  for (int i = 0; i < items; ++i) {
    RequireR(db->access().InsertAtom(part->id,
                                     {AttrValue{1, Value::Int(i)},
                                      AttrValue{2, Value::String("p")}}),
             "insert");
  }
  return db;
}

// ---------------------------------------------------------------------------
// Group commit + bounded WAL
// ---------------------------------------------------------------------------

/// In-memory device with a simulated fsync latency: deterministic stand-in
/// for a disk barrier, so the benefit of sharing forces is visible without
/// filesystem dependence.
class LatentSyncDevice : public storage::MemoryBlockDevice {
 public:
  explicit LatentSyncDevice(int sync_us) : sync_us_(sync_us) {}
  util::Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(sync_us_));
    return util::Status::Ok();
  }

 private:
  const int sync_us_;
};

constexpr int kSimulatedFsyncUs = 200;

struct GroupCommitRun {
  double commits_per_sec = 0;
  double records_per_force = 0;
  double commits_per_force = 0;
};

GroupCommitRun RunCommitters(int threads, int commits_per_thread) {
  auto device = std::make_shared<LatentSyncDevice>(kSimulatedFsyncUs);
  core::PrimaOptions options;
  options.device = device;
  auto db = RequireR(core::Prima::Open(std::move(options)), "open");
  Require(db->Execute("CREATE ATOM_TYPE part"
                      " ( part_id : IDENTIFIER,"
                      "   num : INTEGER,"
                      "   name : CHAR_VAR )"
                      " KEYS_ARE (num)")
              .status(),
          "schema");
  const auto* part = db->access().catalog().FindAtomType("part");
  for (int i = 0; i < threads; ++i) {
    RequireR(db->access().InsertAtom(part->id,
                                     {AttrValue{1, Value::Int(i)},
                                      AttrValue{2, Value::String("p")}}),
             "insert");
  }
  auto atoms = db->access().AllAtoms(part->id);
  Require(db->Flush(), "checkpoint");

  const auto before = db->wal_stats();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> committers;
  committers.reserve(threads);
  std::atomic<int> failed{0};
  for (int t = 0; t < threads; ++t) {
    // Each committer updates its own atom: no lock conflicts, the only
    // shared resource is the log — exactly the commit-bound workload group
    // commit targets.
    committers.emplace_back([&, t] {
      for (int i = 0; i < commits_per_thread; ++i) {
        auto txn = RequireR(db->Begin(), "begin");
        const auto st = txn->ModifyAtom(
            atoms[t], {AttrValue{2, Value::String("v" + std::to_string(i))}});
        if (!st.ok() || !txn->Commit().ok()) failed++;
      }
    });
  }
  for (auto& th : committers) th.join();
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  Require(failed.load() == 0 ? util::Status::Ok()
                             : util::Status::Aborted("commit failed"),
          "committers");
  const auto after = db->wal_stats();

  GroupCommitRun r;
  const uint64_t forces = after.forces - before.forces;
  const uint64_t records = after.records_forced - before.records_forced;
  const uint64_t commits = after.commits_forced - before.commits_forced;
  r.commits_per_sec =
      static_cast<double>(threads) * commits_per_thread / elapsed.count();
  r.records_per_force =
      forces == 0 ? 0.0 : static_cast<double>(records) / forces;
  r.commits_per_force =
      forces == 0 ? 0.0 : static_cast<double>(commits) / forces;
  return r;
}

void ReportGroupCommit() {
  PrintHeader(
      "WAL group commit — shared forces",
      "Claims: with concurrent committers one device write + fsync covers "
      "many commits (records-per-force > 1); commit throughput beats the "
      "synchronous one-fsync-per-commit baseline; a bounded WAL stays "
      "bounded under a checkpointed workload.");
  std::printf("simulated fsync latency: %d us\n\n", kSimulatedFsyncUs);

  constexpr int kCommits = 40;
  const GroupCommitRun solo = RunCommitters(1, kCommits);
  const GroupCommitRun crowd = RunCommitters(8, kCommits);
  std::printf("  %-34s %10.0f commits/s  %6.1f records/force  %5.2f commits/force\n",
              "1 committer (sync baseline):", solo.commits_per_sec,
              solo.records_per_force, solo.commits_per_force);
  std::printf("  %-34s %10.0f commits/s  %6.1f records/force  %5.2f commits/force\n",
              "8 committers:", crowd.commits_per_sec,
              crowd.records_per_force, crowd.commits_per_force);
  std::printf("  speedup over sync baseline: %.2fx\n",
              crowd.commits_per_sec / solo.commits_per_sec);

  // Bounded WAL: sustained checkpointed workload on a circular log.
  constexpr uint64_t kCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kCap;
  auto db = RequireR(core::Prima::Open(std::move(options)), "open bounded");
  Require(db->Execute("CREATE ATOM_TYPE part"
                      " ( part_id : IDENTIFIER, num : INTEGER,"
                      "   name : CHAR_VAR ) KEYS_ARE (num)")
              .status(),
          "schema");
  const auto* part = db->access().catalog().FindAtomType("part");
  Require(db->Flush(), "checkpoint");
  uint64_t peak_footprint = 0;
  int commits = 0;
  while (db->wal()->append_lsn() < 3 * db->wal()->capacity_bytes()) {
    auto txn = RequireR(db->Begin(), "begin");
    RequireR(txn->InsertAtom(part->id,
                             {AttrValue{1, Value::Int(commits)},
                              AttrValue{2, Value::String("p")}}),
             "insert");
    Require(txn->Commit(), "commit");
    if (++commits % 10 == 0) {
      Require(db->Flush(), "checkpoint");
      peak_footprint = std::max(peak_footprint, db->wal_stats().footprint_bytes);
    }
  }
  const auto stats = db->wal_stats();
  std::printf(
      "\nbounded WAL (wal_max_bytes = %llu): %d commits, %llu log bytes "
      "appended\n  peak footprint = %llu bytes (%s cap), live tail = %llu "
      "bytes\n",
      static_cast<unsigned long long>(kCap), commits,
      static_cast<unsigned long long>(stats.bytes_appended),
      static_cast<unsigned long long>(peak_footprint),
      peak_footprint <= kCap ? "within" : "EXCEEDS",
      static_cast<unsigned long long>(stats.live_bytes));
}

void ReportMaintenance() {
  PrintHeader(
      "Maintenance daemon + log archiving + media recovery",
      "Claims: the checkpoint daemon lets a bounded-WAL workload issuing "
      "ZERO manual Flush() calls run to completion without NoSpace; "
      "recycled log blocks are archived before reuse; a destroyed data "
      "device is rebuilt from fuzzy backup + archived log + live WAL.");

  constexpr uint64_t kCap = 256u << 10;
  auto base = std::make_shared<storage::MemoryBlockDevice>();
  auto crash = std::make_shared<recovery::CrashingBlockDevice>(base);
  core::PrimaOptions options;
  options.device = crash;
  options.wal_max_bytes = kCap;  // daemon active at the default fraction
  options.wal_archive = true;
  auto db = RequireR(core::Prima::Open(std::move(options)), "open");
  Require(db->Execute("CREATE ATOM_TYPE part"
                      " ( part_id : IDENTIFIER, num : INTEGER,"
                      "   name : CHAR_VAR ) KEYS_ARE (num)")
              .status(),
          "schema");
  const auto* part = db->access().catalog().FindAtomType("part");

  // Sustained workload, zero manual Flush(): checkpoint scheduling is the
  // daemon's job, with the commit NoSpace-poke as its safety net. A fuzzy
  // online backup is taken mid-stream, writers never pausing.
  int commits = 0;
  const auto start = std::chrono::steady_clock::now();
  while (db->wal()->append_lsn() < 3 * db->wal()->capacity_bytes()) {
    auto txn = RequireR(db->Begin(), "begin");
    RequireR(txn->InsertAtom(part->id,
                             {AttrValue{1, Value::Int(commits)},
                              AttrValue{2, Value::String("p")}}),
             "insert");
    Require(txn->Commit(), "commit (daemon should prevent NoSpace)");
    if (++commits == 100) {
      RequireR(db->Backup(), "fuzzy backup");
    }
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  const auto stats = db->wal_stats();
  const auto daemon_stats = db->checkpoint_daemon()->stats();
  std::printf(
      "bounded WAL %llu KB, %d commits, 0 manual Flush() calls, %.0f "
      "commits/s\n"
      "  auto checkpoints = %llu, NoSpace-poke checkpoints = %llu\n"
      "  archived = %llu KB, footprint = %llu KB (%s cap), "
      "oldest-active-txn LSN = %llu\n",
      static_cast<unsigned long long>(kCap >> 10), commits,
      commits / elapsed.count(),
      static_cast<unsigned long long>(stats.auto_checkpoints),
      static_cast<unsigned long long>(daemon_stats.requested_checkpoints),
      static_cast<unsigned long long>(stats.archived_bytes >> 10),
      static_cast<unsigned long long>(stats.footprint_bytes >> 10),
      stats.footprint_bytes <= kCap ? "within" : "EXCEEDS",
      static_cast<unsigned long long>(stats.oldest_active_lsn));

  // Media recovery: pull the plug, destroy every data segment, rebuild
  // from backup + archive + live WAL.
  crash->CrashNow();
  db.reset();
  for (storage::SegmentId id : base->ListFiles()) {
    if (!storage::IsReservedFileId(id)) {
      Require(base->Remove(id), "destroy data segment");
    }
  }
  core::PrimaOptions restore;
  restore.device = base;
  restore.wal_max_bytes = kCap;
  restore.restore_from_backup = true;
  const auto rec_start = std::chrono::steady_clock::now();
  auto rebuilt = RequireR(core::Prima::Open(std::move(restore)),
                          "media recovery");
  const auto rec_elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - rec_start);
  const auto* part2 = rebuilt->access().catalog().FindAtomType("part");
  const size_t atoms =
      part2 == nullptr ? 0 : rebuilt->access().AtomCount(part2->id);
  std::printf(
      "media recovery after device loss: %zu of %d committed atoms rebuilt "
      "in %.1f ms (%s)\n",
      atoms, commits, rec_elapsed.count() * 1e3,
      atoms == static_cast<size_t>(commits) ? "complete" : "INCOMPLETE");
}

void ReportRestartAndRebuild() {
  PrintHeader(
      "Restart + media rebuild — timed serial redo",
      "Claims: restart replays the redo window in one forward pass on the "
      "opening thread, and a media rebuild replays the same window over a "
      "restored dump; this is the recovery-latency baseline for later "
      "changes. Each row is the median of 5 timed runs on fresh clones of the "
      "crashed image, after one untimed warm-up run.");

  // Grow a crashed image whose redo window spans a multi-megabyte log:
  // unbounded WAL, one early checkpoint + fuzzy backup, then waves of
  // inserts and modifies that are never checkpointed again.
  auto base = std::make_shared<storage::MemoryBlockDevice>();
  auto crash = std::make_shared<recovery::CrashingBlockDevice>(base);
  core::PrimaOptions options;
  options.device = crash;
  auto db = RequireR(core::Prima::Open(std::move(options)), "open");
  Require(db->Execute("CREATE ATOM_TYPE part"
                      " ( part_id : IDENTIFIER, num : INTEGER,"
                      "   name : CHAR_VAR ) KEYS_ARE (num)")
              .status(),
          "schema");
  const auto* part = db->access().catalog().FindAtomType("part");
  constexpr int kAtoms = 2000;
  constexpr int kModifyRounds = 4;
  std::vector<Tid> tids;
  tids.reserve(kAtoms);
  for (int i = 0; i < kAtoms; ++i) {
    tids.push_back(RequireR(
        db->access().InsertAtom(part->id, {AttrValue{1, Value::Int(i)},
                                           AttrValue{2, Value::String("p")}}),
        "insert"));
  }
  const auto backup = RequireR(db->Backup(), "fuzzy backup");
  for (int round = 0; round < kModifyRounds; ++round) {
    auto txn = RequireR(db->Begin(), "begin");
    for (int i = 0; i < kAtoms; ++i) {
      Require(txn->ModifyAtom(tids[i],
                              {AttrValue{2, Value::String(
                                             "r" + std::to_string(round) +
                                             "v" + std::to_string(i))}}),
              "modify");
    }
    Require(txn->Commit(), "commit");
  }
  const auto wal_stats = db->wal_stats();
  crash->CrashNow();
  db.reset();
  std::printf(
      "crashed image: %d atoms, %d modify rounds, %.1f MB log in the redo "
      "window (%.1f MB full-page images)\n\n",
      kAtoms, kModifyRounds,
      static_cast<double>(wal_stats.bytes_appended) / (1 << 20),
      static_cast<double>(wal_stats.full_page_image_bytes) / (1 << 20));

  // Every run recovers a FRESH clone of the same crashed bytes; the first
  // run of each kind only warms caches and the allocator.
  constexpr int kTimedRuns = 5;
  const auto median_ms = [&](auto&& one_run) {
    one_run();
    std::vector<double> ms;
    for (int run = 0; run < kTimedRuns; ++run) ms.push_back(one_run());
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };
  const auto require_all_atoms = [&](core::Prima* db, const char* what) {
    const auto* part2 = db->access().catalog().FindAtomType("part");
    Require(part2 != nullptr &&
                    db->access().AtomCount(part2->id) ==
                        static_cast<size_t>(kAtoms)
                ? util::Status::Ok()
                : util::Status::Corruption("atom count mismatch"),
            what);
  };

  uint64_t redo_records = 0;
  const double restart_ms = median_ms([&] {
    core::PrimaOptions o;
    o.device = std::shared_ptr<storage::BlockDevice>(base->Clone());
    const auto start = std::chrono::steady_clock::now();
    auto recovered = RequireR(core::Prima::Open(std::move(o)), "restart");
    const double ms = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count() *
                      1e3;
    redo_records = recovered->wal_stats().redo_records_applied;
    require_all_atoms(recovered.get(), "recovered state");
    return ms;
  });
  std::printf("  restart:       %7.1f ms  (%llu redo records)\n", restart_ms,
              static_cast<unsigned long long>(redo_records));

  // Media rebuild: data segments destroyed, restore from the fuzzy backup
  // and replay the same window through the same apply phase.
  const double rebuild_ms = median_ms([&] {
    auto clone = std::shared_ptr<storage::MemoryBlockDevice>(base->Clone());
    for (storage::SegmentId id : clone->ListFiles()) {
      if (!storage::IsReservedFileId(id)) {
        Require(clone->Remove(id), "destroy data segment");
      }
    }
    core::PrimaOptions o;
    o.device = clone;
    o.restore_from_backup = true;
    const auto start = std::chrono::steady_clock::now();
    auto rebuilt = RequireR(core::Prima::Open(std::move(o)), "media rebuild");
    const double ms = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count() *
                      1e3;
    require_all_atoms(rebuilt.get(), "rebuilt state");
    return ms;
  });
  std::printf("  media rebuild: %7.1f ms  (from the backup at start LSN %llu)\n",
              rebuild_ms, static_cast<unsigned long long>(backup.start_lsn));
}

void Report() {
  PrintHeader("E15 / §4 — nested transactions",
              "Claims: bounded per-op overhead; subtree aborts undo only the "
              "subtree; ancestors' locks are usable by children.");
  auto db = MakeDb(100);
  const auto* part = db->access().catalog().FindAtomType("part");
  auto atoms = db->access().AllAtoms(part->id);

  // Selective recovery demonstration.
  auto txn = RequireR(db->Begin(), "begin");
  Require(txn->ModifyAtom(atoms[0], {AttrValue{2, Value::String("parent")}}),
          "parent modify");
  auto child = RequireR(txn->BeginChild(), "child");
  Require(child->ModifyAtom(atoms[1], {AttrValue{2, Value::String("child")}}),
          "child modify");
  const size_t parent_undo = txn->undo_size();
  const size_t child_undo = child->undo_size();
  Require(child->Abort(), "child abort");
  auto a0 = RequireR(db->access().GetAtom(atoms[0]), "a0");
  auto a1 = RequireR(db->access().GetAtom(atoms[1]), "a1");
  std::printf("selective in-transaction recovery:\n");
  std::printf("  parent undo entries: %zu, child undo entries: %zu\n",
              parent_undo, child_undo);
  std::printf("  after child abort: atom0 = %s (parent change kept), "
              "atom1 = %s (child change undone)\n",
              a0.attrs[2].AsString().c_str(), a1.attrs[2].AsString().c_str());
  Require(txn->Commit(), "commit");

  // Conflict + inheritance shape.
  auto t1 = RequireR(db->Begin(), "t1");
  auto t2 = RequireR(db->Begin(), "t2");
  Require(t1->ModifyAtom(atoms[2], {AttrValue{2, Value::String("x")}}), "m");
  const auto conflict =
      t2->ModifyAtom(atoms[2], {AttrValue{2, Value::String("y")}});
  auto t1child = RequireR(t1->BeginChild(), "t1 child");
  const auto inherited =
      t1child->ModifyAtom(atoms[2], {AttrValue{2, Value::String("z")}});
  std::printf("\nlock rules (Moss):\n");
  std::printf("  sibling write-write        -> %s\n",
              conflict.IsConflict() ? "Conflict (correct)" : "UNEXPECTED");
  std::printf("  child under ancestor lock  -> %s\n",
              inherited.ok() ? "granted (correct)" : inherited.ToString().c_str());
  Require(t1child->Commit(), "cc");
  Require(t1->Commit(), "c1");
  Require(t2->Commit(), "c2");
}

void BM_ModifyNoTransaction(benchmark::State& state) {
  auto db = MakeDb(200);
  const auto* part = db->access().catalog().FindAtomType("part");
  auto atoms = db->access().AllAtoms(part->id);
  size_t i = 0;
  for (auto _ : state) {
    Require(db->access().ModifyAtom(
                atoms[i++ % atoms.size()],
                {AttrValue{2, Value::String("v" + std::to_string(i))}}),
            "modify");
  }
}
BENCHMARK(BM_ModifyNoTransaction);

void BM_ModifyInTransaction(benchmark::State& state) {
  auto db = MakeDb(200);
  const auto* part = db->access().catalog().FindAtomType("part");
  auto atoms = db->access().AllAtoms(part->id);
  size_t i = 0;
  for (auto _ : state) {
    auto txn = RequireR(db->Begin(), "begin");
    Require(txn->ModifyAtom(
                atoms[i++ % atoms.size()],
                {AttrValue{2, Value::String("v" + std::to_string(i))}}),
            "modify");
    Require(txn->Commit(), "commit");
  }
}
BENCHMARK(BM_ModifyInTransaction);

void BM_AbortCost(benchmark::State& state) {
  // Undo application scales with the number of logged operations.
  const int ops = static_cast<int>(state.range(0));
  auto db = MakeDb(200);
  const auto* part = db->access().catalog().FindAtomType("part");
  auto atoms = db->access().AllAtoms(part->id);
  for (auto _ : state) {
    auto txn = RequireR(db->Begin(), "begin");
    for (int i = 0; i < ops; ++i) {
      Require(txn->ModifyAtom(
                  atoms[i % atoms.size()],
                  {AttrValue{2, Value::String("v" + std::to_string(i))}}),
              "modify");
    }
    Require(txn->Abort(), "abort");
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_AbortCost)->Arg(1)->Arg(10)->Arg(100);

void BM_NestedCommitChain(benchmark::State& state) {
  // Depth of the transaction tree: commit inheritance cost per level.
  const int depth = static_cast<int>(state.range(0));
  auto db = MakeDb(200);
  const auto* part = db->access().catalog().FindAtomType("part");
  auto atoms = db->access().AllAtoms(part->id);
  size_t i = 0;
  for (auto _ : state) {
    auto root = RequireR(db->Begin(), "begin");
    core::Transaction* current = root;
    std::vector<core::Transaction*> chain{root};
    for (int d = 0; d < depth; ++d) {
      current = RequireR(current->BeginChild(), "child");
      chain.push_back(current);
      Require(current->ModifyAtom(
                  atoms[i++ % atoms.size()],
                  {AttrValue{2, Value::String("d" + std::to_string(d))}}),
              "modify");
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      Require((*it)->Commit(), "commit");
    }
  }
}
BENCHMARK(BM_NestedCommitChain)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace prima::bench

int main(int argc, char** argv) {
  prima::bench::Report();
  prima::bench::ReportGroupCommit();
  prima::bench::ReportMaintenance();
  prima::bench::ReportRestartAndRebuild();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
