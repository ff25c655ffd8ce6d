// MVCC read tests: version chains, cursors that pin a committed view at
// open and never block on writers, BEGIN WORK READ ONLY, readers racing
// aborts, watermark retirement (including a pin that opens while a commit
// is publishing), and a SIGKILL crash drive proving the version store is
// volatile state that a restart rebuilds empty.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "temp_dir.h"

namespace prima::access {

/// Runs Publish and Retire one step at a time, so a test can open a pin
/// between two steps that race on different threads in the real thing.
class VersionStoreTestPeer {
 public:
  /// Publish up to its clock store: stamp the entries `writes` name with
  /// the next sequence and bury their tombs. Returns that sequence.
  static uint64_t StampAndBury(VersionStore& store,
                               const std::vector<UndoRecord>& writes) {
    const uint64_t seq = store.last_seq_.load() + 1;
    store.StampAndBury(writes, seq);
    return seq;
  }
  /// The rest of Publish: advance the clock, then retire.
  static void StoreClockAndRetire(VersionStore& store, uint64_t seq) {
    store.last_seq_.store(seq);
    store.Retire();
  }
  static uint64_t RetireFloor(const VersionStore& store) {
    return store.RetireFloor();
  }
  static void RetireThrough(VersionStore& store, uint64_t floor) {
    store.RetireThrough(floor);
  }
};

namespace {

// A Retire that reads its floor while no pin is live, then pops tombs a
// commit buried after that read, must leave the entries a pin opened in
// between still needs. The steps, in the order that used to tear a
// reader's pair: the floor is read; a commit buries seq S+1's tombs but
// has not stored the clock yet; a reader pins S; the Retire pops.
TEST(VersionStoreRaceTest, PinOpenedWhileACommitPublishesKeepsItsEntries) {
  VersionStore store;
  const Tid tid(1, 42);
  Atom before;
  before.tid = tid;
  before.attrs.push_back(Value::String("before"));
  const std::vector<UndoRecord> writes = {
      {UndoRecord::Kind::kModify, tid, store.Install(/*txn=*/7, tid, &before),
       /*lsn=*/0}};

  const uint64_t floor = VersionStoreTestPeer::RetireFloor(store);
  const uint64_t seq = VersionStoreTestPeer::StampAndBury(store, writes);
  std::shared_ptr<VersionStore::Pin> pin = store.OpenSnapshot(0);
  EXPECT_EQ(pin->view().seq, seq - 1);
  VersionStoreTestPeer::RetireThrough(store, floor);
  VersionStoreTestPeer::StoreClockAndRetire(store, seq);

  const VersionStore::Resolution r = store.Resolve(tid, pin->view());
  EXPECT_EQ(r.outcome, VersionStore::Outcome::kBefore);
  ASSERT_TRUE(r.before.has_value());
  EXPECT_EQ(r.before->attrs[0].AsString(), "before");

  // Once the pin goes, the entry is garbage and retires.
  pin.reset();
  EXPECT_TRUE(store.Empty());
}

}  // namespace
}  // namespace prima::access

namespace prima::core {
namespace {

using access::Value;
using mql::ExecResult;
using mql::MoleculeCursor;
using util::Result;

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Prima::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    session_ = db_->OpenSession();
    auto ddl = session_->Execute(
        "CREATE ATOM_TYPE part (part_id: IDENTIFIER, part_no: INTEGER, "
        "name: CHAR_VAR, weight: REAL) KEYS_ARE (part_no)");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  }

  util::Status InsertPart(Session* s, int64_t no, const std::string& name,
                          double weight) {
    return s
        ->Execute("INSERT part (part_no = " + std::to_string(no) +
                  ", name = '" + name +
                  "', weight = " + std::to_string(weight) + ")")
        .status();
  }

  /// (part_no, name) pairs of every molecule a cursor drains, sorted — an
  /// order-independent value-for-value fingerprint of the stream.
  static std::multiset<std::string> Fingerprint(
      std::vector<mql::Molecule> molecules) {
    std::multiset<std::string> out;
    for (const mql::Molecule& m : molecules) {
      for (const mql::MoleculeGroup& g : m.groups) {
        for (const access::Atom& a : g.atoms) {
          out.insert(std::to_string(a.attrs[1].AsInt()) + "/" +
                     a.attrs[2].AsString());
        }
      }
    }
    return out;
  }

  static std::vector<mql::Molecule> DrainAll(MoleculeCursor* cursor) {
    std::vector<mql::Molecule> out;
    for (;;) {
      auto next = cursor->Next();
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ok() || !next->has_value()) break;
      out.push_back(std::move(**next));
    }
    return out;
  }

  std::unique_ptr<Prima> db_;
  std::unique_ptr<Session> session_;
};

// A cursor opened before a writer commits drains the pre-write state
// value-for-value: modified atoms come back with their before-images,
// deleted atoms are rescued by the ghost pass, and atoms inserted after the
// cursor's view stay invisible. A cursor opened afterwards sees the new
// world.
TEST_F(MvccTest, SnapshotCursorRepeatableStream) {
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "v0_" + std::to_string(i),
                           i * 1.0)
                    .ok());
  }
  auto expected = session_->Execute("SELECT ALL FROM part");
  ASSERT_TRUE(expected.ok());
  const auto before =
      Fingerprint(std::move(expected->molecules.molecules));

  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  // Pull one molecule so the stream is mid-drain when the writer commits.
  std::vector<mql::Molecule> drained;
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok() && first->has_value());
  drained.push_back(std::move(**first));

  auto writer = db_->OpenSession();
  ASSERT_TRUE(writer->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      writer->Execute("MODIFY part SET name = 'clobbered'").ok());
  ASSERT_TRUE(
      writer->Execute("DELETE ALL FROM part WHERE part_no = 7").ok());
  ASSERT_TRUE(InsertPart(writer.get(), 99, "newborn", 9.9).ok());
  ASSERT_TRUE(writer->Execute("COMMIT WORK").ok());

  for (auto& m : DrainAll(&*cursor)) drained.push_back(std::move(m));
  EXPECT_EQ(Fingerprint(std::move(drained)), before);

  // A later statement sees the committed writes: every name clobbered,
  // part 7 gone, part 99 born.
  auto after = session_->Execute("SELECT ALL FROM part");
  ASSERT_TRUE(after.ok());
  const auto now = Fingerprint(std::move(after->molecules.molecules));
  EXPECT_EQ(now.size(), 20u);  // 20 - 1 deleted + 1 inserted
  EXPECT_EQ(now.count("99/newborn"), 1u);
  for (const std::string& f : now) {
    if (f != "99/newborn") {
      EXPECT_NE(f.find("/clobbered"), std::string::npos);
    }
  }
}

// An uncommitted writer is invisible to a cursor even though the base
// records already changed — and the reader never blocks on the writer's
// exclusive locks.
TEST_F(MvccTest, SnapshotReaderDoesNotBlockOnUncommittedWriter) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "stable", 1.0).ok());
  }
  auto writer = db_->OpenSession();
  ASSERT_TRUE(writer->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      writer->Execute("MODIFY part SET name = 'dirty'").ok());

  // Writer still holds its locks; the read sails past them.
  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok());
  for (const std::string& f : Fingerprint(DrainAll(&*cursor))) {
    EXPECT_NE(f.find("/stable"), std::string::npos) << f;
  }
  ASSERT_TRUE(writer->Execute("ABORT WORK").ok());
}

// BEGIN WORK READ ONLY: one pinned view for the whole transaction
// (degree-3 repeatable reads), DML and DDL refused, nested BEGIN refused,
// COMMIT releases the pin.
TEST_F(MvccTest, ReadOnlyTransactionRepeatsAndRefusesWrites) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "original", 1.0).ok());

  ASSERT_TRUE(session_->Execute("BEGIN WORK READ ONLY").ok());
  EXPECT_TRUE(session_->in_read_only_transaction());

  EXPECT_FALSE(InsertPart(session_.get(), 2, "refused", 2.0).ok());
  EXPECT_FALSE(
      session_->Execute("MODIFY part SET name = 'no'").ok());
  EXPECT_FALSE(
      session_->Execute("CREATE ATOM_TYPE refused (x: INTEGER)").ok());
  EXPECT_FALSE(session_->Execute("BEGIN WORK").ok());
  EXPECT_FALSE(session_->Execute("BEGIN WORK READ ONLY").ok());

  auto writer = db_->OpenSession();
  ASSERT_TRUE(
      writer->Execute("MODIFY part SET name = 'moved'").ok());
  ASSERT_TRUE(InsertPart(writer.get(), 3, "later", 3.0).ok());

  // Every read inside the transaction — even one executed after the
  // writer's commit — replays the view pinned at BEGIN.
  auto repeat = session_->Execute("SELECT ALL FROM part");
  ASSERT_TRUE(repeat.ok());
  const auto seen = Fingerprint(std::move(repeat->molecules.molecules));
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.count("1/original"), 1u);

  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  EXPECT_FALSE(session_->in_read_only_transaction());

  // Released: writes work again and reads see the present.
  ASSERT_TRUE(InsertPart(session_.get(), 4, "after", 4.0).ok());
  auto now = session_->Execute("SELECT ALL FROM part");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->molecules.size(), 3u);
}

// READ ONLY cannot be opened inside an open read-write transaction.
TEST_F(MvccTest, ReadOnlyRefusedInsideReadWriteTransaction) {
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  EXPECT_FALSE(session_->Execute("BEGIN WORK READ ONLY").ok());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
}

// A prepared statement's cursor pins its view at each open, not at
// Prepare: Query() before a commit drains the old value, and Execute()
// after it (the materializing path, its own open) sees the new one.
TEST_F(MvccTest, PreparedStatementPinsAtEachOpen) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "old", 1.0).ok());
  auto stmt = session_->Prepare("SELECT ALL FROM part WHERE part_no = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Int(1)).ok());

  auto cursor = stmt->Query();
  ASSERT_TRUE(cursor.ok());
  auto writer = db_->OpenSession();
  ASSERT_TRUE(
      writer->Execute("MODIFY part SET name = 'new'").ok());
  EXPECT_EQ(Fingerprint(DrainAll(&*cursor)).count("1/old"), 1u);

  auto result = stmt->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Fingerprint(std::move(result->molecules.molecules))
                .count("1/new"),
            1u);
}

// Readers race a writer that keeps writing and rolling back: MODIFY to
// 'dirty' + ABORT WORK, and DELETE + ABORT WORK. An abort restores the
// base records before it publishes its chain entries, so a reader that
// fetched a record while it still held the aborted value resolves it to
// the before-image. No cursor may see 'dirty' or miss a row.
TEST_F(MvccTest, DefaultReaderNeverSeesUncommittedOrAbortedWrite) {
  static constexpr int kParts = 16;
  for (int i = 1; i <= kParts; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "clean", 1.0).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> dirty{0}, missing{0}, failed{0};
  std::atomic<uint64_t> reads{0}, aborts{0};
  std::mutex error_mu;
  std::string first_error;
  const auto fail = [&](const util::Status& st) {
    if (failed.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(error_mu);
      first_error = st.ToString();
    }
  };

  auto reader = [&](bool keyed) {
    auto s = db_->OpenSession();
    auto stmt = s->Prepare("SELECT ALL FROM part WHERE part_no = ?");
    if (!stmt.ok()) {
      fail(stmt.status());
      return;
    }
    int key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Result<MoleculeCursor> cursor = s->Query("SELECT ALL FROM part");
      size_t expect = kParts;
      if (keyed) {
        (void)stmt->Bind(0, Value::Int(key++ % kParts + 1));
        cursor = stmt->Query();
        expect = 1;
      }
      if (!cursor.ok()) {
        fail(cursor.status());
        continue;
      }
      size_t rows = 0;
      for (;;) {
        auto next = cursor->Next();
        if (!next.ok()) {
          fail(next.status());
          break;
        }
        if (!next->has_value()) break;
        ++rows;
        for (const access::Atom& a : (*next)->groups[0].atoms) {
          if (a.attrs[2].AsString() != "clean") dirty.fetch_add(1);
        }
      }
      if (rows != expect) missing.fetch_add(1);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto writer = [&] {
    auto s = db_->OpenSession();
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string where =
          " WHERE part_no = " + std::to_string(i++ % kParts + 1);
      if (!s->Execute("BEGIN WORK").ok()) continue;
      (void)s->Execute((i % 2 == 0 ? "MODIFY part SET name = 'dirty'"
                                   : "DELETE ALL FROM part") +
                       where);
      if (s->Execute("ABORT WORK").ok()) aborts.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader, false);
  threads.emplace_back(reader, true);
  threads.emplace_back(writer);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((aborts.load() < 400 || reads.load() < 100) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(dirty.load(), 0);
  EXPECT_EQ(missing.load(), 0);
  EXPECT_EQ(failed.load(), 0) << first_error;
  EXPECT_GE(aborts.load(), 400u);
  EXPECT_GE(reads.load(), 100u);
}

// A subtransaction's ABORT WORK publishes its chain entries before its
// locks drop. Left pending until the outer COMMIT WORK, the aborted entry
// sat in front of the next writer's, and every fresh read resolved the
// part to the aborted write's before-image: a committed value was hidden.
TEST_F(MvccTest, NestedAbortDoesNotHideALaterCommit) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "p1", 1.0).ok());
  const auto name_of_part_1 = [&] {
    auto r = session_->Execute("SELECT ALL FROM part WHERE part_no = 1");
    EXPECT_TRUE(r.ok() && r->molecules.size() == 1u);
    if (!r.ok() || r->molecules.size() != 1u) return std::string();
    return r->molecules.molecules[0].groups[0].atoms[0].attrs[2].AsString();
  };

  auto a = db_->OpenSession();
  ASSERT_TRUE(a->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(a->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      a->Execute("MODIFY part SET name = 'dirty' WHERE part_no = 1").ok());
  ASSERT_TRUE(a->Execute("ABORT WORK").ok());

  auto c = db_->OpenSession();
  ASSERT_TRUE(
      c->Execute("MODIFY part SET name = 'other' WHERE part_no = 1").ok());
  EXPECT_EQ(name_of_part_1(), "other");

  ASSERT_TRUE(a->Execute("COMMIT WORK").ok());
  EXPECT_EQ(name_of_part_1(), "other");
  EXPECT_TRUE(db_->access().versions().Empty());
}

// The same sequence, read by a cursor that pins its view after the other
// session's commit and drains only after the outer COMMIT WORK: its view
// includes the commit, so it must stream the committed value.
TEST_F(MvccTest, CursorAfterANestedAbortSeesTheLaterCommit) {
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p" + std::to_string(i), 1.0)
                    .ok());
  }
  auto a = db_->OpenSession();
  ASSERT_TRUE(a->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(a->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      a->Execute("MODIFY part SET name = 'dirty' WHERE part_no = 1").ok());
  ASSERT_TRUE(a->Execute("ABORT WORK").ok());

  auto c = db_->OpenSession();
  ASSERT_TRUE(
      c->Execute("MODIFY part SET name = 'other' WHERE part_no = 1").ok());

  {
    auto cursor = session_->Query("SELECT ALL FROM part");
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    ASSERT_TRUE(a->Execute("COMMIT WORK").ok());
    EXPECT_EQ(Fingerprint(DrainAll(&*cursor)),
              (std::multiset<std::string>{"1/other", "2/p2", "3/p3", "4/p4"}));
  }
  EXPECT_TRUE(db_->access().versions().Empty());
}

// Storm form of the two tests above. One session loops a nested abort on a
// part; another auto-commits ever larger weights on the same parts. No
// reader may see the aborted name, nor a weight below the last one
// acknowledged before its cursor opened.
TEST_F(MvccTest, NestedAbortsNeverHideCommits) {
  static constexpr int kParts = 4;
  for (int i = 1; i <= kParts; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "clean", 0.0).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> dirty{0}, stale{0}, failed{0};
  std::atomic<uint64_t> reads{0}, aborts{0}, commits{0};
  std::atomic<int64_t> acked[kParts + 1] = {};
  std::mutex error_mu;
  std::string first_error;
  const auto fail = [&](const util::Status& st) {
    if (failed.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(error_mu);
      first_error = st.ToString();
    }
  };

  auto aborter = [&] {
    auto s = db_->OpenSession();
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::string where =
          " WHERE part_no = " + std::to_string(i % kParts + 1);
      if (!s->Execute("BEGIN WORK").ok()) continue;
      if (s->Execute("BEGIN WORK").ok()) {
        // The MODIFY may lose the part's lock to the committer.
        const bool modified =
            s->Execute("MODIFY part SET name = 'dirty'" + where).ok();
        if (s->Execute("ABORT WORK").ok() && modified) aborts.fetch_add(1);
      }
      (void)s->Execute("COMMIT WORK");
    }
  };
  auto committer = [&] {
    auto s = db_->OpenSession();
    for (int64_t w = 1; !stop.load(std::memory_order_relaxed); ++w) {
      const int no = static_cast<int>(w % kParts + 1);
      const util::Status st =
          s->Execute("MODIFY part SET weight = " + std::to_string(w) +
                     " WHERE part_no = " + std::to_string(no))
              .status();
      if (st.ok()) {
        acked[no].store(w);
        commits.fetch_add(1);
      } else if (!st.IsConflict()) {
        fail(st);
      }
    }
  };
  auto reader = [&] {
    auto s = db_->OpenSession();
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t floor[kParts + 1];
      for (int no = 1; no <= kParts; ++no) floor[no] = acked[no].load();
      auto cursor = s->Query("SELECT ALL FROM part");
      if (!cursor.ok()) {
        fail(cursor.status());
        continue;
      }
      for (;;) {
        auto next = cursor->Next();
        if (!next.ok()) {
          fail(next.status());
          break;
        }
        if (!next->has_value()) break;
        const access::Atom& a = (*next)->groups[0].atoms[0];
        if (a.attrs[2].AsString() != "clean") dirty.fetch_add(1);
        const int64_t no = a.attrs[1].AsInt();
        if (a.attrs[3].AsReal() < static_cast<double>(floor[no])) {
          stale.fetch_add(1);
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(aborter);
  threads.emplace_back(committer);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((aborts.load() < 400 || commits.load() < 400 ||
          reads.load() < 100) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(dirty.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(failed.load(), 0) << first_error;
  EXPECT_GE(aborts.load(), 400u);
  EXPECT_GE(commits.load(), 400u);
  EXPECT_GE(reads.load(), 100u);
  EXPECT_TRUE(db_->access().versions().Empty());
}

// Version chains retire exactly when the last pin that could need them
// goes away, and the store drains to empty — the "retires to empty"
// acceptance gauge, watched through stats()/metrics.
TEST_F(MvccTest, WatermarkRetirementUnderPinnedSnapshot) {
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "v0", 1.0).ok());
  }
  // Insert chains retire on commit (no pin is older); store drains.
  access::VersionStore& versions = db_->access().versions();
  EXPECT_TRUE(versions.Empty());

  {
    auto cursor = session_->Query("SELECT ALL FROM part");
    ASSERT_TRUE(cursor.ok());
    auto writer = db_->OpenSession();
    ASSERT_TRUE(
        writer->Execute("MODIFY part SET name = 'v1'").ok());

    const auto pinned = versions.StatsSnapshot();
    EXPECT_GT(pinned.versions_retained, 0u);
    EXPECT_EQ(pinned.snapshots_active, 1u);
    EXPECT_FALSE(versions.Empty());

    // The pinned cursor still reads v0 through the retained chains.
    EXPECT_EQ(Fingerprint(DrainAll(&*cursor)).count("1/v0"), 1u);
  }
  // Cursor gone -> pin released -> watermark advances past every chain.
  EXPECT_TRUE(versions.Empty());
  const auto drained = versions.StatsSnapshot();
  EXPECT_EQ(drained.versions_retained, 0u);
  EXPECT_EQ(drained.snapshots_active, 0u);
  EXPECT_EQ(drained.oldest_snapshot_lsn, 0u);
  EXPECT_EQ(drained.versions_installed, drained.versions_retired);
}

// A cursor with no transaction of its own survives a same-session ABORT
// WORK: the rollback's compensations restore exactly the before-images its
// pinned chains serve, so the stream keeps going. A cursor opened inside
// the transaction sees its writes, so the abort invalidates it.
TEST_F(MvccTest, CursorOutsideTheTransactionSurvivesSameSessionAbort) {
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "keep", 1.0).ok());
  }
  auto outside = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(outside.ok());
  auto first = outside->Next();
  ASSERT_TRUE(first.ok() && first->has_value());

  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      session_->Execute("MODIFY part SET name = 'doomed'").ok());
  auto inside = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(inside.ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());

  // The cursor that could see 'doomed' is dead...
  EXPECT_FALSE(inside->Next().ok());
  // ...the one outside the transaction is not, and drains its view.
  size_t rest = 1;
  for (;;) {
    auto next = outside->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    EXPECT_EQ((*next)->groups[0].atoms[0].attrs[2].AsString(), "keep");
    ++rest;
  }
  EXPECT_EQ(rest, 10u);
}

// N readers against M writers: every committed write keeps the
// torn-pair invariant (weight always equals part_no's current generation in
// both attributes via name == weight-stamp), readers never see half a
// transaction, and the lock table records zero conflicts — readers take no
// locks at all, and the writers partition the key space.
TEST_F(MvccTest, ReaderWriterStormNeverTearsAndNeverWaits) {
  // Pairs: two atoms per slot, always modified together to the same stamp.
  static constexpr int kSlots = 4;
  for (int i = 0; i < kSlots * 2; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "g0", 0.0).ok());
  }
  const uint64_t conflicts_before =
      db_->transactions().stats().lock_conflicts.load();

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> reads{0};

  auto reader = [&] {
    auto s = db_->OpenSession();
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = s->Execute("SELECT ALL FROM part");
      if (!r.ok()) continue;
      // Both atoms of a slot must carry the same generation stamp.
      std::vector<std::string> gen(kSlots * 2);
      for (const mql::Molecule& m : r->molecules.molecules) {
        const access::Atom& a = m.groups[0].atoms[0];
        gen[a.attrs[1].AsInt()] = a.attrs[2].AsString();
      }
      for (int slot = 0; slot < kSlots; ++slot) {
        if (gen[slot * 2] != gen[slot * 2 + 1]) torn.fetch_add(1);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto writer = [&](int slot) {
    auto s = db_->OpenSession();
    int g = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string stamp = "g" + std::to_string(g++);
      if (!s->Execute("BEGIN WORK").ok()) continue;
      bool ok =
          s->Execute("MODIFY part SET name = '" + stamp +
                     "' WHERE part_no = " +
                     std::to_string(slot * 2))
              .ok() &&
          s->Execute("MODIFY part SET name = '" + stamp +
                     "' WHERE part_no = " +
                     std::to_string(slot * 2 + 1))
              .ok();
      if (ok) {
        (void)s->Execute("COMMIT WORK");
      } else {
        (void)s->Execute("ABORT WORK");
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(reader);
  for (int i = 0; i < kSlots; ++i) threads.emplace_back(writer, i);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  // Writers own disjoint slots and readers lock nothing: the storm must
  // not have produced a single lock conflict.
  EXPECT_EQ(db_->transactions().stats().lock_conflicts.load(),
            conflicts_before);

  // Quiesced: every chain retires once the last reader's pin is gone.
  access::VersionStore& versions = db_->access().versions();
  for (int i = 0; i < 1000 && !versions.Empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(versions.Empty());
}

// Version chains are volatile by design: a child process running snapshot
// readers against committing writers is SIGKILLed mid-storm; the parent
// reopens the database, restart recovery rolls losers back, and the new
// incarnation starts with an EMPTY version store and an intact pair
// invariant — no residue of the old incarnation's chains or pins.
// No fixture: the fork must happen while no database (and so no pool
// worker) is alive in this process, or a ThreadSanitizer build kills the
// child for starting threads after a multi-threaded fork.
TEST(MvccCrashTest, CrashDriveWithSnapshotReadersLeavesNoResidue) {
  const TempDir temp("prima_mvcc_crash_");
  ASSERT_FALSE(temp.path().empty());
  const std::string& dir = temp.path();
  int ready_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: no gtest here; failures are exit codes ---
    ::close(ready_pipe[0]);
    PrimaOptions options;
    options.in_memory = false;
    options.path = dir;
    auto db_or = Prima::Open(std::move(options));
    if (!db_or.ok()) ::_exit(10);
    auto db = std::move(*db_or);
    auto boot = db->OpenSession();
    if (!boot->Execute(
                "CREATE ATOM_TYPE pair (pair_id: IDENTIFIER, num: INTEGER, "
                "stamp: CHAR_VAR) KEYS_ARE (num)")
             .ok()) {
      ::_exit(11);
    }
    for (int i = 0; i < 2; ++i) {
      if (!boot->Execute("INSERT pair (num = " + std::to_string(i) +
                         ", stamp = 'g0')")
               .ok()) {
        ::_exit(12);
      }
    }
    // Checkpoint the seeded state (catalog blobs persist at checkpoints,
    // not per-DDL); everything after this line is recovered from the WAL.
    if (!db->Flush().ok()) ::_exit(16);
    std::atomic<int> commits{0};
    std::thread writer([&db, &commits] {
      auto s = db->OpenSession();
      for (int g = 1;; ++g) {
        if (!s->Execute("BEGIN WORK").ok()) continue;
        const std::string stamp = "g" + std::to_string(g);
        const bool ok =
            s->Execute("MODIFY pair SET stamp = '" + stamp +
                       "' WHERE num = 0")
                .ok() &&
            s->Execute("MODIFY pair SET stamp = '" + stamp +
                       "' WHERE num = 1")
                .ok();
        if (ok && s->Execute("COMMIT WORK").ok()) {
          commits.fetch_add(1);
        } else {
          (void)s->Execute("ABORT WORK");
        }
      }
    });
    std::thread reader([&db] {
      auto s = db->OpenSession();
      for (;;) {
        auto r = s->Execute("SELECT ALL FROM pair");
        if (!r.ok()) continue;
        std::string s0, s1;
        for (const mql::Molecule& m : r->molecules.molecules) {
          const access::Atom& a = m.groups[0].atoms[0];
          (a.attrs[1].AsInt() == 0 ? s0 : s1) = a.attrs[2].AsString();
        }
        if (s0 != s1) ::_exit(13);  // torn snapshot: fail loudly pre-kill
      }
    });
    // Signal the parent once real MVCC traffic is flowing, then keep
    // storming until SIGKILL lands.
    while (commits.load() < 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    char byte = 1;
    if (::write(ready_pipe[1], &byte, 1) != 1) ::_exit(14);
    writer.join();  // never returns; the process dies by SIGKILL
    reader.join();
    ::_exit(0);
  }

  // --- parent ---
  ::close(ready_pipe[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);
  ::close(ready_pipe[0]);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  PrimaOptions options;
  options.in_memory = false;
  options.path = dir;
  auto db2 = Prima::Open(std::move(options));
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();

  // Zero residue: the version store of the new incarnation is empty before
  // any statement runs — recovery's compensations never install chains.
  const auto fresh = (*db2)->access().versions().StatsSnapshot();
  EXPECT_TRUE((*db2)->access().versions().Empty());
  EXPECT_EQ(fresh.versions_installed, 0u);
  EXPECT_EQ(fresh.snapshots_active, 0u);

  // The recovered state is a committed generation: both atoms of the pair
  // carry the same stamp.
  auto s = (*db2)->OpenSession();
  auto cursor = s->Query("SELECT ALL FROM pair");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::string s0, s1;
  size_t atoms = 0;
  for (;;) {
    auto next = cursor->Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    const access::Atom& a = (*next)->groups[0].atoms[0];
    (a.attrs[1].AsInt() == 0 ? s0 : s1) = a.attrs[2].AsString();
    ++atoms;
  }
  EXPECT_EQ(atoms, 2u);
  EXPECT_EQ(s0, s1);
}

}  // namespace
}  // namespace prima::core
