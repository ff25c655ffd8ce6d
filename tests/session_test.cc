// Session & prepared-statement API tests: transactional MQL
// (BEGIN/COMMIT/ABORT WORK, auto-commit statement atomicity), parameter
// binding with plan reuse, streaming molecule cursors, and the
// crash-mid-DML regression the implicit statement transaction closes.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "recovery/crash_device.h"
#include "workloads/brep.h"

namespace prima::core {
namespace {

using access::Value;
using mql::ExecResult;
using mql::MoleculeCursor;
using mql::MoleculeSet;

class SessionTest : public ::testing::Test {
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

  size_t CountParts(Session* s) {
    auto r = s->Execute("SELECT ALL FROM part");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->molecules.size();
  }

  std::string PartName(Session* s, int64_t no) {
    auto r = s->Execute("SELECT ALL FROM part WHERE part_no = " +
                        std::to_string(no));
    EXPECT_TRUE(r.ok());
    if (!r.ok() || r->molecules.empty()) return "<missing>";
    return r->molecules.molecules[0].groups[0].atoms[0].attrs[2].AsString();
  }

  std::unique_ptr<Prima> db_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------------------
// Transaction scoping
// ---------------------------------------------------------------------------

TEST_F(SessionTest, DmlAutoCommitsOutsideTransaction) {
  EXPECT_FALSE(session_->in_transaction());
  ASSERT_TRUE(InsertPart(session_.get(), 1, "gear", 2.5).ok());
  EXPECT_EQ(session_->transaction_depth(), 0u);
  EXPECT_EQ(CountParts(session_.get()), 1u);
  // The implicit transaction committed and released everything.
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(SessionTest, CommitWorkKeepsEffects) {
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  EXPECT_EQ(session_->transaction_depth(), 1u);
  ASSERT_TRUE(InsertPart(session_.get(), 1, "gear", 2.5).ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "axle", 1.0).ok());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  EXPECT_EQ(session_->transaction_depth(), 0u);
  EXPECT_EQ(CountParts(session_.get()), 2u);
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(SessionTest, AbortWorkLeavesNoTrace) {
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 1, "gear", 2.5).ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "axle", 1.0).ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  EXPECT_EQ(CountParts(session_.get()), 0u);
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(SessionTest, AbortWorkRestoresModifiedState) {
  ASSERT_TRUE(InsertPart(session_.get(), 7, "original", 1.0).ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  auto mod = session_->Execute(
      "MODIFY part SET name = 'changed' WHERE part_no = 7");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(PartName(session_.get(), 7), "changed");
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  EXPECT_EQ(PartName(session_.get(), 7), "original");
}

TEST_F(SessionTest, NestedBeginWorkIsSelective) {
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 1, "outer", 1.0).ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  EXPECT_EQ(session_->transaction_depth(), 2u);
  ASSERT_TRUE(InsertPart(session_.get(), 2, "inner", 2.0).ok());
  // Inner abort rolls back only the subtransaction's insert.
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  EXPECT_EQ(session_->transaction_depth(), 1u);
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  EXPECT_EQ(CountParts(session_.get()), 1u);
  EXPECT_EQ(PartName(session_.get(), 1), "outer");
}

TEST_F(SessionTest, NestedCommitInheritsToParentAbort) {
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 1, "inner", 1.0).ok());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());  // child commits...
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());   // ...parent aborts all
  EXPECT_EQ(CountParts(session_.get()), 0u);
}

TEST_F(SessionTest, CommitAbortOutsideTransactionFail) {
  EXPECT_TRUE(session_->Execute("COMMIT WORK").status().IsInvalidArgument());
  EXPECT_TRUE(session_->Execute("ABORT WORK").status().IsInvalidArgument());
}

// The one-shot facade's session ends with the call, and a transaction
// with it: transaction control needs a session the caller holds.
TEST_F(SessionTest, FacadeRefusesTransactionControl) {
  for (const char* text :
       {"BEGIN WORK", "BEGIN WORK READ ONLY", "COMMIT WORK", "ABORT WORK"}) {
    const util::Status st = db_->Execute(text).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << text << ": " << st.ToString();
    EXPECT_NE(st.message().find("Prima::OpenSession"), std::string::npos)
        << text << ": " << st.ToString();
  }
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

// Every transaction repeats its BEGIN and COMMIT, so transaction control is
// compiled once per text and then served from the statement cache.
TEST_F(SessionTest, TransactionControlIsCompiledOncePerText) {
  mql::StatementCache& cache = db_->data().statement_cache();
  const uint64_t misses = cache.misses();
  const uint64_t hits = cache.hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
    ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  }
  EXPECT_EQ(cache.misses(), misses + 2) << "one miss per text";
  EXPECT_EQ(cache.hits(), hits + 18);

  // READ ONLY is its own text, so its own entry: the cached plain BEGIN
  // does not make it writable, nor does it make plain BEGIN read-only.
  const size_t entries = cache.size();
  ASSERT_TRUE(session_->Execute("BEGIN WORK READ ONLY").ok());
  EXPECT_EQ(cache.size(), entries + 1);
  EXPECT_TRUE(InsertPart(session_.get(), 1, "ro", 1.0).IsInvalidArgument());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "rw", 1.0).ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  EXPECT_EQ(CountParts(session_.get()), 0u);

  // A cached compile changes no refusal.
  EXPECT_FALSE(session_->Execute("EXPLAIN ANALYZE BEGIN WORK").ok());
  EXPECT_TRUE(db_->Execute("BEGIN WORK").status().IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("COMMIT WORK").status().IsInvalidArgument());
}

// Each facade call runs in a session of its own, so threads share nothing
// but the database: four threads mix auto-commit DML, queries, and one DML
// statement each that fails after it wrote, whose rollback invalidates the
// cursors of the call's session.
TEST_F(SessionTest, FacadeCallsFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      const int64_t base = (t + 1) * 1000;
      const std::string range =
          " WHERE part_no >= " + std::to_string(base) +
          " AND part_no < " + std::to_string(base + kRounds);
      for (int i = 0; i < kRounds; ++i) {
        const std::string no = std::to_string(base + i);
        auto inserted = db_->Execute("INSERT part (part_no = " + no +
                                     ", name = 'new', weight = 1.0)");
        ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
        auto renamed = db_->Execute(
            "MODIFY part SET name = 'renamed' WHERE part_no = " + no);
        ASSERT_TRUE(renamed.ok()) << renamed.status().ToString();
        EXPECT_EQ(renamed->count, 1u);
        auto got = db_->Query("SELECT ALL FROM part WHERE part_no = " + no);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->size(), 1u);
        EXPECT_EQ(got->molecules[0].groups[0].atoms[0].attrs[2].AsString(),
                  "renamed");
      }
      // Renumbers the first part, then meets the key it just took on the
      // second: the statement fails and compensates its first write.
      auto clash = db_->Execute("MODIFY part SET part_no = " +
                                std::to_string(base + 999) + range);
      EXPECT_TRUE(clash.status().IsConstraint()) << clash.status().ToString();
      auto all = db_->Query("SELECT ALL FROM part" + range);
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(all->size(), static_cast<size_t>(kRounds));
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(CountParts(session_.get()), static_cast<size_t>(kThreads * kRounds));
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(SessionTest, SessionDestructionRollsBackOpenTransaction) {
  auto other = db_->OpenSession();
  ASSERT_TRUE(other->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(other.get(), 1, "doomed", 1.0).ok());
  other.reset();  // vanishing client
  EXPECT_EQ(CountParts(session_.get()), 0u);
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(SessionTest, TwoSessionsAreIsolated) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "shared", 1.0).ok());
  auto s2 = db_->OpenSession();

  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(session_
                  ->Execute("MODIFY part SET name = 's1' WHERE part_no = 1")
                  .ok());
  // s2's statement conflicts on the write lock and — running in its own
  // implicit transaction — rolls back cleanly.
  auto st = s2->Execute("MODIFY part SET name = 's2' WHERE part_no = 1");
  EXPECT_TRUE(st.status().IsConflict()) << st.status().ToString();
  // s2 reads without locks, through a committed view: the uncommitted s1
  // value stays invisible to it.
  EXPECT_EQ(PartName(s2.get(), 1), "shared");

  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  // Locks released: s2 can now update.
  ASSERT_TRUE(
      s2->Execute("MODIFY part SET name = 's2' WHERE part_no = 1").ok());
  EXPECT_EQ(PartName(session_.get(), 1), "s2");
}

TEST_F(SessionTest, FailedStatementInsideTransactionCompensatesItselfOnly) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "a", 1.0).ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "b", 2.0).ok());

  // s2 locks part 2 so the multi-atom MODIFY below succeeds on part 1 and
  // then conflicts on part 2: the statement's subtransaction must undo its
  // partial effect on part 1, while s1's surrounding transaction survives.
  auto s2 = db_->OpenSession();
  ASSERT_TRUE(s2->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      s2->Execute("MODIFY part SET weight = 9.0 WHERE part_no = 2").ok());

  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 3, "c", 3.0).ok());
  auto st = session_->Execute("MODIFY part SET name = 'touched'");
  EXPECT_TRUE(st.status().IsConflict()) << st.status().ToString();
  EXPECT_EQ(PartName(session_.get(), 1), "a") << "partial effect must undo";
  // The surrounding transaction is still open and commits its own work.
  EXPECT_TRUE(session_->in_transaction());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  EXPECT_EQ(CountParts(session_.get()), 3u);
  ASSERT_TRUE(s2->Execute("ABORT WORK").ok());
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST_F(SessionTest, PreparedSelectPlansOnceAcrossExecutions) {
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", i * 1.0).ok());
  }
  auto stmt = session_->Prepare("SELECT ALL FROM part WHERE weight > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(db_->data().stats().statements_prepared.load(), 1u);
  ASSERT_TRUE(stmt->Bind(0, Value::Real(4.5)).ok());
  for (int n = 0; n < 5; ++n) {
    auto r = stmt->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->molecules.size(), 4u);
  }
  EXPECT_EQ(stmt->executions(), 5u);
  EXPECT_EQ(stmt->plans_computed(), 1u)
      << "same binding must reuse the plan across executions";
  EXPECT_EQ(db_->data().stats().prepared_plans.load(), 1u);
  EXPECT_EQ(db_->data().stats().prepared_executions.load(), 5u);
}

TEST_F(SessionTest, EqKeyPlaceholderRebindsWithoutReplanning) {
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", 1.0).ok());
  }
  auto stmt = session_->Prepare("SELECT ALL FROM part WHERE part_no = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Int(2)).ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->molecules.size(), 1u);
  EXPECT_EQ(stmt->plans_computed(), 1u);
  // part_no is the KEYS_ARE key: the key-lookup plan holds the
  // placeholder's slot, and the lookup reads the bound value at open.
  EXPECT_EQ(r1->molecules.molecules[0].groups[0].atoms[0].attrs[1].AsInt(), 2);

  auto again = stmt->Execute();  // same binding: reuse
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(stmt->plans_computed(), 1u);

  ASSERT_TRUE(stmt->Bind(0, Value::Int(3)).ok());  // new key: same plan
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->molecules.size(), 1u);
  EXPECT_EQ(r2->molecules.molecules[0].groups[0].atoms[0].attrs[1].AsInt(), 3);
  EXPECT_EQ(stmt->plans_computed(), 1u);
}

// Each root access shape reads its operands from the bound values when the
// cursor opens: re-binding three times must give exactly what the same
// query gives run one-shot with the values written as literals, through the
// same access path and without a re-plan. The range and grid shapes bind
// INTEGER values to REAL attributes, which are coerced at open.
TEST_F(SessionTest, PreparedRootAccessShapesRebindLikeOneShotLiterals) {
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(
        InsertPart(session_.get(), i, "p" + std::to_string(i), i * 0.5).ok());
  }
  ASSERT_TRUE(db_->ExecuteLdl("CREATE ACCESS PATH part_weight ON part (weight)")
                  .ok());
  ASSERT_TRUE(session_
                  ->Execute("CREATE ATOM_TYPE cell (cell_id: IDENTIFIER, "
                            "x: REAL, y: REAL)")
                  .ok());
  for (int i = 0; i < 36; ++i) {
    ASSERT_TRUE(session_
                    ->Execute("INSERT cell (x = " + std::to_string(i % 6) +
                              ".0, y = " + std::to_string(i / 6) + ".0)")
                    .ok());
  }
  ASSERT_TRUE(
      db_->ExecuteLdl("CREATE ACCESS PATH cell_xy ON cell (x, y) USING GRID")
          .ok());

  struct Shape {
    std::string text;
    obs::Counter mql::DataStats::*access;
    std::vector<std::vector<Value>> bindings;
    std::vector<size_t> sizes;
  };
  const std::vector<Shape> shapes = {
      {"SELECT ALL FROM part WHERE part_no = ?",
       &mql::DataStats::key_lookups,
       {{Value::Int(2)}, {Value::Int(5)}, {Value::Int(13)}},
       {1, 1, 0}},
      {"SELECT ALL FROM part WHERE weight > ? AND weight <= ?",
       &mql::DataStats::access_path_scans,
       {{Value::Real(0.75), Value::Real(2.0)},
        {Value::Int(2), Value::Int(5)},
        {Value::Int(5), Value::Real(5.5)}},
       {3, 6, 1}},
      {"SELECT ALL FROM cell WHERE x >= ? AND y < ?",
       &mql::DataStats::grid_scans,
       {{Value::Real(4.0), Value::Real(2.0)},
        {Value::Int(1), Value::Int(1)},
        {Value::Real(0.5), Value::Int(6)}},
       {4, 5, 30}},
  };
  const auto literal = [](const Value& v) {
    if (v.kind() == Value::Kind::kInt) return std::to_string(v.AsInt());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v.AsReal());
    return std::string(buf);
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.text);
    auto stmt = session_->Prepare(shape.text);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    for (size_t b = 0; b < shape.bindings.size(); ++b) {
      const std::vector<Value>& values = shape.bindings[b];
      std::string one_shot;
      size_t next = 0;
      for (const char c : shape.text) {
        if (c == '?') {
          one_shot += literal(values[next]);
          ASSERT_TRUE(stmt->Bind(next, values[next]).ok());
          ++next;
        } else {
          one_shot += c;
        }
      }
      SCOPED_TRACE(one_shot);
      const uint64_t opens = (db_->data().stats().*shape.access).load();
      auto prepared = stmt->Execute();
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      EXPECT_EQ((db_->data().stats().*shape.access).load(), opens + 1)
          << "the prepared execution must use the planned access path";
      auto expected = session_->Execute(one_shot);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ((db_->data().stats().*shape.access).load(), opens + 2);
      EXPECT_EQ(prepared->molecules.size(), shape.sizes[b]);
      EXPECT_EQ(db_->data().Format(*prepared), db_->data().Format(*expected));
    }
    EXPECT_EQ(stmt->plans_computed(), 1u);
  }
}

TEST_F(SessionTest, NonRootPlaceholderNeverReplans) {
  workloads::BrepWorkload brep(db_.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(brep.BuildMany(100, 3).ok());
  // The placeholder qualifies the face COMPONENT, not the brep root: its
  // value lives only in the WHERE filter, so re-binding reuses the plan.
  auto stmt = session_->Prepare(
      "SELECT ALL FROM brep-face WHERE face.square_dim > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, Value::Real(0.5)).ok());
  auto wide = stmt->Execute();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, Value::Real(1.0e9)).ok());
  auto none = stmt->Execute();
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->molecules.size(), 0u);
  EXPECT_GE(wide->molecules.size(), none->molecules.size());
  EXPECT_EQ(stmt->plans_computed(), 1u)
      << "non-root placeholder re-binding must not re-plan";
}

TEST_F(SessionTest, PreparedPlanInvalidatedByDdl) {
  ASSERT_TRUE(session_
                  ->Execute("CREATE ATOM_TYPE gadget (g_id: IDENTIFIER, "
                            "num: INTEGER) KEYS_ARE (num)")
                  .ok());
  ASSERT_TRUE(session_->Execute("INSERT gadget (num = 7)").ok());
  auto stmt = session_->Prepare("SELECT ALL FROM gadget WHERE num = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Int(7)).ok());
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->molecules.size(), 1u);

  // DDL moves the schema: the cached plan embeds the dropped key index.
  // Executing with the SAME binding must re-plan (and fail cleanly on the
  // vanished type), never chase the stale structure id.
  ASSERT_TRUE(session_->Execute("DELETE ALL FROM gadget").ok());
  ASSERT_TRUE(session_->Execute("DROP ATOM_TYPE gadget").ok());
  auto gone = stmt->Execute();
  EXPECT_FALSE(gone.ok()) << "type is gone - must error, not crash";

  // Recreating the type heals the statement on the next execution: the
  // schema version moved again, so it re-plans against the new catalog.
  ASSERT_TRUE(session_
                  ->Execute("CREATE ATOM_TYPE gadget (g_id: IDENTIFIER, "
                            "num: INTEGER) KEYS_ARE (num)")
                  .ok());
  ASSERT_TRUE(session_->Execute("INSERT gadget (num = 7)").ok());
  auto back = stmt->Execute();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->molecules.size(), 1u);
  EXPECT_GE(stmt->plans_computed(), 2u);
}

// Two sessions preparing the same text share one compiled statement; each
// one's bindings travel beside it, so interleaved executions never see the
// other's values, and DDL heals both on their next execution.
TEST_F(SessionTest, SharedPreparedStatementAcrossSessions) {
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p" + std::to_string(i), 1.0)
                    .ok());
  }
  const std::string text = "SELECT ALL FROM part WHERE part_no = ?";
  auto other = db_->OpenSession();
  mql::StatementCache& cache = db_->data().statement_cache();
  const size_t entries = cache.size();
  const uint64_t hits = cache.hits();
  auto a = session_->Prepare(text);
  auto b = other->Prepare(text);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(cache.size(), entries + 1) << "one compile for both sessions";
  EXPECT_EQ(cache.hits(), hits + 1);
  ASSERT_TRUE(a->Bind(0, Value::Int(2)).ok());
  ASSERT_TRUE(b->Bind(0, Value::Int(7)).ok());

  const auto part_no = [](const mql::Molecule& m) {
    return m.groups[0].atoms[0].attrs[1].AsInt();
  };
  const auto expect_only = [&](PreparedStatement* stmt, int64_t no) {
    auto executed = stmt->Execute();
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    ASSERT_EQ(executed->molecules.size(), 1u);
    EXPECT_EQ(part_no(executed->molecules.molecules[0]), no);
    auto cursor = stmt->Query();
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto drained = cursor->Drain();
    ASSERT_TRUE(drained.ok());
    ASSERT_EQ(drained->size(), 1u);
    EXPECT_EQ(part_no(drained->molecules[0]), no);
  };
  expect_only(&*a, 2);
  expect_only(&*b, 7);
  ASSERT_TRUE(a->Bind(0, Value::Int(4)).ok());
  expect_only(&*b, 7);
  expect_only(&*a, 4);

  // DROP + CREATE moves the schema under both statements.
  ASSERT_TRUE(session_->Execute("DELETE ALL FROM part").ok());
  ASSERT_TRUE(session_->Execute("DROP ATOM_TYPE part").ok());
  ASSERT_TRUE(session_
                  ->Execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                            "part_no: INTEGER, name: CHAR_VAR, weight: REAL) "
                            "KEYS_ARE (part_no)")
                  .ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(InsertPart(other.get(), i, "q" + std::to_string(i), 2.0).ok());
  }
  expect_only(&*b, 7);
  expect_only(&*a, 4);
  EXPECT_EQ(a->plans_computed(), 2u);
  EXPECT_EQ(b->plans_computed(), 2u);
  EXPECT_EQ(PartName(session_.get(), 4), "q4");
}

// The threaded form of the above, for TSan: sessions on four threads run
// one shared compiled statement — queries and a DML statement — with
// disjoint keys.
TEST_F(SessionTest, SharedPreparedStatementAcrossSessionsThreaded) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 8;
  for (int i = 1; i <= kThreads * kKeysPerThread; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", 1.0).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto session = db_->OpenSession();
      auto select = session->Prepare("SELECT ALL FROM part WHERE part_no = ?");
      auto rename =
          session->Prepare("MODIFY part SET name = ? WHERE part_no = ?");
      ASSERT_TRUE(select.ok() && rename.ok());
      for (int round = 0; round < 3; ++round) {
        for (int k = 1; k <= kKeysPerThread; ++k) {
          const int64_t no = t * kKeysPerThread + k;
          const std::string name =
              "t" + std::to_string(t) + "r" + std::to_string(round);
          ASSERT_TRUE(rename->Bind(0, Value::String(name)).ok());
          ASSERT_TRUE(rename->Bind(1, Value::Int(no)).ok());
          auto renamed = rename->Execute();
          ASSERT_TRUE(renamed.ok()) << renamed.status().ToString();
          EXPECT_EQ(renamed->count, 1u);
          ASSERT_TRUE(select->Bind(0, Value::Int(no)).ok());
          MoleculeSet got;
          if (k % 2 == 0) {
            auto r = select->Execute();
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            got = std::move(r->molecules);
          } else {
            auto cursor = select->Query();
            ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
            auto drained = cursor->Drain();
            ASSERT_TRUE(drained.ok()) << drained.status().ToString();
            got = std::move(*drained);
          }
          ASSERT_EQ(got.size(), 1u);
          const auto& atom = got.molecules[0].groups[0].atoms[0];
          EXPECT_EQ(atom.attrs[1].AsInt(), no);
          EXPECT_EQ(atom.attrs[2].AsString(), name);
        }
      }
      EXPECT_EQ(select->plans_computed(), 1u);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST_F(SessionTest, PreparedBindingErrors) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "p", 1.0).ok());
  auto stmt = session_->Prepare(
      "SELECT ALL FROM part WHERE part_no = ? AND weight > :min");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->param_count(), 2u);

  // Unbound parameters are named in the error.
  auto r = stmt->Execute();
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("parameter 0"), std::string::npos);
  ASSERT_TRUE(stmt->Bind(0, Value::Int(1)).ok());
  r = stmt->Execute();
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find(":min"), std::string::npos);

  // Bind by name; out-of-range / unknown-name / empty-name binds are
  // refused (an empty name must not silently match a positional slot).
  EXPECT_TRUE(stmt->Bind("nope", Value::Int(0)).IsInvalidArgument());
  EXPECT_TRUE(stmt->Bind(5, Value::Int(0)).IsInvalidArgument());
  EXPECT_TRUE(stmt->Bind("", Value::Int(0)).IsInvalidArgument());
  ASSERT_TRUE(stmt->Bind("min", Value::Real(0.5)).ok());
  auto ok = stmt->Execute();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->molecules.size(), 1u);

  // ClearBindings really unbinds.
  stmt->ClearBindings();
  EXPECT_TRUE(stmt->Execute().status().IsInvalidArgument());
}

TEST_F(SessionTest, PreparedStatementsWithPlaceholdersMustBePrepared) {
  auto direct = session_->Execute("SELECT ALL FROM part WHERE part_no = ?");
  EXPECT_TRUE(direct.status().IsInvalidArgument());
  EXPECT_NE(direct.status().message().find("placeholder"), std::string::npos);
  // Every unprepared entry point refuses placeholders the same way — an
  // unbound slot would compare as null and silently qualify nothing.
  EXPECT_TRUE(session_->Query("SELECT ALL FROM part WHERE part_no = ?")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->QueryParallel("SELECT ALL FROM part WHERE part_no = ?")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SessionTest, PreparedInsertAndModifyBindPerExecution) {
  auto ins = session_->Prepare("INSERT part (part_no = ?, name = :n, "
                               "weight = ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(ins->Bind(0, Value::Int(i)).ok());
    ASSERT_TRUE(ins->Bind("n", Value::String("p" + std::to_string(i))).ok());
    ASSERT_TRUE(ins->Bind(2, Value::Real(i * 0.5)).ok());
    auto r = ins->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->kind, ExecResult::Kind::kTid);
  }
  EXPECT_EQ(CountParts(session_.get()), 10u);
  EXPECT_EQ(PartName(session_.get(), 7), "p7");

  auto mod = session_->Prepare(
      "MODIFY part SET name = :name WHERE part_no = :no");
  ASSERT_TRUE(mod.ok());
  ASSERT_TRUE(mod->Bind("name", Value::String("renamed")).ok());
  ASSERT_TRUE(mod->Bind("no", Value::Int(3)).ok());
  auto r = mod->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  EXPECT_EQ(PartName(session_.get(), 3), "renamed");
}

TEST_F(SessionTest, PreparedBindTypeMismatchSurfacesError) {
  auto ins = session_->Prepare("INSERT part (part_no = ?, name = ?)");
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->Bind(0, Value::String("not a number")).ok());
  ASSERT_TRUE(ins->Bind(1, Value::String("x")).ok());
  auto r = ins->Execute();
  EXPECT_FALSE(r.ok()) << "INTEGER attribute must reject a string binding";
  // The failed statement auto-rolled back: nothing inserted.
  EXPECT_EQ(CountParts(session_.get()), 0u);
}

// ---------------------------------------------------------------------------
// Streaming cursors
// ---------------------------------------------------------------------------

TEST_F(SessionTest, CursorDrainEqualsMaterializedQuery) {
  workloads::BrepWorkload brep(db_.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(brep.BuildMany(500, 6).ok());
  const std::string query =
      "SELECT ALL FROM brep-face-edge-point WHERE brep_no >= 500";

  // Reference: the one-shot facade, which drains the cursor of a session
  // of its own.
  auto materialized = db_->Query(query);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_GT(materialized->size(), 0u);

  auto cursor = session_->Query(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  MoleculeSet streamed;
  for (;;) {
    auto m = cursor->Next();
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    if (!m->has_value()) break;
    streamed.molecules.push_back(std::move(**m));
  }
  ASSERT_EQ(streamed.size(), materialized->size());
  // Element-for-element identical, including order and projections.
  EXPECT_EQ(streamed.ToString(db_->access().catalog()),
            materialized->ToString(db_->access().catalog()));

  // Independent of both paths: BuildMany(500, 6) numbers its breps
  // 500..505, the key scan returns them in ascending order, and every
  // molecule is a whole tetrahedron.
  const access::AtomTypeDef* brep_def =
      db_->access().catalog().FindAtomType("brep");
  ASSERT_NE(brep_def, nullptr);
  const uint16_t brep_no = brep_def->FindAttr("brep_no")->id;
  ASSERT_EQ(streamed.size(), 6u);
  for (size_t i = 0; i < streamed.size(); ++i) {
    const mql::Molecule& m = streamed.molecules[i];
    ASSERT_EQ(m.FindGroup("brep")->atoms.size(), 1u);
    EXPECT_EQ(m.FindGroup("brep")->atoms[0].attrs[brep_no].AsInt(),
              500 + static_cast<int64_t>(i));
    EXPECT_EQ(m.FindGroup("face")->atoms.size(), 4u);
    EXPECT_EQ(m.FindGroup("edge")->atoms.size(), 6u);
    EXPECT_EQ(m.FindGroup("point")->atoms.size(), 4u);
  }
}

TEST_F(SessionTest, CursorStreamsIncrementally) {
  // The cursor assembles nothing ahead of the Next() that returns it, so
  // the accounting below is exact, one molecule at a time.
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", 1.0).ok());
  }
  db_->data().stats().Reset();
  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok());
  // Opening only positions the root source — nothing is scanned into
  // memory and nothing is assembled yet.
  EXPECT_EQ(db_->data().stats().molecules_built.load(), 0u);
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(db_->data().stats().molecules_built.load(), 1u)
      << "Next() must assemble exactly one molecule";
  EXPECT_EQ(db_->data().stats().cursor_molecules.load(), 1u);
}

TEST_F(SessionTest, CursorEarlyCloseStopsStreaming) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", 1.0).ok());
  }
  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok());
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  cursor->Close();
  EXPECT_FALSE(cursor->open());
  auto after = cursor->Next();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->has_value()) << "a closed cursor reports drained";
  cursor->Close();  // idempotent
}

TEST_F(SessionTest, CursorInvalidatedBySessionAbort) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "keep", 1.0).ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "phantom", 2.0).ok());

  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok());

  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  auto next = cursor->Next();
  EXPECT_TRUE(next.status().IsAborted())
      << "the cursor would stream rolled-back atoms";
  EXPECT_FALSE(cursor->open());
  // Sticky: later pulls keep failing — the truncated stream must never
  // read as a cleanly completed one.
  EXPECT_TRUE(cursor->Next().status().IsAborted());
  EXPECT_TRUE(cursor->Drain().status().IsAborted());

  // A cursor opened AFTER the abort works normally.
  auto fresh = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(fresh.ok());
  auto set = fresh->Drain();
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
}

TEST_F(SessionTest, FailedValidationStatementKeepsCursorsAlive) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "a", 1.0).ok());
  ASSERT_TRUE(InsertPart(session_.get(), 2, "b", 2.0).ok());
  auto cursor = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor.ok());
  // Refused by validation before any mutation: the empty implicit
  // transaction's rollback compensated nothing, so the cursor lives.
  auto bad = session_->Execute("INSERT part (no_such_attr = 1)");
  ASSERT_FALSE(bad.ok());
  auto drained = cursor->Drain();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->size(), 2u);
  // An ABORT WORK of a transaction that never wrote keeps cursors too.
  auto cursor2 = session_->Query("SELECT ALL FROM part");
  ASSERT_TRUE(cursor2.ok());
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());
  EXPECT_TRUE(cursor2->Drain().ok());
}

TEST_F(SessionTest, PreparedCursorCountsAsQuery) {
  ASSERT_TRUE(InsertPart(session_.get(), 1, "p", 1.0).ok());
  auto stmt = session_->Prepare("SELECT ALL FROM part WHERE weight > ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Real(0.0)).ok());
  db_->data().stats().Reset();
  auto cursor = stmt->Query();
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(db_->data().stats().queries.load(), 1u)
      << "a prepared streaming query is still a query";
}

TEST_F(SessionTest, PreparedCursorSurvivesRebind) {
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(InsertPart(session_.get(), i, "p", i * 1.0).ok());
  }
  auto stmt = session_->Prepare("SELECT ALL FROM part WHERE weight > ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Real(3.5)).ok());
  auto cursor = stmt->Query();
  ASSERT_TRUE(cursor.ok());
  // Re-bind and re-execute while the first cursor is still open: the
  // cursor owns a clone of the bound query, so it keeps its own value.
  ASSERT_TRUE(stmt->Bind(0, Value::Real(5.5)).ok());
  auto second = stmt->Execute();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->molecules.size(), 1u);
  auto drained = cursor->Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 3u);
}

// ---------------------------------------------------------------------------
// Crash regression: the untransacted-DML gap (satellite). Before sessions,
// MQL DML hit the access system with no transaction at all; a crash mid
// multi-atom DELETE/MODIFY left untagged partial mutations that restart
// recovery could not attribute to any loser. Under the session API the
// implicit statement transaction brackets those mutations with
// begin/undo/commit records, so a commit force torn mid-transfer makes the
// statement a loser and recovery rolls it back ATOMICALLY.
// ---------------------------------------------------------------------------

class SessionCrashTest : public ::testing::Test {
 protected:
  static constexpr int kParts = 24;

  void Open() {
    if (inner_ == nullptr) {
      inner_ = std::make_shared<storage::MemoryBlockDevice>();
    }
    crash_ = std::make_shared<recovery::CrashingBlockDevice>(inner_);
    PrimaOptions options;
    options.device = crash_;
    auto db = Prima::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    session_ = db_->OpenSession();
  }

  void SeedCommitted() {
    ASSERT_TRUE(session_
                    ->Execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                              "part_no: INTEGER, name: CHAR_VAR)")
                    .ok());
    for (int i = 1; i <= kParts; ++i) {
      // Fat strings spread the statement's log records over several
      // blocks, so the torn chained write lands mid-statement.
      auto r = session_->Execute(
          "INSERT part (part_no = " + std::to_string(i) + ", name = '" +
          std::string(200, 'a') + "')");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  /// Drop the database stack with every further device write discarded
  /// (destructor checkpoint included) — the "power failure".
  void Crash() {
    crash_->CrashNow();
    session_.reset();
    db_.reset();
    crash_.reset();
  }

  void Reopen() {
    session_.reset();
    db_.reset();
    Open();
  }

  size_t Count() {
    auto r = session_->Execute("SELECT ALL FROM part");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->molecules.size() : 0;
  }

  std::shared_ptr<storage::MemoryBlockDevice> inner_;
  std::shared_ptr<recovery::CrashingBlockDevice> crash_;
  std::unique_ptr<Prima> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionCrashTest, TornCommitRollsBackMultiAtomModifyAtomically) {
  Open();
  SeedCommitted();
  // Let one block of the statement's commit force reach the device, then
  // tear the chained write: undo/redo records are (partially) durable,
  // the commit record is not.
  crash_->SetWriteBudget(1);
  (void)session_->Execute("MODIFY part SET name = 'mutated'");
  ASSERT_GT(crash_->dropped_blocks(), 0u) << "the force must actually tear";
  Crash();

  Reopen();
  ASSERT_EQ(Count(), size_t{kParts});
  auto r = session_->Execute("SELECT ALL FROM part WHERE name = 'mutated'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->molecules.size(), 0u)
      << "restart recovery must roll the implicit statement transaction "
         "back atomically - no partially mutated survivors";
}

TEST_F(SessionCrashTest, TornCommitRollsBackMultiAtomDeleteAtomically) {
  Open();
  SeedCommitted();
  crash_->SetWriteBudget(1);
  (void)session_->Execute("DELETE ALL FROM part");
  ASSERT_GT(crash_->dropped_blocks(), 0u) << "the force must actually tear";
  Crash();

  Reopen();
  EXPECT_EQ(Count(), size_t{kParts})
      << "every atom of the torn DELETE must come back";
}

// Verify-drive discovery (this PR): a B-tree root split updates the
// catalog's root pointer only in memory; the blob persists at checkpoints.
// A crash after the split left restart attaching the key index at its
// checkpoint-time root — every key that migrated above it vanished from
// eq-key lookups (scans still saw the atoms). The kStructRoot log record +
// RecoverStructureRoot fixup close the gap; this drives enough keyed
// inserts through the session to split the root leaf, crashes without a
// checkpoint, and probes every key through the index path.
TEST_F(SessionCrashTest, KeyIndexSurvivesCrashAfterRootSplit) {
  constexpr int kKeyed = 160;  // root leaf splits around 75 entries
  Open();
  ASSERT_TRUE(session_
                  ->Execute("CREATE ATOM_TYPE keyed (k_id: IDENTIFIER, "
                            "num: INTEGER, name: CHAR_VAR) KEYS_ARE (num)")
                  .ok());
  ASSERT_TRUE(db_->Flush().ok());  // catalog persists the PRE-SPLIT root
  auto ins = session_->Prepare("INSERT keyed (num = ?, name = 'v')");
  ASSERT_TRUE(ins.ok());
  for (int i = 0; i < kKeyed; ++i) {
    ASSERT_TRUE(ins->Bind(0, access::Value::Int(i)).ok());
    ASSERT_TRUE(ins->Execute().ok());
  }
  Crash();  // destructor checkpoint dropped: the catalog blob stays stale

  Reopen();
  auto probe = session_->Prepare("SELECT ALL FROM keyed WHERE num = ?");
  ASSERT_TRUE(probe.ok());
  for (int i = 0; i < kKeyed; ++i) {
    ASSERT_TRUE(probe->Bind(0, access::Value::Int(i)).ok());
    auto r = probe->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->molecules.size(), 1u)
        << "key " << i << " unreachable: stale index root after recovery";
  }
  EXPECT_GT(db_->data().stats().key_lookups.load(), 0u)
      << "the probes must actually exercise the key-lookup path";
}

TEST_F(SessionCrashTest, CommittedWorkSurvivesCrashAbortedLeavesNoTrace) {
  Open();
  SeedCommitted();

  // BEGIN WORK; INSERT; ABORT WORK — then crash: no trace.
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      session_->Execute("INSERT part (part_no = 900, name = 'ghost')").ok());
  ASSERT_TRUE(session_->Execute("ABORT WORK").ok());

  // BEGIN WORK; INSERT; COMMIT WORK — then crash: survives (the commit
  // force made it durable before the plug pulled).
  ASSERT_TRUE(session_->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      session_->Execute("INSERT part (part_no = 901, name = 'kept')").ok());
  ASSERT_TRUE(session_->Execute("COMMIT WORK").ok());
  Crash();

  Reopen();
  EXPECT_EQ(Count(), size_t{kParts + 1});
  auto ghost = session_->Execute("SELECT ALL FROM part WHERE part_no = 900");
  ASSERT_TRUE(ghost.ok());
  EXPECT_EQ(ghost->molecules.size(), 0u);
  auto kept = session_->Execute("SELECT ALL FROM part WHERE part_no = 901");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->molecules.size(), 1u);
}

}  // namespace
}  // namespace prima::core
