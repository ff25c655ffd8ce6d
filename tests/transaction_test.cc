#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "workloads/brep.h"

namespace prima::core {
namespace {

using access::AttrValue;
using access::Tid;
using access::Value;

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Prima::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    workloads::BrepWorkload brep(db_.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    solid_def_ = db_->access().catalog().FindAtomType("solid");
    ASSERT_NE(solid_def_, nullptr);
  }

  util::Result<Tid> InsertSolid(Transaction* txn, int64_t no) {
    return txn->InsertAtom(
        solid_def_->id,
        {AttrValue{1, Value::Int(no)},
         AttrValue{2, Value::String("s" + std::to_string(no))}});
  }

  /// A solid's description as a fresh one-shot query reads it.
  std::string Description(int64_t no) {
    auto r = db_->Query("SELECT description FROM solid WHERE solid_no = " +
                        std::to_string(no));
    EXPECT_TRUE(r.ok() && r->size() == 1u);
    if (!r.ok() || r->size() != 1u) return "";
    return r->molecules[0].groups[0].atoms[0].attrs[2].AsString();
  }

  size_t CountSolids() {
    auto r = db_->Query("SELECT ALL FROM solid");
    EXPECT_TRUE(r.ok());
    return r->size();
  }

  std::unique_ptr<Prima> db_;
  const access::AtomTypeDef* solid_def_ = nullptr;
};

TEST_F(TransactionTest, CommitKeepsEffects) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(InsertSolid(*txn, 1).ok());
  ASSERT_TRUE((*txn)->Commit().ok());
  EXPECT_EQ(CountSolids(), 1u);
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

TEST_F(TransactionTest, AbortUndoesInsert) {
  auto txn = db_->Begin();
  ASSERT_TRUE(InsertSolid(*txn, 1).ok());
  ASSERT_TRUE((*txn)->Abort().ok());
  EXPECT_EQ(CountSolids(), 0u);
  // The key is reusable.
  auto txn2 = db_->Begin();
  ASSERT_TRUE(InsertSolid(*txn2, 1).ok());
  ASSERT_TRUE((*txn2)->Commit().ok());
  EXPECT_EQ(CountSolids(), 1u);
}

TEST_F(TransactionTest, AbortUndoesModify) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto txn = db_->Begin();
  ASSERT_TRUE(
      (*txn)->ModifyAtom(*tid, {AttrValue{2, Value::String("changed")}}).ok());
  ASSERT_TRUE((*txn)->Abort().ok());
  auto atom = db_->access().GetAtom(*tid);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->attrs[2].AsString(), "s1");
}

TEST_F(TransactionTest, AbortUndoesDeleteIncludingAssociations) {
  auto setup = db_->Begin();
  auto parent = InsertSolid(*setup, 1);
  auto child = InsertSolid(*setup, 2);
  const uint16_t sub = 3;
  ASSERT_TRUE((*setup)->Connect(*parent, sub, *child).ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto txn = db_->Begin();
  ASSERT_TRUE((*txn)->DeleteAtom(*parent).ok());
  // The base record is gone, but readers see only committed state.
  EXPECT_FALSE(db_->access().AtomExists(*parent));
  EXPECT_EQ(CountSolids(), 2u);
  ASSERT_TRUE((*txn)->Abort().ok());
  EXPECT_EQ(CountSolids(), 2u);
  // Symmetry fully restored: parent.sub contains child, child.super parent.
  auto parent_atom = db_->access().GetAtom(*parent);
  auto child_atom = db_->access().GetAtom(*child);
  EXPECT_TRUE(parent_atom->attrs[3].Contains(Value::Ref(*child)));
  EXPECT_TRUE(child_atom->attrs[4].Contains(Value::Ref(*parent)));
}

TEST_F(TransactionTest, SubtransactionCommitInheritsToParent) {
  auto txn = db_->Begin();
  auto child = (*txn)->BeginChild();
  ASSERT_TRUE(child.ok());
  auto tid = InsertSolid(*child, 5);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*child)->Commit().ok());
  // Parent aborts -> the committed child's effects roll back too (Moss).
  ASSERT_TRUE((*txn)->Abort().ok());
  EXPECT_EQ(CountSolids(), 0u);
}

TEST_F(TransactionTest, SelectiveSubtreeAbort) {
  auto txn = db_->Begin();
  ASSERT_TRUE(InsertSolid(*txn, 1).ok());
  auto child = (*txn)->BeginChild();
  ASSERT_TRUE(InsertSolid(*child, 2).ok());
  ASSERT_TRUE((*child)->Abort().ok());  // only the subtree rolls back
  ASSERT_TRUE((*txn)->Commit().ok());
  auto set = db_->Query("SELECT solid_no FROM solid");
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->size(), 1u);
  EXPECT_EQ(set->molecules[0].groups[0].atoms[0].attrs[1].AsInt(), 1);
}

TEST_F(TransactionTest, CommitBlockedByActiveChild) {
  auto txn = db_->Begin();
  auto child = (*txn)->BeginChild();
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE((*txn)->Commit().IsInvalidArgument());
  ASSERT_TRUE((*child)->Commit().ok());
  EXPECT_TRUE((*txn)->Commit().ok());
}

TEST_F(TransactionTest, WriteConflictBetweenSiblings) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE((*setup)->Commit().ok());

  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  ASSERT_TRUE(
      (*t1)->ModifyAtom(*tid, {AttrValue{2, Value::String("t1")}}).ok());
  auto st = (*t2)->ModifyAtom(*tid, {AttrValue{2, Value::String("t2")}});
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_GE(db_->transactions().stats().lock_conflicts.load(), 1u);
  ASSERT_TRUE((*t1)->Commit().ok());
  // After t1 released its locks, t2 proceeds.
  ASSERT_TRUE(
      (*t2)->ModifyAtom(*tid, {AttrValue{2, Value::String("t2")}}).ok());
  ASSERT_TRUE((*t2)->Commit().ok());
}

TEST_F(TransactionTest, ReadersDoNotConflict) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE((*setup)->Commit().ok());

  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  EXPECT_TRUE((*t1)->GetAtom(*tid).ok());
  EXPECT_TRUE((*t2)->GetAtom(*tid).ok());
  // But a writer now conflicts with the other reader.
  auto st = (*t1)->ModifyAtom(*tid, {AttrValue{2, Value::String("x")}});
  EXPECT_TRUE(st.IsConflict());
  ASSERT_TRUE((*t1)->Commit().ok());
  ASSERT_TRUE((*t2)->Commit().ok());
}

TEST_F(TransactionTest, ChildMayUseParentLocks) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE((*setup)->Commit().ok());

  auto parent = db_->Begin();
  ASSERT_TRUE(
      (*parent)->ModifyAtom(*tid, {AttrValue{2, Value::String("p")}}).ok());
  // Moss's rule: the child may acquire a lock its ancestor holds.
  auto child = (*parent)->BeginChild();
  ASSERT_TRUE(
      (*child)->ModifyAtom(*tid, {AttrValue{2, Value::String("c")}}).ok());
  ASSERT_TRUE((*child)->Commit().ok());
  ASSERT_TRUE((*parent)->Commit().ok());
  auto atom = db_->access().GetAtom(*tid);
  EXPECT_EQ(atom->attrs[2].AsString(), "c");
}

TEST_F(TransactionTest, NestedAbortRestoresIntermediateState) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE((*setup)->Commit().ok());

  auto parent = db_->Begin();
  ASSERT_TRUE(
      (*parent)->ModifyAtom(*tid, {AttrValue{2, Value::String("parent")}}).ok());
  auto child = (*parent)->BeginChild();
  ASSERT_TRUE(
      (*child)->ModifyAtom(*tid, {AttrValue{2, Value::String("child")}}).ok());
  ASSERT_TRUE((*child)->Abort().ok());
  // The child's change is gone; the parent's survives — for the parent,
  // which reads its own writes. Other readers still see the committed s1.
  auto atom = (*parent)->GetAtom(*tid);
  ASSERT_TRUE(atom.ok()) << atom.status().ToString();
  EXPECT_EQ(atom->attrs[2].AsString(), "parent");
  EXPECT_EQ(db_->access().GetAtom(*tid)->attrs[2].AsString(), "s1");
  ASSERT_TRUE((*parent)->Commit().ok());
}

// A subtransaction abort publishes its own chain entries before its locks
// drop. Left pending until the root ends, the aborted entry sat in front
// of the next writer's: every reader resolved the atom to the aborted
// write's before-image, hiding a committed value.
TEST_F(TransactionTest, ChildAbortDoesNotHideALaterCommit) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto root = db_->Begin();
  ASSERT_TRUE(InsertSolid(*root, 2).ok());
  auto child = (*root)->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(
      (*child)->ModifyAtom(*tid, {AttrValue{2, Value::String("child")}}).ok());
  ASSERT_TRUE((*child)->Abort().ok());

  auto other = db_->Begin();
  ASSERT_TRUE(
      (*other)->ModifyAtom(*tid, {AttrValue{2, Value::String("other")}}).ok());
  ASSERT_TRUE((*other)->Commit().ok());
  EXPECT_EQ(Description(1), "other");  // while the root is still open

  ASSERT_TRUE((*root)->Commit().ok());
  EXPECT_EQ(Description(1), "other");
  EXPECT_EQ(CountSolids(), 2u);
  EXPECT_TRUE(db_->access().versions().Empty());
}

// A child abort publishes exactly its own entries, not every pending entry
// of the root on the same atom: the root's x -> y stays pending, so an
// outside reader still sees x while the root reads its own y.
TEST_F(TransactionTest, ChildAbortPublishesOnlyItsOwnEntries) {
  auto setup = db_->Begin();
  auto tid = InsertSolid(*setup, 1);  // description "s1": x
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto root = db_->Begin();
  ASSERT_TRUE(
      (*root)->ModifyAtom(*tid, {AttrValue{2, Value::String("y")}}).ok());
  auto child = (*root)->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(
      (*child)->ModifyAtom(*tid, {AttrValue{2, Value::String("z")}}).ok());
  ASSERT_TRUE((*child)->Abort().ok());

  EXPECT_EQ(Description(1), "s1");
  EXPECT_EQ(db_->access().GetAtom(*tid)->attrs[2].AsString(), "s1");
  auto own = (*root)->GetAtom(*tid);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_EQ(own->attrs[2].AsString(), "y");

  ASSERT_TRUE((*root)->Abort().ok());
  auto base = db_->access().GetBaseAtom(*tid);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->attrs[2].AsString(), "s1");
  EXPECT_EQ(Description(1), "s1");
  EXPECT_TRUE(db_->access().versions().Empty());
}

TEST_F(TransactionTest, OperationsOnFinishedTransactionFail) {
  auto txn = db_->Begin();
  ASSERT_TRUE((*txn)->Commit().ok());
  EXPECT_TRUE(InsertSolid(*txn, 9).status().IsInvalidArgument());
  EXPECT_TRUE((*txn)->Commit().IsInvalidArgument());
  EXPECT_TRUE((*txn)->Abort().IsInvalidArgument());
}

TEST_F(TransactionTest, UndoRestoresSortOrderConsistency) {
  auto ldl = db_->ExecuteLdl("CREATE SORT ORDER s ON solid (solid_no)");
  ASSERT_TRUE(ldl.ok());
  auto setup = db_->Begin();
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(InsertSolid(*setup, i).ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto txn = db_->Begin();
  auto victim = db_->Query("SELECT ALL FROM solid WHERE solid_no = 3");
  ASSERT_TRUE(victim.ok());
  const Tid tid = victim->molecules[0].groups[0].atoms[0].tid;
  ASSERT_TRUE((*txn)->DeleteAtom(tid).ok());
  ASSERT_TRUE((*txn)->Abort().ok());
  ASSERT_TRUE(db_->access().DrainAll().ok());
  // The sort order still lists all five solids exactly once.
  access::BTree* tree = db_->access().BTreeFor(
      db_->access().catalog().FindStructure("s")->id);
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
}

// A write made straight through the access system, as the workload
// loaders make them, belongs to no transaction. A session that aborts its
// own inserts meanwhile must compensate only what it wrote: every direct
// insert survives, and no aborted one does.
TEST_F(TransactionTest, AbortLeavesConcurrentDirectWritesAlone) {
  std::atomic<bool> done{false};
  std::thread aborter([&] {
    auto session = db_->OpenSession();
    for (int i = 0; i < 300; ++i) {
      const util::Status begin = session->Execute("BEGIN WORK").status();
      const util::Status insert =
          session
              ->Execute("INSERT solid (solid_no = " +
                        std::to_string(1000000 + i) + ")")
              .status();
      const util::Status abort = session->Execute("ABORT WORK").status();
      EXPECT_TRUE(begin.ok() && insert.ok() && abort.ok())
          << begin.ToString() << " " << insert.ToString() << " "
          << abort.ToString();
      if (!begin.ok() || !insert.ok() || !abort.ok()) break;
    }
    done = true;
  });
  std::vector<Tid> inserted;
  while (!done.load() && inserted.size() < 100000) {
    auto tid = db_->access().InsertAtom(
        solid_def_->id,
        {AttrValue{1, Value::Int(static_cast<int64_t>(inserted.size()))}});
    if (!tid.ok()) {
      ADD_FAILURE() << tid.status().ToString();
      break;
    }
    inserted.push_back(*tid);
  }
  aborter.join();
  size_t lost = 0;
  for (const Tid& tid : inserted) {
    if (!db_->access().AtomExists(tid)) ++lost;
  }
  EXPECT_EQ(lost, 0u) << "of " << inserted.size() << " direct inserts";
  EXPECT_EQ(CountSolids(), inserted.size());
  EXPECT_EQ(db_->transactions().LockedAtomCount(), 0u);
}

}  // namespace
}  // namespace prima::core
