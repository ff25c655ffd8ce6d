#include <gtest/gtest.h>

#include "core/prima.h"
#include "workloads/brep.h"

namespace prima::core {
namespace {

using access::Value;

class AppLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Prima::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    workloads::BrepWorkload brep(db_.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    ASSERT_TRUE(brep.BuildMany(1, 3).ok());
  }

  std::string Description(Session* s, int64_t solid_no) {
    auto r = s->Execute("SELECT ALL FROM solid WHERE solid_no = " +
                        std::to_string(solid_no));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->molecules.empty()) return "<missing>";
    return r->molecules.molecules[0].groups[0].atoms[0].attrs[2].AsString();
  }

  std::unique_ptr<Prima> db_;
};

TEST_F(AppLayerTest, CheckoutTransfersMolecules) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM brep-face WHERE brep_no = 2");
  ASSERT_TRUE(checkout.ok());
  EXPECT_EQ(checkout->molecules().size(), 1u);
  EXPECT_EQ(db_->object_buffer().stats().atoms_transferred.load(), 5u);
}

TEST_F(AppLayerTest, LocalEditThenCheckinWritesBack) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM brep-face WHERE brep_no = 2");
  ASSERT_TRUE(checkout.ok());
  // Application-side local processing on the object buffer.
  mql::MoleculeGroup* faces = checkout->molecules().molecules[0].FindGroup("face");
  ASSERT_NE(faces, nullptr);
  for (auto& f : faces->atoms) {
    f.attrs[1] = Value::Real(123.0);  // square_dim
  }
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 4u);
  // The host database sees the modification.
  auto set = db_->Query("SELECT ALL FROM brep-face WHERE brep_no = 2");
  ASSERT_TRUE(set.ok());
  for (const auto& f : set->molecules[0].FindGroup("face")->atoms) {
    EXPECT_DOUBLE_EQ(f.attrs[1].AsReal(), 123.0);
  }
}

TEST_F(AppLayerTest, UnmodifiedCheckinWritesNothing) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM brep-face WHERE brep_no = 1");
  ASSERT_TRUE(checkout.ok());
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 0u);
}

TEST_F(AppLayerTest, RepeatedCheckinOnlyWritesNewDiffs) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM solid WHERE solid_no = 1");
  ASSERT_TRUE(checkout.ok());
  auto* atom = &checkout->molecules().molecules[0].groups[0].atoms[0];
  atom->attrs[2] = Value::String("first");
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 1u);
  // Second checkin without further edits: no write.
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 1u);
  // Edit again, checkin again.
  atom->attrs[2] = Value::String("second");
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 2u);
  auto set = db_->Query("SELECT ALL FROM solid WHERE solid_no = 1");
  EXPECT_EQ(set->molecules[0].groups[0].atoms[0].attrs[2].AsString(), "second");
}

TEST_F(AppLayerTest, FindAtomLocatesCopies) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM brep-face WHERE brep_no = 3");
  ASSERT_TRUE(checkout.ok());
  const access::Tid tid =
      checkout->molecules().molecules[0].FindGroup("face")->atoms[2].tid;
  access::Atom* found = checkout->FindAtom(tid);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->tid, tid);
  EXPECT_EQ(checkout->FindAtom(access::Tid(99, 99)), nullptr);
}

TEST_F(AppLayerTest, CheckinMaintainsReferentialIntegrity) {
  // Editing an association attribute in the buffer rewires back-references
  // on checkin (the access system enforces symmetry on the diff write).
  auto s1 = db_->Query("SELECT ALL FROM solid WHERE solid_no = 1");
  auto s2 = db_->Query("SELECT ALL FROM solid WHERE solid_no = 2");
  const access::Tid t1 = s1->molecules[0].groups[0].atoms[0].tid;
  const access::Tid t2 = s2->molecules[0].groups[0].atoms[0].tid;

  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM solid WHERE solid_no = 1");
  ASSERT_TRUE(checkout.ok());
  auto* atom = &checkout->molecules().molecules[0].groups[0].atoms[0];
  atom->attrs[3] = Value::List({Value::Ref(t2)});  // sub = {solid 2}
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());

  auto child = db_->access().GetAtom(t2);
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(child->attrs[4].Contains(Value::Ref(t1)));  // super back-ref
}

// A checkin is a transaction: a READ ONLY view pinned before it keeps
// reading the pre-checkin value, because the write installs a version.
TEST_F(AppLayerTest, ReadOnlyViewPinnedBeforeCheckinKeepsOldValue) {
  auto reader = db_->OpenSession();
  const std::string before = Description(reader.get(), 1);
  ASSERT_TRUE(reader->Execute("BEGIN WORK READ ONLY").ok());
  EXPECT_EQ(Description(reader.get(), 1), before);

  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM solid WHERE solid_no = 1");
  ASSERT_TRUE(checkout.ok());
  checkout->molecules().molecules[0].groups[0].atoms[0].attrs[2] =
      Value::String("checked in");
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());

  EXPECT_EQ(Description(reader.get(), 1), before);
  ASSERT_TRUE(reader->Execute("COMMIT WORK").ok());
  EXPECT_EQ(Description(reader.get(), 1), "checked in");
}

// A checkin that meets another transaction's write lock fails as a whole:
// no atom is written, and the holder's abort restores the value the
// checkout read, not a half-applied checkin. The checkout stays intact, so
// the checkin can be retried once the lock is gone.
TEST_F(AppLayerTest, CheckinMeetingAHeldWriteLockWritesNothing) {
  auto probe = db_->OpenSession();
  const std::string before1 = Description(probe.get(), 1);
  const std::string before2 = Description(probe.get(), 2);
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM solid WHERE solid_no <= 2");
  ASSERT_TRUE(checkout.ok());
  ASSERT_EQ(checkout->molecules().size(), 2u);
  for (auto& m : checkout->molecules().molecules) {
    m.groups[0].atoms[0].attrs[2] = Value::String("checked in");
  }

  auto holder = db_->OpenSession();
  ASSERT_TRUE(holder->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      holder->Execute("MODIFY solid SET description = 'held' WHERE solid_no = 2")
          .ok());

  const util::Status st = db_->object_buffer().Checkin(&*checkout);
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 0u);
  EXPECT_EQ(Description(probe.get(), 1), before1);

  ASSERT_TRUE(holder->Execute("ABORT WORK").ok());
  EXPECT_EQ(Description(probe.get(), 1), before1);
  EXPECT_EQ(Description(probe.get(), 2), before2);

  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 2u);
  EXPECT_EQ(Description(probe.get(), 1), "checked in");
  EXPECT_EQ(Description(probe.get(), 2), "checked in");
}

// An atom that fails late in a checkin takes the earlier atoms' writes
// with it.
TEST_F(AppLayerTest, CheckinWhoseLaterAtomFailsWritesNone) {
  auto checkout = db_->object_buffer().CheckoutQuery(
      "SELECT ALL FROM brep-face WHERE brep_no = 2");
  ASSERT_TRUE(checkout.ok());
  mql::MoleculeGroup* faces =
      checkout->molecules().molecules[0].FindGroup("face");
  ASSERT_NE(faces, nullptr);
  ASSERT_EQ(faces->atoms.size(), 4u);
  const double before = faces->atoms[0].attrs[1].AsReal();
  faces->atoms[0].attrs[1] = Value::Real(77.0);
  faces->atoms[3].attrs[1] = Value::String("not a number");  // square_dim

  const util::Status st = db_->object_buffer().Checkin(&*checkout);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 0u);
  auto set = db_->Query("SELECT ALL FROM brep-face WHERE brep_no = 2");
  ASSERT_TRUE(set.ok());
  for (const auto& f : set->molecules[0].FindGroup("face")->atoms) {
    if (f.tid == faces->atoms[0].tid) {
      EXPECT_DOUBLE_EQ(f.attrs[1].AsReal(), before);
    }
  }

  faces->atoms[3].attrs[1] = Value::Real(78.0);
  ASSERT_TRUE(db_->object_buffer().Checkin(&*checkout).ok());
  EXPECT_EQ(db_->object_buffer().stats().atoms_written_back.load(), 2u);
}

}  // namespace
}  // namespace prima::core
