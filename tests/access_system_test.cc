#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "access/access_system.h"
#include "access/scan.h"
#include "recovery/crash_device.h"

namespace prima::access {

/// Holds the write mutex of an access system, as a writer does for the
/// whole of an atom operation.
class AccessSystemTestPeer {
 public:
  static std::mutex& WriteMutex(AccessSystem& access) {
    return access.write_mu_;
  }
};

namespace {

using storage::MemoryBlockDevice;
using storage::StorageSystem;

/// Schema: `part` with the recursive n:m subs/supers association and a 1:n
/// association to `comp` — a distilled version of the paper's solid schema.
class AccessSystemTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetDb(AccessOptions{}); }

  void ResetDb(AccessOptions options) {
    access_.reset();
    storage_ = std::make_unique<StorageSystem>(
        std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
    access_ = std::make_unique<AccessSystem>(storage_.get(), options);
    ASSERT_TRUE(access_->Open().ok());

    AtomTypeDef part;
    part.name = "part";
    part.attrs.push_back({"part_id", TypeDesc::Identifier(), 0});
    part.attrs.push_back({"part_no", TypeDesc::Integer(), 0});
    part.attrs.push_back({"name", TypeDesc::CharVar(), 0});
    part.attrs.push_back(
        {"subs", TypeDesc::SetOf(TypeDesc::RefTo("part", "supers")), 0});
    part.attrs.push_back(
        {"supers", TypeDesc::SetOf(TypeDesc::RefTo("part", "subs")), 0});
    part.attrs.push_back(
        {"comps", TypeDesc::SetOf(TypeDesc::RefTo("comp", "part")), 0});
    auto part_id = access_->CreateAtomType("part", part.attrs, {"part_no"});
    ASSERT_TRUE(part_id.ok()) << part_id.status().ToString();
    part_ = *part_id;

    AtomTypeDef comp;
    comp.attrs.push_back({"comp_id", TypeDesc::Identifier(), 0});
    comp.attrs.push_back({"weight", TypeDesc::Real(), 0});
    comp.attrs.push_back({"size", TypeDesc::Integer(), 0});
    comp.attrs.push_back({"part", TypeDesc::RefTo("part", "comps"), 0});
    Cardinality tags_card;
    tags_card.min = 0;
    tags_card.max = 3;
    tags_card.var_max = false;
    comp.attrs.push_back(
        {"tags", TypeDesc::SetOf(TypeDesc::CharVar(), tags_card), 0});
    auto comp_id = access_->CreateAtomType("comp", comp.attrs, {});
    ASSERT_TRUE(comp_id.ok()) << comp_id.status().ToString();
    comp_ = *comp_id;
  }

  util::Result<Tid> NewPart(int64_t no, WriteTxn txn = {}) {
    return access_->InsertAtom(
        part_,
        {AttrValue{1, Value::Int(no)},
         AttrValue{2, Value::String("p" + std::to_string(no))}},
        txn);
  }

  /// GetAtoms under a view pinned for the call.
  std::vector<Atom> ReadSet(const std::vector<Tid>& tids,
                            util::Status* missing = nullptr) {
    const auto pin = access_->versions().OpenSnapshot(0);
    std::vector<Atom> out;
    const util::Status st =
        access_->GetAtoms(tids, pin->view(), &out, {}, missing);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  static std::vector<Tid> TidsOf(const std::vector<Atom>& atoms) {
    std::vector<Tid> out;
    for (const Atom& a : atoms) out.push_back(a.tid);
    return out;
  }

  util::Result<Tid> NewComp(double weight, int64_t size, Tid part) {
    std::vector<AttrValue> values = {AttrValue{1, Value::Real(weight)},
                                     AttrValue{2, Value::Int(size)}};
    if (!part.IsNull()) values.push_back(AttrValue{3, Value::Ref(part)});
    return access_->InsertAtom(comp_, values);
  }

  std::unique_ptr<StorageSystem> storage_;
  std::unique_ptr<AccessSystem> access_;
  AtomTypeId part_ = 0;
  AtomTypeId comp_ = 0;
};

TEST(AccessSystemDestructorTest, DestructorWritesNothing) {
  // Durability is Flush()'s (or a checkpoint's) job: the access and
  // storage layers torn down after an insert drop its pages and metadata.
  // The shared device outlives the wrapper the layers own, so its counters
  // can be read after.
  auto device = std::make_shared<MemoryBlockDevice>();
  auto storage = std::make_unique<StorageSystem>(
      std::make_unique<recovery::CrashingBlockDevice>(device),
      storage::StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  auto access = std::make_unique<AccessSystem>(storage.get());
  ASSERT_TRUE(access->Open().ok());
  auto type = access->CreateAtomType(
      "part",
      {{"part_id", TypeDesc::Identifier(), 0},
       {"part_no", TypeDesc::Integer(), 0}},
      {"part_no"});
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  ASSERT_TRUE(access->InsertAtom(*type, {AttrValue{1, Value::Int(7)}}).ok());
  const uint64_t before = device->stats().blocks_written;
  access.reset();
  storage.reset();
  EXPECT_EQ(device->stats().blocks_written.load(), before);
}

TEST_F(AccessSystemTest, InsertAssignsIdentifier) {
  auto tid = NewPart(1);
  ASSERT_TRUE(tid.ok());
  auto atom = access_->GetAtom(*tid);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->tid, *tid);
  EXPECT_EQ(atom->attrs[0].AsTid(), *tid);  // IDENTIFIER == surrogate
  EXPECT_EQ(atom->attrs[1].AsInt(), 1);
  EXPECT_EQ(access_->AtomCount(part_), 1u);
}

TEST_F(AccessSystemTest, IdentifierCannotBeSupplied) {
  auto st = access_->InsertAtom(part_, {AttrValue{0, Value::Ref(Tid(1, 9))}});
  EXPECT_TRUE(st.status().IsInvalidArgument());
}

TEST_F(AccessSystemTest, KeyUniquenessEnforced) {
  ASSERT_TRUE(NewPart(7).ok());
  auto dup = NewPart(7);
  EXPECT_TRUE(dup.status().IsConstraint());
  // Different key fine.
  EXPECT_TRUE(NewPart(8).ok());
}

TEST_F(AccessSystemTest, InsertMaintainsBackReferences) {
  auto parent = NewPart(1);
  auto child = NewPart(2);
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(child.ok());
  // Connect parent.subs = {child} via modify.
  ASSERT_TRUE(access_
                  ->ModifyAtom(*parent, {AttrValue{3, Value::List({Value::Ref(
                                                       *child)})}})
                  .ok());
  auto child_atom = access_->GetAtom(*child);
  ASSERT_TRUE(child_atom.ok());
  EXPECT_TRUE(child_atom->attrs[4].Contains(Value::Ref(*parent)))
      << "back-reference supers must contain the parent";
}

TEST_F(AccessSystemTest, InsertWithRefsInstallsBackRefsImmediately) {
  auto p = NewPart(1);
  ASSERT_TRUE(p.ok());
  auto c = NewComp(1.5, 10, *p);
  ASSERT_TRUE(c.ok());
  auto part_atom = access_->GetAtom(*p);
  ASSERT_TRUE(part_atom.ok());
  EXPECT_TRUE(part_atom->attrs[5].Contains(Value::Ref(*c)));
}

TEST_F(AccessSystemTest, ScalarBackRefConflictIsConstraint) {
  auto p1 = NewPart(1);
  auto p2 = NewPart(2);
  auto c = NewComp(1.0, 1, *p1);
  ASSERT_TRUE(c.ok());
  // comp.part is scalar (1:n): connecting the comp into a second part's
  // comps set must fail (it would need two part values).
  const uint16_t comps_attr = 5;
  auto st = access_->Connect(*p2, comps_attr, *c);
  EXPECT_TRUE(st.IsConstraint()) << st.ToString();
}

TEST_F(AccessSystemTest, ModifyDiffConnectsAndDisconnects) {
  auto parent = NewPart(1);
  auto a = NewPart(2);
  auto b = NewPart(3);
  ASSERT_TRUE(access_
                  ->ModifyAtom(*parent,
                               {AttrValue{3, Value::List({Value::Ref(*a)})}})
                  .ok());
  // Replace {a} by {b}.
  ASSERT_TRUE(access_
                  ->ModifyAtom(*parent,
                               {AttrValue{3, Value::List({Value::Ref(*b)})}})
                  .ok());
  auto atom_a = access_->GetAtom(*a);
  auto atom_b = access_->GetAtom(*b);
  EXPECT_FALSE(atom_a->attrs[4].Contains(Value::Ref(*parent)));
  EXPECT_TRUE(atom_b->attrs[4].Contains(Value::Ref(*parent)));
}

TEST_F(AccessSystemTest, DeleteDisconnectsEverything) {
  auto parent = NewPart(1);
  auto child = NewPart(2);
  auto c = NewComp(2.0, 5, *parent);
  ASSERT_TRUE(access_->Connect(*parent, 3, *child).ok());
  ASSERT_TRUE(access_->DeleteAtom(*parent).ok());
  EXPECT_FALSE(access_->AtomExists(*parent));
  // Child lost its back reference; comp lost its part.
  auto child_atom = access_->GetAtom(*child);
  EXPECT_FALSE(child_atom->attrs[4].Contains(Value::Ref(*parent)));
  auto comp_atom = access_->GetAtom(*c);
  EXPECT_TRUE(comp_atom->attrs[3].is_null());
  // Key is free again.
  EXPECT_TRUE(NewPart(1).ok());
}

TEST_F(AccessSystemTest, ReferencedAtomMustExist) {
  auto ghost = Tid(part_, 424242);
  auto st = access_->InsertAtom(comp_, {AttrValue{3, Value::Ref(ghost)}});
  EXPECT_TRUE(st.status().IsConstraint());
}

TEST_F(AccessSystemTest, FailedInsertRollsBackBackRefs) {
  auto p = NewPart(1);
  ASSERT_TRUE(NewPart(7).ok());
  // This insert installs a back ref into p, then fails on the ghost ref.
  auto ghost = Tid(comp_, 99999);
  auto st = access_->InsertAtom(
      part_, {AttrValue{1, Value::Int(50)},
              AttrValue{3, Value::List({Value::Ref(*p)})},
              AttrValue{5, Value::List({Value::Ref(ghost)})}});
  EXPECT_FALSE(st.ok());
  auto p_atom = access_->GetAtom(*p);
  EXPECT_TRUE(p_atom->attrs[4].is_null() || p_atom->attrs[4].elems().empty())
      << "rolled-back insert must not leave a dangling back reference";
}

TEST_F(AccessSystemTest, CardinalityMaxEnforcedEagerly) {
  auto c = NewComp(1.0, 1, kNullTid);
  ASSERT_TRUE(c.ok());
  auto st = access_->ModifyAtom(
      *c, {AttrValue{4, Value::List({Value::String("a"), Value::String("b"),
                                     Value::String("c"), Value::String("d")})}});
  EXPECT_TRUE(st.IsConstraint());
}

TEST_F(AccessSystemTest, MinCardinalityViaCheckIntegrity) {
  AtomTypeDef strict;
  Cardinality card;
  card.min = 2;
  strict.attrs.push_back({"s_id", TypeDesc::Identifier(), 0});
  strict.attrs.push_back(
      {"vals", TypeDesc::SetOf(TypeDesc::Integer(), card), 0});
  auto id = access_->CreateAtomType("strict", strict.attrs, {});
  ASSERT_TRUE(id.ok());
  auto tid = access_->InsertAtom(
      *id, {AttrValue{1, Value::List({Value::Int(1)})}});
  ASSERT_TRUE(tid.ok());  // eager insert allows building up
  EXPECT_TRUE(access_->CheckIntegrity(*tid).IsConstraint());
  ASSERT_TRUE(access_
                  ->ModifyAtom(*tid, {AttrValue{1, Value::List({Value::Int(1),
                                                                Value::Int(2)})}})
                  .ok());
  EXPECT_TRUE(access_->CheckIntegrity(*tid).ok());
}

TEST_F(AccessSystemTest, ProjectionReadsOnlySelectedAttrs) {
  auto p = NewPart(5);
  auto atom = access_->GetAtom(*p, {1});
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->attrs[1].AsInt(), 5);
  EXPECT_TRUE(atom->attrs[2].is_null());  // name projected away
}

// ---------------------------------------------------------------------------
// Set-oriented reads (GetAtoms)
// ---------------------------------------------------------------------------

TEST_F(AccessSystemTest, GetAtomsReadsRepeatsOnceInFirstSeenOrder) {
  auto a = NewPart(1);
  auto b = NewPart(2);
  auto c = NewPart(3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint64_t reads = access_->stats().atoms_read.load();
  const std::vector<Atom> out = ReadSet({*b, *a, *b, *c, *a, *c});
  EXPECT_EQ(TidsOf(out), (std::vector<Tid>{*b, *a, *c}));
  EXPECT_EQ(access_->stats().atoms_read.load() - reads, 3u);
  EXPECT_EQ(out[0].attrs[2].AsString(), "p2");
}

TEST_F(AccessSystemTest, GetAtomsSkipsADeletedAtom) {
  auto a = NewPart(1);
  auto b = NewPart(2);
  auto c = NewPart(3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(access_->DeleteAtom(*b).ok());
  util::Status missing;
  const std::vector<Atom> out = ReadSet({*a, *b, *c}, &missing);
  EXPECT_EQ(TidsOf(out), (std::vector<Tid>{*a, *c}));
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();
  // The one-tid case reports what the set read leaves out.
  EXPECT_TRUE(access_->GetAtom(*b).status().IsNotFound());
}

// Atoms under an uncommitted writer resolve to their before-images: a
// modified atom to its old value, a deleted one to its pre-delete image,
// and an inserted one to nothing, until the writer commits.
TEST_F(AccessSystemTest, GetAtomsResolvesAnUncommittedWriterToBeforeImages) {
  auto a = NewPart(1);
  auto b = NewPart(2);
  auto c = NewPart(3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  std::vector<UndoRecord> writes;  // the uncommitted writer's record list
  const WriteTxn txn{/*id=*/42, &writes};
  const util::Status modified = access_->ModifyAtom(
      *b, {AttrValue{2, Value::String("changed")}}, txn);
  const util::Status deleted = access_->DeleteAtom(*c, txn);
  auto d = NewPart(4, txn);
  ASSERT_TRUE(modified.ok() && deleted.ok() && d.ok());

  util::Status missing;
  std::vector<Atom> out = ReadSet({*a, *b, *c, *d}, &missing);
  ASSERT_EQ(TidsOf(out), (std::vector<Tid>{*a, *b, *c}));
  EXPECT_EQ(out[1].attrs[2].AsString(), "p2");
  EXPECT_EQ(out[2].attrs[2].AsString(), "p3");
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();

  EXPECT_EQ(writes.size(), 3u);  // one record per write, each naming its entry
  access_->versions().Publish(writes, /*wal_lsn=*/0);  // commit
  out = ReadSet({*a, *b, *c, *d});
  ASSERT_EQ(TidsOf(out), (std::vector<Tid>{*a, *b, *d}));
  EXPECT_EQ(out[1].attrs[2].AsString(), "changed");
}

// A long record (a page sequence) is read alone, next to the atoms read by
// page; every atom counts as one read.
TEST_F(AccessSystemTest, GetAtomsMixesALongRecordIntoTheSet) {
  auto a = NewPart(1);
  auto big = access_->InsertAtom(
      part_, {AttrValue{1, Value::Int(2)},
              AttrValue{2, Value::String(std::string(10000, 'x'))}});
  auto c = NewPart(3);
  ASSERT_TRUE(a.ok() && big.ok() && c.ok());
  auto rid = access_->addresses().Lookup(*big, kBaseStructure);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(RecordId::Unpack(*rid).IsLong());
  const uint64_t reads = access_->stats().atoms_read.load();
  const uint64_t fallbacks = access_->stats().fetch_fallbacks.load();
  const std::vector<Atom> out = ReadSet({*c, *big, *a, *big});
  ASSERT_EQ(TidsOf(out), (std::vector<Tid>{*c, *big, *a}));
  EXPECT_EQ(out[1].attrs[2].AsString(), std::string(10000, 'x'));
  EXPECT_EQ(access_->stats().atoms_read.load() - reads, 3u);
  EXPECT_EQ(access_->stats().fetch_fallbacks.load() - fallbacks, 1u);
}

// A set spread over many pages fixes each page once, whatever the order of
// the tids, and returns the atoms in that order.
TEST_F(AccessSystemTest, GetAtomsFixesEachPageOfTheSetOnce) {
  std::vector<Tid> tids;
  std::set<uint32_t> pages;
  for (int i = 0; i < 200; ++i) {
    auto t = access_->InsertAtom(
        part_, {AttrValue{1, Value::Int(i + 1)},
                AttrValue{2, Value::String(std::string(200, 'a' + i % 26))}});
    ASSERT_TRUE(t.ok());
    tids.push_back(*t);
    auto rid = access_->addresses().Lookup(*t, kBaseStructure);
    ASSERT_TRUE(rid.ok());
    pages.insert(RecordId::Unpack(*rid).page);
  }
  ASSERT_GE(pages.size(), 8u);
  // Odd positions backwards, then even positions forwards: no page's atoms
  // are adjacent in the request.
  std::vector<Tid> level;
  for (size_t i = tids.size() - 1; i < tids.size(); i -= 2) level.push_back(tids[i]);
  for (size_t i = 0; i < tids.size(); i += 2) level.push_back(tids[i]);
  ASSERT_EQ(level.size(), tids.size());

  storage::BufferStats& buffer = storage_->buffer().stats();
  const uint64_t fixes = buffer.hits + buffer.misses;
  const uint64_t reads = access_->stats().atoms_read.load();
  const std::vector<Atom> out = ReadSet(level);
  EXPECT_EQ(buffer.hits + buffer.misses - fixes, pages.size());
  EXPECT_EQ(access_->stats().atoms_read.load() - reads, level.size());
  EXPECT_EQ(TidsOf(out), level);
}

// A relocating write frees the old slot (or lets another record take it)
// before it re-points the address table. A set read that looked the rid up
// in between finds the slot dead or holding another atom, reads that atom
// alone, waits out the write, and still returns it.
TEST_F(AccessSystemTest, GetAtomsFallsBackWhenARelocationFreesTheSlot) {
  auto moved = NewPart(1);   // its old slot is freed
  auto reused = NewPart(2);  // its old slot is taken by another atom
  auto other = NewPart(3);
  ASSERT_TRUE(moved.ok() && reused.ok() && other.ok());
  RecordFile* file = access_->BaseFile(part_);
  const auto rid_of = [&](const Tid& tid) {
    auto rid = access_->addresses().Lookup(tid, kBaseStructure);
    EXPECT_TRUE(rid.ok());
    return RecordId::Unpack(rid.ok() ? *rid : 0);
  };
  const auto bytes_of = [&](const Tid& tid, const std::string& name) {
    auto atom = access_->GetBaseAtom(tid);
    EXPECT_TRUE(atom.ok());
    if (!name.empty()) atom->attrs[2] = Value::String(name);
    std::string bytes;
    atom->EncodeInto(&bytes);
    return bytes;
  };
  const std::string grown(300, 'g');
  const std::string moved_bytes = bytes_of(*moved, grown);
  const std::string reused_bytes = bytes_of(*reused, grown);
  const std::string other_bytes = bytes_of(*other, "");

  // Hold the write mutex, as a writer does for its whole operation: the
  // half-done relocations below then look exactly like a writer's.
  std::unique_lock<std::mutex> writing(
      AccessSystemTestPeer::WriteMutex(*access_));

  // Each grown record is written elsewhere and its old slot freed or
  // overwritten, while the address table still names the old slot.
  auto moved_new = file->Insert(moved_bytes);
  auto reused_new = file->Insert(reused_bytes);
  EXPECT_TRUE(moved_new.ok() && reused_new.ok());
  EXPECT_TRUE(file->Delete(rid_of(*moved)).ok());
  auto overwritten = file->Update(rid_of(*reused), other_bytes);
  EXPECT_TRUE(overwritten.ok() && *overwritten == rid_of(*reused));

  const uint64_t fallbacks = access_->stats().fetch_fallbacks.load();
  std::vector<Atom> out;
  util::Status status;
  std::thread reader([&] {
    const auto pin = access_->versions().OpenSnapshot(0);
    status = access_->GetAtoms({*moved, *other, *reused}, pin->view(), &out);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (access_->stats().fetch_fallbacks.load() < fallbacks + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(access_->stats().fetch_fallbacks.load(), fallbacks + 2);
  // Finish the relocations, then end the write.
  EXPECT_TRUE(access_->addresses()
                  .UpdateEntry(*moved, kBaseStructure, moved_new->Pack())
                  .ok());
  EXPECT_TRUE(access_->addresses()
                  .UpdateEntry(*reused, kBaseStructure, reused_new->Pack())
                  .ok());
  writing.unlock();
  reader.join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(TidsOf(out), (std::vector<Tid>{*moved, *other, *reused}));
  EXPECT_EQ(out[0].attrs[2].AsString(), grown);
  EXPECT_EQ(out[1].attrs[2].AsString(), "p3");
  EXPECT_EQ(out[2].attrs[2].AsString(), grown);
}

// ---------------------------------------------------------------------------
// Partitions
// ---------------------------------------------------------------------------

TEST_F(AccessSystemTest, PartitionServesCoveredProjection) {
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(NewPart(i + 1).ok());
  auto sid = access_->CreatePartition("part_nos", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  const uint64_t before = access_->stats().partition_reads.load();
  auto atoms = access_->AllAtoms(part_);
  auto atom = access_->GetAtom(atoms[3], {1});
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(access_->stats().partition_reads.load(), before + 1);
  EXPECT_EQ(atom->attrs[1].AsInt(), 4);
  // Uncovered projection falls back to the base record.
  auto full = access_->GetAtom(atoms[3], std::vector<uint16_t>{1, 2});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(access_->stats().partition_reads.load(), before + 1);
  EXPECT_EQ(full->attrs[2].AsString(), "p4");
}

// A partition copy carries no versions: a covered projection comes from it
// only when the atom resolves to its current record. While the atom is
// under an uncommitted MODIFY (its chain entry pending) the copy would show
// the new value, so the read returns the before-image from the chain.
TEST_F(AccessSystemTest, PartitionServesOnlyAtomsWithNoPendingWrite) {
  auto p = NewPart(1);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(access_->CreatePartition("part_nos", "part", {"part_no"}).ok());
  const uint64_t before = access_->stats().partition_reads.load();
  auto quiet = access_->GetAtom(*p, {1});
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->attrs[1].AsInt(), 1);
  EXPECT_EQ(access_->stats().partition_reads.load(), before + 1);

  std::vector<UndoRecord> writes;  // writes tagged with a transaction chain
  const util::Status modified = access_->ModifyAtom(
      *p, {AttrValue{1, Value::Int(77)}}, {/*id=*/42, &writes});
  ASSERT_TRUE(modified.ok());
  auto busy = access_->GetAtom(*p, {1});
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->attrs[1].AsInt(), 1);
  EXPECT_TRUE(busy->attrs[2].is_null());  // the before-image is projected
  EXPECT_EQ(access_->stats().partition_reads.load(), before + 1);

  access_->versions().Publish(writes, /*wal_lsn=*/0);  // commit
  auto committed = access_->GetAtom(*p, {1});
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->attrs[1].AsInt(), 77);
  EXPECT_EQ(access_->stats().partition_reads.load(), before + 2);
}

TEST_F(AccessSystemTest, PartitionSeesDeferredModifications) {
  auto p = NewPart(1);
  auto sid = access_->CreatePartition("part_nos", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(access_->ModifyAtom(*p, {AttrValue{1, Value::Int(77)}}).ok());
  EXPECT_GT(access_->PendingCount(), 0u);  // propagation deferred
  auto atom = access_->GetAtom(*p, {1});   // read drains first
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->attrs[1].AsInt(), 77);
}

// ---------------------------------------------------------------------------
// Deferred update
// ---------------------------------------------------------------------------

TEST_F(AccessSystemTest, DeferredQueueGrowsAndDrains) {
  auto sid = access_->CreateSortOrder("parts_by_no", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(NewPart(i + 1).ok());
  EXPECT_EQ(access_->PendingCount(), 10u);
  ASSERT_TRUE(access_->DrainAll().ok());
  EXPECT_EQ(access_->PendingCount(), 0u);
  EXPECT_GE(access_->stats().deferred_applied.load(), 10u);
  // Sort order has all entries.
  BTree* tree = access_->BTreeFor(*sid);
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);
}

TEST_F(AccessSystemTest, ImmediateModeAppliesInline) {
  AccessOptions opts;
  opts.defer_updates = false;
  ResetDb(opts);
  auto sid = access_->CreateSortOrder("parts_by_no", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(NewPart(i + 1).ok());
  EXPECT_EQ(access_->PendingCount(), 0u);
  BTree* tree = access_->BTreeFor(*sid);
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
}

TEST_F(AccessSystemTest, DeferredDeleteCleansSortOrder) {
  auto sid = access_->CreateSortOrder("parts_by_no", "part", {"part_no"});
  auto p = NewPart(1);
  ASSERT_TRUE(access_->DeleteAtom(*p).ok());
  ASSERT_TRUE(access_->DrainAll().ok());
  BTree* tree = access_->BTreeFor(*sid);
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

// ---------------------------------------------------------------------------
// Atom clusters
// ---------------------------------------------------------------------------

TEST_F(AccessSystemTest, ClusterMaterializesAndReads) {
  auto p = NewPart(1);
  auto c1 = NewComp(1.0, 1, *p);
  auto c2 = NewComp(2.0, 2, *p);
  auto cid = access_->CreateAtomClusterType("part_cluster", "part", {"comps"});
  ASSERT_TRUE(cid.ok()) << cid.status().ToString();
  auto image = access_->ReadCluster(*cid, *p);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->characteristic.tid, *p);
  ASSERT_EQ(image->groups.size(), 1u);
  EXPECT_EQ(image->groups[0].first, comp_);
  EXPECT_EQ(image->groups[0].second.size(), 2u);
  (void)c1;
  (void)c2;
}

TEST_F(AccessSystemTest, ClusterFollowsMemberModification) {
  auto p = NewPart(1);
  auto c = NewComp(1.0, 1, *p);
  auto cid = access_->CreateAtomClusterType("part_cluster", "part", {"comps"});
  ASSERT_TRUE(cid.ok());
  ASSERT_TRUE(access_->ModifyAtom(*c, {AttrValue{2, Value::Int(42)}}).ok());
  auto image = access_->ReadCluster(*cid, *p);  // drains pending rebuild
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->groups[0].second[0].attrs[2].AsInt(), 42);
}

TEST_F(AccessSystemTest, ClusterFollowsMembershipChange) {
  auto p = NewPart(1);
  auto c1 = NewComp(1.0, 1, *p);
  auto cid = access_->CreateAtomClusterType("part_cluster", "part", {"comps"});
  ASSERT_TRUE(cid.ok());
  auto c2 = NewComp(2.0, 2, *p);  // joins the cluster via back-ref install
  auto image = access_->ReadCluster(*cid, *p);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->groups[0].second.size(), 2u);
  ASSERT_TRUE(access_->DeleteAtom(*c1).ok());
  auto image2 = access_->ReadCluster(*cid, *p);
  ASSERT_TRUE(image2.ok());
  ASSERT_EQ(image2->groups[0].second.size(), 1u);
  EXPECT_EQ(image2->groups[0].second[0].tid, *c2);
}

TEST_F(AccessSystemTest, FindCoveringCluster) {
  auto cid = access_->CreateAtomClusterType("part_cluster", "part", {"comps"});
  ASSERT_TRUE(cid.ok());
  EXPECT_NE(access_->FindCoveringCluster(part_, {comp_}), nullptr);
  EXPECT_EQ(access_->FindCoveringCluster(comp_, {part_}), nullptr);
  // A cluster over subs does not cover comp.
  EXPECT_EQ(access_->FindCoveringCluster(part_, {comp_})->id, *cid);
}

TEST_F(AccessSystemTest, DropStructureCleansUp) {
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(NewPart(i + 1).ok());
  auto sid = access_->CreatePartition("part_nos", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(access_->DropStructure("part_nos").ok());
  EXPECT_EQ(access_->catalog().FindStructure("part_nos"), nullptr);
  // Address entries purged.
  for (const Tid& t : access_->AllAtoms(part_)) {
    EXPECT_FALSE(access_->addresses().Lookup(t, *sid).ok());
  }
  EXPECT_TRUE(access_->DropStructure("part_nos").IsNotFound());
}

TEST_F(AccessSystemTest, BackfillCoversExistingAtoms) {
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(NewPart(i + 1).ok());
  auto sid = access_->CreateSortOrder("by_no", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  BTree* tree = access_->BTreeFor(*sid);
  auto count = tree->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
}

TEST_F(AccessSystemTest, PersistAndReopen) {
  auto p = NewPart(1);
  auto c = NewComp(3.5, 9, *p);
  auto sid = access_->CreatePartition("part_nos", "part", {"part_no"});
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(access_->Flush().ok());

  // A second AccessSystem over the same storage must see everything.
  AccessSystem reopened(storage_.get(), AccessOptions{});
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_NE(reopened.catalog().FindAtomType("part"), nullptr);
  EXPECT_NE(reopened.catalog().FindStructure("part_nos"), nullptr);
  auto atom = reopened.GetAtom(*p);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->attrs[1].AsInt(), 1);
  EXPECT_TRUE(atom->attrs[5].Contains(Value::Ref(*c)));
  // Fresh surrogates do not collide with pre-reopen ones.
  auto p2 = reopened.InsertAtom(part_, {AttrValue{1, Value::Int(2)}});
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p2->seq, p->seq);
}

TEST_F(AccessSystemTest, DropAtomTypeRemovesEverything) {
  auto p = NewPart(1);
  (void)p;
  ASSERT_TRUE(access_->CreatePartition("part_nos", "part", {"part_no"}).ok());
  ASSERT_TRUE(access_->DropAtomType("part").ok());
  EXPECT_EQ(access_->catalog().FindAtomType("part"), nullptr);
  EXPECT_EQ(access_->catalog().FindStructure("part_nos"), nullptr);
  EXPECT_EQ(access_->AtomCount(part_), 0u);
}

}  // namespace
}  // namespace prima::access
