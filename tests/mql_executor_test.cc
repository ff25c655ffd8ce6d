#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "workloads/brep.h"

namespace prima::mql {
namespace {

/// End-to-end MQL on the paper's BREP database: 12 tetrahedra with
/// solid_no/brep_no 1700..1711 plus an assembly rooted at solid_no 4711.
class MqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = core::Prima::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    workloads::BrepWorkload brep(db_.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    auto solids = brep.BuildMany(1700, 12);
    ASSERT_TRUE(solids.ok()) << solids.status().ToString();
    solids_ = std::move(*solids);
    auto root = brep.BuildAssembly(4711, 2, 2);
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    assembly_root_ = *root;
  }

  MoleculeSet Q(const std::string& text) {
    auto r = db_->Query(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : MoleculeSet{};
  }

  std::unique_ptr<core::Prima> db_;
  std::vector<workloads::BrepWorkload::Solid> solids_;
  access::Tid assembly_root_;
};

// ---------------------------------------------------------------------------
// The four Table 2.1 queries, end to end.
// ---------------------------------------------------------------------------

TEST_F(MqlExecutorTest, Table21a_VerticalAccess) {
  MoleculeSet set = Q(
      "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1705");
  ASSERT_EQ(set.size(), 1u);
  const Molecule& m = set.molecules[0];
  // Tetrahedron: 1 brep + 4 faces + 6 edges + 4 points.
  EXPECT_EQ(m.FindGroup("brep")->atoms.size(), 1u);
  EXPECT_EQ(m.FindGroup("face")->atoms.size(), 4u);
  EXPECT_EQ(m.FindGroup("edge")->atoms.size(), 6u);
  EXPECT_EQ(m.FindGroup("point")->atoms.size(), 4u);
  EXPECT_EQ(m.AtomCount(), 15u);
}

TEST_F(MqlExecutorTest, Table21a_UsesKeyLookup) {
  db_->data().stats().Reset();
  Q("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1705");
  EXPECT_EQ(db_->data().stats().key_lookups.load(), 1u);
  EXPECT_EQ(db_->data().stats().atom_type_scans.load(), 0u);
}

TEST_F(MqlExecutorTest, Table21b_RecursiveMolecule) {
  MoleculeSet set =
      Q("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 4711");
  ASSERT_EQ(set.size(), 1u);
  const Molecule& m = set.molecules[0];
  // Binary assembly of depth 2: 1 + 2 + 4 solids.
  EXPECT_EQ(m.AtomCount(), 7u);
  ASSERT_EQ(m.levels.size(), 3u);
  EXPECT_EQ(m.levels[0].size(), 1u);
  EXPECT_EQ(m.levels[1].size(), 2u);
  EXPECT_EQ(m.levels[2].size(), 4u);
  EXPECT_EQ(m.levels[0][0], assembly_root_);
}

TEST_F(MqlExecutorTest, Table21c_HorizontalAccessWithProjection) {
  MoleculeSet set =
      Q("SELECT solid_no, description FROM solid WHERE sub = EMPTY");
  // All 12 tetrahedra plus the 4 assembly leaves (root and mid nodes have
  // subs, leaves do not; leaves are tetrahedra built by BuildAssembly).
  EXPECT_EQ(set.size(), 16u);
  for (const Molecule& m : set.molecules) {
    const access::Atom& atom = m.groups[0].atoms[0];
    EXPECT_FALSE(atom.attrs[1].is_null());  // solid_no kept
    EXPECT_FALSE(atom.attrs[2].is_null());  // description kept
    EXPECT_TRUE(atom.attrs[3].is_null());   // sub projected away
  }
}

TEST_F(MqlExecutorTest, Table21d_QuantifierAndQualifiedProjection) {
  MoleculeSet set = Q(
      "SELECT edge, (point, face := SELECT face_id, square_dim FROM face "
      "WHERE square_dim > 5.0E0) "
      "FROM brep-edge (face, point) "
      "WHERE brep_no = 1704 AND "
      "EXISTS_AT_LEAST (2) edge: edge.length > 1.0E0");
  ASSERT_EQ(set.size(), 1u);
  const Molecule& m = set.molecules[0];
  // brep itself is not selected.
  EXPECT_EQ(m.FindGroup("brep"), nullptr);
  EXPECT_EQ(m.FindGroup("edge")->atoms.size(), 6u);
  EXPECT_EQ(m.FindGroup("point")->atoms.size(), 4u);
  // Qualified projection filtered faces by square_dim and kept only
  // face_id + square_dim.
  const MoleculeGroup* faces = m.FindGroup("face");
  ASSERT_NE(faces, nullptr);
  EXPECT_LT(faces->atoms.size(), 4u);
  for (const access::Atom& f : faces->atoms) {
    EXPECT_GT(f.attrs[1].AsReal(), 5.0);  // square_dim qualified
    EXPECT_TRUE(f.attrs[2].is_null());    // border projected away
  }
}

TEST_F(MqlExecutorTest, Table21d_QuantifierCanReject) {
  // No edge is longer than 1000 -> the quantifier rejects every brep.
  MoleculeSet set = Q(
      "SELECT ALL FROM brep-edge "
      "WHERE EXISTS_AT_LEAST (2) edge: edge.length > 1.0E3");
  EXPECT_EQ(set.size(), 0u);
}

// ---------------------------------------------------------------------------
// Further query behaviour
// ---------------------------------------------------------------------------

TEST_F(MqlExecutorTest, SymmetricTraversalPointToFace) {
  // The inverse hierarchy of Fig. 2.1: start at a point, climb to faces.
  // Pick one point of solid 1700's brep.
  MoleculeSet down = Q("SELECT ALL FROM brep-point WHERE brep_no = 1700");
  ASSERT_EQ(down.size(), 1u);
  const access::Atom& point = down.molecules[0].FindGroup("point")->atoms[0];
  const int64_t pid = static_cast<int64_t>(point.tid.seq);
  MoleculeSet up = Q("SELECT ALL FROM point-edge-face WHERE point_id = @" +
                     std::to_string(point.tid.type) + ":" +
                     std::to_string(pid));
  ASSERT_EQ(up.size(), 1u);
  const Molecule& m = up.molecules[0];
  // A tetrahedron vertex meets 3 edges and 3 faces.
  EXPECT_EQ(m.FindGroup("edge")->atoms.size(), 3u);
  EXPECT_EQ(m.FindGroup("face")->atoms.size(), 3u);
}

TEST_F(MqlExecutorTest, NamedMoleculeTypesResolve) {
  MoleculeSet set = Q("SELECT ALL FROM brep_obj WHERE brep_no = 1706");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.molecules[0].AtomCount(), 15u);
}

TEST_F(MqlExecutorTest, ForAllQuantifier) {
  MoleculeSet all = Q(
      "SELECT ALL FROM brep-edge WHERE brep_no = 1700 AND "
      "FOR_ALL edge: edge.length > 0.0");
  EXPECT_EQ(all.size(), 1u);
  MoleculeSet none = Q(
      "SELECT ALL FROM brep-edge WHERE brep_no = 1700 AND "
      "FOR_ALL edge: edge.length > 1.5");
  EXPECT_EQ(none.size(), 0u);
}

TEST_F(MqlExecutorTest, RecordFieldAccessInWhere) {
  // All tetrahedra share a vertex at the origin.
  MoleculeSet set =
      Q("SELECT ALL FROM point WHERE placement.x_coord = 0.0 AND "
        "placement.y_coord = 0.0 AND placement.z_coord = 0.0");
  EXPECT_GE(set.size(), 12u);
}

TEST_F(MqlExecutorTest, UnindexedPredicateUsesAtomTypeScan) {
  db_->data().stats().Reset();
  MoleculeSet set =
      Q("SELECT ALL FROM solid WHERE description = 'tetra_1705'");
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(db_->data().stats().atom_type_scans.load(), 1u);
}

TEST_F(MqlExecutorTest, ImplicitKeyIndexAcceleratesRanges) {
  // KEYS_ARE creates an implicit access path; even range predicates on the
  // key avoid the atom-type scan.
  db_->data().stats().Reset();
  MoleculeSet set = Q("SELECT ALL FROM solid WHERE solid_no >= 1703 AND "
                      "solid_no <= 1707");
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(db_->data().stats().access_path_scans.load(), 1u);
  EXPECT_EQ(db_->data().stats().atom_type_scans.load(), 0u);
}

TEST_F(MqlExecutorTest, AccessPathAcceleratesRange) {
  auto ldl = db_->ExecuteLdl("CREATE ACCESS PATH solid_no_ap ON solid (solid_no)");
  ASSERT_TRUE(ldl.ok()) << ldl.status().ToString();
  db_->data().stats().Reset();
  MoleculeSet set = Q("SELECT ALL FROM solid WHERE solid_no >= 1703 AND "
                      "solid_no <= 1707");
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(db_->data().stats().access_path_scans.load(), 1u);
  EXPECT_EQ(db_->data().stats().atom_type_scans.load(), 0u);
}

TEST_F(MqlExecutorTest, ClusterAcceleratesVerticalAccess) {
  auto ldl = db_->ExecuteLdl(
      "CREATE ATOM CLUSTER brep_cl ON brep (faces, edges, points)");
  ASSERT_TRUE(ldl.ok()) << ldl.status().ToString();
  db_->data().stats().Reset();
  MoleculeSet set = Q("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1708");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.molecules[0].AtomCount(), 15u);
  EXPECT_EQ(db_->data().stats().cluster_assemblies.load(), 1u);
  EXPECT_EQ(db_->data().stats().bfs_assemblies.load(), 0u);
}

// Every cursor reads a pinned view, and a cluster image carries no
// versions: it serves a molecule only when every atom in it resolves to
// its current record. With one member under an uncommitted MODIFY the
// image would show the dirty value, so the same query chases associations
// instead and returns the member's before-image.
TEST_F(MqlExecutorTest, ClusterServesQuiescentReadsAndFallsBackUnderAWriter) {
  auto ldl = db_->ExecuteLdl(
      "CREATE ATOM CLUSTER brep_cl ON brep (faces, edges, points)");
  ASSERT_TRUE(ldl.ok()) << ldl.status().ToString();
  const std::string query =
      "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1708";
  db_->data().stats().Reset();
  MoleculeSet quiet = Q(query);
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(db_->data().stats().cluster_assemblies.load(), 1u);
  EXPECT_EQ(db_->data().stats().bfs_assemblies.load(), 0u);
  const access::Atom face = quiet.molecules[0].FindGroup("face")->atoms[0];
  const double square_dim = face.attrs[1].AsReal();

  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)
                  ->ModifyAtom(face.tid,
                               {access::AttrValue{1, access::Value::Real(-1)}})
                  .ok());
  db_->data().stats().Reset();
  MoleculeSet busy = Q(query);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(db_->data().stats().cluster_assemblies.load(), 0u);
  EXPECT_EQ(db_->data().stats().bfs_assemblies.load(), 1u);
  EXPECT_EQ(busy.molecules[0].AtomCount(), 15u);
  size_t seen = 0;
  for (const access::Atom& a : busy.molecules[0].FindGroup("face")->atoms) {
    if (a.tid != face.tid) continue;
    EXPECT_EQ(a.attrs[1].AsReal(), square_dim);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
  ASSERT_TRUE((*txn)->Abort().ok());
}

TEST_F(MqlExecutorTest, ClusterAndBfsAgree) {
  MoleculeSet before = Q("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1709");
  auto ldl = db_->ExecuteLdl(
      "CREATE ATOM CLUSTER brep_cl ON brep (faces, edges, points)");
  ASSERT_TRUE(ldl.ok());
  MoleculeSet after = Q("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1709");
  ASSERT_EQ(before.size(), after.size());
  ASSERT_EQ(before.molecules[0].groups.size(), after.molecules[0].groups.size());
  for (size_t g = 0; g < before.molecules[0].groups.size(); ++g) {
    auto tids = [](const MoleculeGroup& grp) {
      std::set<uint64_t> s;
      for (const auto& a : grp.atoms) s.insert(a.tid.Pack());
      return s;
    };
    EXPECT_EQ(tids(before.molecules[0].groups[g]),
              tids(after.molecules[0].groups[g]));
  }
}

// ---------------------------------------------------------------------------
// DML through MQL
// ---------------------------------------------------------------------------

TEST_F(MqlExecutorTest, InsertStatement) {
  auto r = db_->Execute("INSERT solid (solid_no = 9001, description = 'fresh')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecResult::Kind::kTid);
  MoleculeSet set = Q("SELECT ALL FROM solid WHERE solid_no = 9001");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.molecules[0].groups[0].atoms[0].attrs[2].AsString(), "fresh");
}

TEST_F(MqlExecutorTest, ModifyStatement) {
  auto r = db_->Execute(
      "MODIFY solid SET description = 'renamed' WHERE solid_no = 1702");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  MoleculeSet set = Q("SELECT ALL FROM solid WHERE solid_no = 1702");
  EXPECT_EQ(set.molecules[0].groups[0].atoms[0].attrs[2].AsString(), "renamed");
}

TEST_F(MqlExecutorTest, ModifyComponentsOfMolecule) {
  auto r = db_->Execute(
      "MODIFY face SET square_dim = 99.5 FROM brep-face WHERE brep_no = 1703");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 4u);
  MoleculeSet set = Q("SELECT ALL FROM brep-face WHERE brep_no = 1703");
  for (const access::Atom& f : set.molecules[0].FindGroup("face")->atoms) {
    EXPECT_DOUBLE_EQ(f.attrs[1].AsReal(), 99.5);
  }
}

TEST_F(MqlExecutorTest, ModifyQualifiesAllTargetsBeforeTheFirstUpdate) {
  // The targets come through an access path on a non-key attribute, and
  // the SET moves every one of them further along the scanned range. The
  // statement must finish qualifying before it updates anything, or the
  // scan would run into its own writes.
  ASSERT_TRUE(db_->Execute("CREATE ATOM_TYPE gauge (gauge_id: IDENTIFIER, "
                           "num: INTEGER, reading: INTEGER) KEYS_ARE (num)")
                  .ok());
  auto ldl =
      db_->ExecuteLdl("CREATE ACCESS PATH gauge_reading ON gauge (reading)");
  ASSERT_TRUE(ldl.ok()) << ldl.status().ToString();
  // Enough atoms for the access path to span several B*-tree leaves, so
  // an updated entry lands in a leaf the scan has not reached yet.
  for (int i = 1; i <= 400; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(
        db_->Execute("INSERT gauge (num = " + n + ", reading = " + n + ")")
            .ok());
  }
  const size_t qualifying =
      Q("SELECT ALL FROM gauge WHERE reading >= 10").size();
  ASSERT_EQ(qualifying, 391u);

  db_->data().stats().Reset();
  auto r = db_->Execute("MODIFY gauge SET reading = 1000 WHERE reading >= 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db_->data().stats().access_path_scans.load(), 1u)
      << "the targets must be read through the access path";
  EXPECT_EQ(db_->data().stats().molecules_built.load(), qualifying)
      << "no target may be met again after its own update";
  EXPECT_EQ(r->count, qualifying);

  MoleculeSet moved = Q("SELECT ALL FROM gauge WHERE reading >= 10");
  ASSERT_EQ(moved.size(), qualifying);
  for (const Molecule& m : moved.molecules) {
    EXPECT_EQ(m.groups[0].atoms[0].attrs[2].AsInt(), 1000);
  }
}

TEST_F(MqlExecutorTest, DeleteWholeMolecule) {
  auto r = db_->Execute("DELETE ALL FROM brep-face-edge-point WHERE brep_no = 1711");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 15u);
  MoleculeSet gone = Q("SELECT ALL FROM brep WHERE brep_no = 1711");
  EXPECT_EQ(gone.size(), 0u);
  // The solid survives (not part of the deleted structure) but lost its brep.
  MoleculeSet solid = Q("SELECT ALL FROM solid WHERE solid_no = 1711");
  ASSERT_EQ(solid.size(), 1u);
  EXPECT_TRUE(solid.molecules[0].groups[0].atoms[0].attrs[5].is_null());
}

TEST_F(MqlExecutorTest, DeleteSelectedComponents) {
  auto r = db_->Execute("DELETE point FROM brep-point WHERE brep_no = 1710");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 4u);
  // Edges survive but their boundary sets shrank to empty.
  MoleculeSet edges = Q("SELECT ALL FROM brep-edge WHERE brep_no = 1710");
  ASSERT_EQ(edges.size(), 1u);
  for (const access::Atom& e : edges.molecules[0].FindGroup("edge")->atoms) {
    EXPECT_TRUE(e.attrs[2].is_null() || e.attrs[2].elems().empty());
  }
}

TEST_F(MqlExecutorTest, ConnectDisconnectStatements) {
  auto s1 = Q("SELECT ALL FROM solid WHERE solid_no = 1700");
  auto s2 = Q("SELECT ALL FROM solid WHERE solid_no = 1701");
  const access::Tid t1 = s1.molecules[0].groups[0].atoms[0].tid;
  const access::Tid t2 = s2.molecules[0].groups[0].atoms[0].tid;
  auto con = db_->Execute("CONNECT @" + std::to_string(t1.type) + ":" +
                          std::to_string(t1.seq) + ".sub TO @" +
                          std::to_string(t2.type) + ":" +
                          std::to_string(t2.seq));
  ASSERT_TRUE(con.ok()) << con.status().ToString();
  MoleculeSet rec = Q("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 1700");
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.molecules[0].AtomCount(), 2u);
  auto dis = db_->Execute("DISCONNECT @" + std::to_string(t1.type) + ":" +
                          std::to_string(t1.seq) + ".sub FROM @" +
                          std::to_string(t2.type) + ":" +
                          std::to_string(t2.seq));
  ASSERT_TRUE(dis.ok());
  MoleculeSet rec2 = Q("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 1700");
  EXPECT_EQ(rec2.molecules[0].AtomCount(), 1u);
}

// ---------------------------------------------------------------------------
// Semantic errors
// ---------------------------------------------------------------------------

TEST_F(MqlExecutorTest, SemanticErrorsAreReported) {
  EXPECT_FALSE(db_->Query("SELECT ALL FROM nosuchtype").ok());
  EXPECT_FALSE(db_->Query("SELECT ALL FROM solid-point").ok())
      << "no association between solid and point";
  EXPECT_FALSE(db_->Query("SELECT ALL FROM solid-solid").ok())
      << "ambiguous association needs .attr disambiguation";
  EXPECT_FALSE(
      db_->Query("SELECT ALL FROM brep-face WHERE nosuchattr = 1").ok());
  EXPECT_FALSE(db_->Execute("INSERT solid (nosuch = 1)").ok());
  // Duplicate key via MQL insert.
  EXPECT_TRUE(db_->Execute("INSERT solid (solid_no = 1700)")
                  .status()
                  .IsConstraint());
}

TEST_F(MqlExecutorTest, DisambiguatedSelfAssociationWorks) {
  // Non-recursive one-hop traversal of the self association; the second
  // `solid` component is auto-renamed to solid_2 in the result.
  MoleculeSet set = Q("SELECT ALL FROM solid.sub-solid WHERE solid_no = 4711");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.molecules[0].AtomCount(), 3u);
  EXPECT_NE(set.molecules[0].FindGroup("solid_2"), nullptr);
}

// A recursive level that references an atom the view cannot see fails the
// query with NotFound (here the base record of a sub-solid vanished under
// its super's reference), where association chasing for a non-recursive
// structure leaves such an atom out of its group.
TEST_F(MqlExecutorTest, RecursiveAssemblyFailsOnAMissingLevelAtom) {
  MoleculeSet leaf = Q("SELECT ALL FROM solid WHERE solid_no = 471111");
  ASSERT_EQ(leaf.size(), 1u);
  const access::Tid gone = leaf.molecules[0].groups[0].atoms[0].tid;
  access::AccessSystem& access = db_->access();
  auto rid = access.addresses().Lookup(gone, access::kBaseStructure);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(access.BaseFile(gone.type)
                  ->Delete(access::RecordId::Unpack(*rid))
                  .ok());
  ASSERT_TRUE(access.addresses().Remove(gone).ok());

  auto recursive = db_->Query(
      "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 4711");
  ASSERT_FALSE(recursive.ok());
  EXPECT_TRUE(recursive.status().IsNotFound()) << recursive.status().ToString();

  MoleculeSet chased = Q("SELECT ALL FROM solid.sub-solid WHERE solid_no = 47111");
  ASSERT_EQ(chased.size(), 1u);
  EXPECT_EQ(chased.molecules[0].AtomCount(), 2u);  // one of two subs left
}

// ---------------------------------------------------------------------------
// Concurrent cursors
// ---------------------------------------------------------------------------

TEST_F(MqlExecutorTest, ConcurrentSerialCursors) {
  // Several sessions drain cursors at once, each on its own thread, over
  // the shared buffer pool and statement cache; each stream must stay
  // complete and ordered.
  const std::string query = "SELECT ALL FROM brep-face WHERE brep_no >= 1700";
  std::string reference;
  {
    auto session = db_->OpenSession();
    auto set = session->Query(query)->Drain();
    ASSERT_TRUE(set.ok());
    reference = set->ToString(db_->access().catalog());
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto session = db_->OpenSession();
        auto cursor = session->Query(query);
        if (!cursor.ok()) {
          mismatches++;
          return;
        }
        auto set = cursor->Drain();
        if (!set.ok() ||
            set->ToString(db_->access().catalog()) != reference) {
          mismatches++;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Readers assemble one BREP molecule while a writer commits changes to its
// levels: each step adds a point on an edge and a face of the solid (the
// edge, face and brep records grow, and relocate when their page is full)
// or deletes a point it added. Every molecule a reader assembles must be
// one of the states the writer committed, byte for byte.
TEST_F(MqlExecutorTest, AssemblyRacesRelocationsAndDeletesOfItsLevels) {
  const std::string query =
      "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1703";
  const access::Catalog& catalog = db_->access().catalog();
  MoleculeSet start = Q(query);
  ASSERT_EQ(start.size(), 1u);
  const Molecule& m = start.molecules[0];
  const access::Tid brep = m.FindGroup("brep")->atoms[0].tid;
  const std::vector<access::Atom>& faces = m.FindGroup("face")->atoms;
  const std::vector<access::Atom>& edges = m.FindGroup("edge")->atoms;
  const access::AtomTypeDef* point = catalog.FindAtomType("point");
  ASSERT_NE(point, nullptr);
  const uint16_t line_attr = point->FindAttr("line")->id;
  const uint16_t face_attr = point->FindAttr("face")->id;
  const uint16_t brep_attr = point->FindAttr("brep")->id;
  const auto rid_of = [&](const access::Tid& tid) {
    auto rid = db_->access().addresses().Lookup(tid, access::kBaseStructure);
    return rid.ok() ? *rid : 0;
  };
  std::vector<uint64_t> level_rids;
  for (const MoleculeGroup& g : m.groups) {
    for (const access::Atom& a : g.atoms) level_rids.push_back(rid_of(a.tid));
  }
  std::vector<std::string> committed{start.ToString(catalog)};

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  constexpr int kReaders = 2;
  std::vector<std::set<std::string>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        auto session = db_->OpenSession();
        auto cursor = session->Query(query);
        auto set = cursor.ok() ? cursor->Drain()
                               : util::Result<MoleculeSet>(cursor.status());
        if (!set.ok() || set->size() != 1) {
          failures++;
          return;
        }
        seen[r].insert(set->ToString(catalog));
      }
    });
  }

  std::vector<access::Tid> added;
  const auto step = [&](int i) -> util::Status {
    PRIMA_ASSIGN_OR_RETURN(core::Transaction* const txn, db_->Begin());
    if (i % 3 == 2) {
      PRIMA_RETURN_IF_ERROR(txn->DeleteAtom(added.front()));
      added.erase(added.begin());
    } else {
      PRIMA_ASSIGN_OR_RETURN(
          const access::Tid tid,
          txn->InsertAtom(
              point->id,
              {access::AttrValue{line_attr,
                                 access::Value::List({access::Value::Ref(
                                     edges[i % edges.size()].tid)})},
               access::AttrValue{face_attr,
                                 access::Value::List({access::Value::Ref(
                                     faces[i % faces.size()].tid)})},
               access::AttrValue{brep_attr, access::Value::Ref(brep)}}));
      added.push_back(tid);
    }
    return txn->Commit();
  };
  for (int i = 0; i < 150; ++i) {
    const util::Status st = step(i);
    EXPECT_TRUE(st.ok()) << "step " << i << ": " << st.ToString();
    if (!st.ok()) break;
    MoleculeSet now = Q(query);
    if (now.size() == 1) committed.push_back(now.ToString(catalog));
  }
  done = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  const std::set<std::string> states(committed.begin(), committed.end());
  size_t distinct = 0;
  for (const auto& strings : seen) {
    for (const std::string& s : strings) {
      EXPECT_EQ(states.count(s), 1u) << "not a committed state:\n" << s;
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u);
  // The writes did move records of the molecule's levels.
  size_t moved = 0;
  size_t i = 0;
  for (const MoleculeGroup& g : m.groups) {
    for (const access::Atom& a : g.atoms) moved += rid_of(a.tid) != level_rids[i++];
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace prima::mql
