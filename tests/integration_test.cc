#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/prima.h"
#include "workloads/brep.h"
#include "workloads/geo.h"
#include "workloads/vlsi.h"

namespace prima::core {
namespace {

/// Full-lifecycle tests across all layers, including the file-backed device
/// and database reopen.
TEST(IntegrationTest, FullLifecycleWithReopen) {
  const std::string dir = ::testing::TempDir() + "/prima_integration";
  std::filesystem::remove_all(dir);
  PrimaOptions options;
  options.in_memory = false;
  options.path = dir;

  access::Tid solid_tid;
  {
    auto db_or = Prima::Open(options);
    ASSERT_TRUE(db_or.ok());
    auto db = std::move(*db_or);
    workloads::BrepWorkload brep(db.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    auto solids = brep.BuildMany(1, 5);
    ASSERT_TRUE(solids.ok());
    solid_tid = (*solids)[2].solid;
    // Tuning structures survive reopen too.
    ASSERT_TRUE(db->ExecuteLdl("CREATE SORT ORDER so ON solid (solid_no)").ok());
    ASSERT_TRUE(
        db->ExecuteLdl("CREATE PARTITION pq ON face (square_dim)").ok());
    ASSERT_TRUE(db->ExecuteLdl(
                      "CREATE ATOM CLUSTER cl ON brep (faces, edges, points)")
                    .ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    auto db_or = Prima::Open(options);
    ASSERT_TRUE(db_or.ok());
    auto db = std::move(*db_or);
    // Schema is back.
    EXPECT_NE(db->access().catalog().FindAtomType("brep"), nullptr);
    EXPECT_NE(db->access().catalog().FindMoleculeType("piece_list"), nullptr);
    EXPECT_NE(db->access().catalog().FindStructure("so"), nullptr);
    // Data is back, via every path: key lookup, molecule assembly, cluster.
    auto set = db->Query("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 3");
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_EQ(set->size(), 1u);
    EXPECT_EQ(set->molecules[0].AtomCount(), 15u);
    EXPECT_GT(db->data().stats().cluster_assemblies.load(), 0u);
    // The old atom is addressable by its surrogate.
    auto atom = db->access().GetAtom(solid_tid);
    ASSERT_TRUE(atom.ok());
    EXPECT_EQ(atom->attrs[1].AsInt(), 3);
    // Writes continue to work after reopen.
    ASSERT_TRUE(db->Execute("INSERT solid (solid_no = 100)").ok());
    auto more = db->Query("SELECT ALL FROM solid");
    ASSERT_TRUE(more.ok());
    EXPECT_EQ(more->size(), 6u);
  }
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, VlsiWorkloadEndToEnd) {
  auto db_or = Prima::Open({});
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  workloads::VlsiWorkload vlsi(db.get());
  ASSERT_TRUE(vlsi.CreateSchema().ok());
  auto circuit = vlsi.Generate(50, 4, 30, 1000, /*seed=*/7);
  ASSERT_TRUE(circuit.ok()) << circuit.status().ToString();

  // Grid access path on placement; spatial window query.
  ASSERT_TRUE(
      db->ExecuteLdl("CREATE ACCESS PATH place ON cell (x, y) USING GRID").ok());
  auto region = db->Query(
      "SELECT ALL FROM cell WHERE x >= 100 AND x <= 600 AND y >= 100 AND "
      "y <= 600");
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_GT(db->data().stats().grid_scans.load(), 0u);
  // Verify against brute force.
  auto all = db->Query("SELECT ALL FROM cell");
  ASSERT_TRUE(all.ok());
  size_t expect = 0;
  for (const auto& m : all->molecules) {
    const auto& a = m.groups[0].atoms[0];
    if (a.attrs[3].AsInt() >= 100 && a.attrs[3].AsInt() <= 600 &&
        a.attrs[4].AsInt() >= 100 && a.attrs[4].AsInt() <= 600) {
      ++expect;
    }
  }
  EXPECT_EQ(region->size(), expect);

  // n:m navigation: nets of a cell via pins.
  auto nets = db->Query("SELECT ALL FROM cell-pin-net WHERE cell_no = 1");
  ASSERT_TRUE(nets.ok()) << nets.status().ToString();
  ASSERT_EQ(nets->size(), 1u);
  EXPECT_EQ(nets->molecules[0].FindGroup("pin")->atoms.size(), 4u);
}

TEST(IntegrationTest, GeoWorkloadSharedBorders) {
  auto db_or = Prima::Open({});
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  workloads::GeoWorkload geo(db.get());
  ASSERT_TRUE(geo.CreateSchema().ok());
  auto map = geo.GenerateGrid(1, 4, 5, /*seed=*/3);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  // 4x5 grid: 4*4 horizontal + 3*5 vertical interior borders.
  EXPECT_EQ(map->borders.size(), 31u);

  // Non-disjoint molecules: the region molecules of two adjacent regions
  // overlap in their shared border atom.
  auto regions = db->Query("SELECT ALL FROM map-region-border WHERE map_no = 1");
  ASSERT_TRUE(regions.ok()) << regions.status().ToString();
  ASSERT_EQ(regions->size(), 1u);
  EXPECT_EQ(regions->molecules[0].FindGroup("region")->atoms.size(), 20u);
  EXPECT_EQ(regions->molecules[0].FindGroup("border")->atoms.size(), 31u);

  // Every interior border is shared by exactly 2 regions (n:m integrity).
  auto borders = db->Query("SELECT ALL FROM border");
  ASSERT_TRUE(borders.ok());
  for (const auto& m : borders->molecules) {
    EXPECT_EQ(m.groups[0].atoms[0].attrs[3].elems().size(), 2u);
  }

  // Structural integrity: min-cardinality check passes for all borders.
  for (const access::Tid& b : map->borders) {
    EXPECT_TRUE(db->access().CheckIntegrity(b).ok());
  }
}

TEST(IntegrationTest, MixedWorkloadsCoexist) {
  auto db_or = Prima::Open({});
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  workloads::BrepWorkload brep(db.get());
  workloads::VlsiWorkload vlsi(db.get());
  workloads::GeoWorkload geo(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(vlsi.CreateSchema().ok());
  ASSERT_TRUE(geo.CreateSchema().ok());
  ASSERT_TRUE(brep.BuildMany(1, 3).ok());
  ASSERT_TRUE(vlsi.Generate(10, 2, 5, 100, 1).ok());
  ASSERT_TRUE(geo.GenerateGrid(1, 2, 2, 1).ok());
  EXPECT_EQ((*db->Query("SELECT ALL FROM solid")).size(), 3u);
  EXPECT_EQ((*db->Query("SELECT ALL FROM cell")).size(), 10u);
  EXPECT_EQ((*db->Query("SELECT ALL FROM region")).size(), 4u);
}

TEST(IntegrationTest, CorruptionSurfacesAsError) {
  const std::string dir = ::testing::TempDir() + "/prima_corruption";
  std::filesystem::remove_all(dir);
  PrimaOptions options;
  options.in_memory = false;
  options.path = dir;
  {
    auto db_or = Prima::Open(options);
    ASSERT_TRUE(db_or.ok());
    auto db = std::move(*db_or);
    workloads::BrepWorkload brep(db.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    ASSERT_TRUE(brep.BuildMany(1, 2).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip bytes in the middle of the catalog segment file.
  const std::string victim = dir + "/seg_1.prima";
  ASSERT_TRUE(std::filesystem::exists(victim));
  {
    std::ofstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(512 + 8192 + 100);  // device header + page 0 + into page 1
    const char garbage[16] = {127, 1, 2, 3, 4, 5, 6, 7,
                              8,   9, 1, 2, 3, 4, 5, 6};
    f.write(garbage, sizeof(garbage));
  }
  {
    // The torn page falls inside the redo window and restart recovery
    // rebuilds it from the logged full-page image: the database self-heals
    // instead of failing.
    auto db_or = Prima::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    EXPECT_EQ(((*db_or)->Query("SELECT ALL FROM solid"))->size(), 2u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace prima::core
