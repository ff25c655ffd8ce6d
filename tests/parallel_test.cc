#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "workloads/brep.h"

namespace prima::core {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PrimaOptions options;
    options.parallel_workers = 8;
    auto db = Prima::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    workloads::BrepWorkload brep(db_.get());
    ASSERT_TRUE(brep.CreateSchema().ok());
    ASSERT_TRUE(brep.BuildMany(100, 40).ok());
  }

  std::unique_ptr<Prima> db_;
};

/// Canonical fingerprint of a molecule set (order-independent per group).
std::multiset<std::string> Fingerprint(const mql::MoleculeSet& set) {
  std::multiset<std::string> out;
  for (const auto& m : set.molecules) {
    std::string s;
    for (const auto& g : m.groups) {
      s += g.component + ":";
      std::set<uint64_t> tids;
      for (const auto& a : g.atoms) tids.insert(a.tid.Pack());
      for (uint64_t t : tids) s += std::to_string(t) + ",";
    }
    out.insert(std::move(s));
  }
  return out;
}

TEST_F(ParallelTest, ParallelEqualsSerial) {
  const std::string query = "SELECT ALL FROM brep-face-edge-point";
  auto serial = db_->Query(query);
  ASSERT_TRUE(serial.ok());
  auto parallel = db_->QueryParallel(query);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->size(), 40u);
  EXPECT_EQ(parallel->size(), serial->size());
  EXPECT_EQ(Fingerprint(*serial), Fingerprint(*parallel));
}

TEST_F(ParallelTest, ParallelPreservesMoleculeOrder) {
  const std::string query = "SELECT ALL FROM brep-face WHERE brep_no >= 110";
  auto serial = db_->Query(query);
  auto parallel = db_->QueryParallel(query);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(serial->molecules[i].groups[0].atoms[0].tid,
              parallel->molecules[i].groups[0].atoms[0].tid);
  }
}

TEST_F(ParallelTest, QualificationAppliedInParallel) {
  auto set = db_->QueryParallel(
      "SELECT ALL FROM brep-edge WHERE "
      "EXISTS_AT_LEAST (3) edge: edge.length > 3.0");
  ASSERT_TRUE(set.ok());
  auto serial = db_->Query(
      "SELECT ALL FROM brep-edge WHERE "
      "EXISTS_AT_LEAST (3) edge: edge.length > 3.0");
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(set->size(), serial->size());
  EXPECT_LT(set->size(), 40u);  // the predicate is selective
  EXPECT_GT(set->size(), 0u);
}

TEST_F(ParallelTest, DecomposesIntoRequestedUnits) {
  // Whatever the number of units, the decomposed run returns the serial
  // result: the same molecules, projected the same way, in the same order —
  // for an empty result, no WHERE, a quantified WHERE and a projection, with
  // association chasing and then from an atom cluster.
  const auto& catalog = db_->access().catalog();
  const auto check = [&](const std::string& query) {
    auto serial = db_->Query(query);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status().ToString();
    for (const size_t units : {1, 2, 3, 7, 16}) {
      auto parallel = db_->QueryParallel(query, units);
      ASSERT_TRUE(parallel.ok()) << query << " x" << units << ": "
                                 << parallel.status().ToString();
      EXPECT_EQ(parallel->ToString(catalog), serial->ToString(catalog))
          << query << " with " << units << " units";
    }
  };
  const std::vector<std::string> queries = {
      "SELECT ALL FROM brep-face WHERE brep_no = -1",  // empty
      "SELECT ALL FROM brep-face-edge-point",          // no WHERE
      "SELECT ALL FROM brep-edge WHERE EXISTS_AT_LEAST (3) edge: "
      "edge.length > 3.0",                             // quantified
      "SELECT solid_no FROM solid WHERE solid_no < 110",  // projection
      "SELECT ALL FROM brep-face WHERE brep_no >= 110",
  };
  for (const std::string& query : queries) check(query);
  ASSERT_TRUE(db_->ExecuteLdl(
                     "CREATE ATOM CLUSTER brep_cl ON brep (faces, edges, points)")
                  .ok());
  for (const std::string& query : queries) check(query);
}

TEST_F(ParallelTest, ConcurrentCallersEachGetTheirOwnResult) {
  // Two threads call QueryParallel at once over the shared pool; each call
  // waits for its own units only and returns the serial result.
  const auto& catalog = db_->access().catalog();
  const std::string queries[2] = {
      "SELECT ALL FROM brep-face-edge-point",
      "SELECT ALL FROM brep-face WHERE brep_no >= 120"};
  std::string references[2];
  for (int q = 0; q < 2; ++q) {
    auto serial = db_->Query(queries[q]);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    references[q] = serial->ToString(catalog);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int q = 0; q < 2; ++q) {
    threads.emplace_back([&, q] {
      for (int i = 0; i < 10; ++i) {
        auto parallel = db_->QueryParallel(queries[q], 3);
        if (!parallel.ok() || parallel->ToString(catalog) != references[q]) {
          mismatches++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelTest, MaxUnitsClampedToRoots) {
  // More DUs than molecules: must not crash or duplicate.
  auto set = db_->QueryParallel("SELECT ALL FROM brep WHERE brep_no = 105", 16);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
}

TEST_F(ParallelTest, RejectsNonQueries) {
  auto r = db_->QueryParallel("INSERT solid (solid_no = 1)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ParallelTest, ProjectionAppliedAfterParallelQualification) {
  auto set = db_->QueryParallel(
      "SELECT solid_no FROM solid WHERE solid_no < 110");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 10u);
  for (const auto& m : set->molecules) {
    EXPECT_TRUE(m.groups[0].atoms[0].attrs[2].is_null());  // description gone
  }
}

TEST_F(ParallelTest, ParallelWithClusterAssembly) {
  auto ldl = db_->ExecuteLdl(
      "CREATE ATOM CLUSTER brep_cl ON brep (faces, edges, points)");
  ASSERT_TRUE(ldl.ok());
  auto serial = db_->Query("SELECT ALL FROM brep-face-edge-point");
  auto parallel = db_->QueryParallel("SELECT ALL FROM brep-face-edge-point");
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Fingerprint(*serial), Fingerprint(*parallel));
}

// Confines the calling thread, and every thread it starts, to the first CPU
// of its current affinity mask; restores the old mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&old_);
    if (sched_getaffinity(0, sizeof(old_), &old_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &old_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(old_), &old_);
  }
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t old_;
  bool pinned_ = false;
};

TEST(KnobResolutionTest, OneUsableCpuResolvesSerialDefaults) {
  PinToOneCpu pin;
  ASSERT_TRUE(pin.pinned());
  ASSERT_EQ(util::UsableCpus(), 1u);
  EXPECT_EQ(util::ThreadPool::DefaultThreads(), 1u);  // one pool worker

  auto db = Prima::Open(PrimaOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->pool().num_threads(), 1u);
  EXPECT_EQ((*db)->storage().buffer().shard_count(), 1u);

  // QueryParallel keeps its contract on the one-worker pool, at the
  // default width and at an explicit width wider than the pool.
  workloads::BrepWorkload brep(db->get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(brep.BuildMany(100, 40).ok());
  const auto& catalog = (*db)->access().catalog();
  for (const std::string query :
       {"SELECT ALL FROM brep-face-edge-point",
        "SELECT ALL FROM brep-face WHERE brep_no >= 110"}) {
    auto serial = (*db)->Query(query);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status().ToString();
    ASSERT_GT(serial->size(), 0u) << query;
    for (const size_t units : {0, 4}) {
      auto parallel = (*db)->QueryParallel(query, units);
      ASSERT_TRUE(parallel.ok()) << query << " x" << units << ": "
                                 << parallel.status().ToString();
      EXPECT_EQ(parallel->ToString(catalog), serial->ToString(catalog))
          << query << " with " << units << " units";
    }
  }
}

TEST(KnobResolutionTest, ExplicitKnobsWinOnOneUsableCpu) {
  PinToOneCpu pin;
  ASSERT_TRUE(pin.pinned());
  PrimaOptions options;
  options.parallel_workers = 2;
  options.buffer_shards = 4;
  auto db = Prima::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->pool().num_threads(), 2u);
  EXPECT_EQ((*db)->storage().buffer().shard_count(), 4u);
}

/// Threads of this process, counted from /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// The thread count once it has held still for a few polls: a joined
/// thread may leave its task entry behind for a moment.
size_t SettledThreadCount() {
  size_t last = ThreadCount();
  for (int stable = 0, polls = 0; stable < 3 && polls < 200; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const size_t now = ThreadCount();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  return last;
}

// A database with one pool worker, no bounded WAL (so no checkpoint daemon)
// and no server starts exactly one thread, and closing it joins that thread.
TEST(ThreadCountTest, OneWorkerDatabaseStartsOneThread) {
  const size_t baseline = SettledThreadCount();
  {
    PrimaOptions options;
    options.parallel_workers = 1;
    auto db = Prima::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(SettledThreadCount(), baseline + 1);
  }
  EXPECT_EQ(SettledThreadCount(), baseline);
}

}  // namespace
}  // namespace prima::core
