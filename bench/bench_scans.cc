// Experiment E11 (paper §3.2): the five scan operations — plus the
// multi-client tier behind the sharded buffer pool / read-ahead work.
//
// Claim: the scan menu trades generality for cost — atom-type scans read
// everything; sort scans are cheap exactly when a redundant sort order (or
// access path) exists and expensive when the sort must be performed
// explicitly; access-path scans touch only the qualifying range; cluster
// scans read materialized molecules.
//
// The multi-client report runs N concurrent full scans (in-process sessions
// AND remote net::Client connections) against two configurations of the
// same kernel: knobs-off (1 buffer shard, no read-ahead — the pre-sharding
// behavior) and the defaults, sized from the usable CPUs. It
// prints aggregate MB/s and p99 scan latency per tier, the 8-scanner
// speedup, and a larger-than-buffer run where every scan misses.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"

namespace prima::bench {
namespace {

using namespace prima::access;  // NOLINT — bench-local brevity

constexpr int kItems = 2000;

void LoadItems(core::Prima* db, int items) {
  Require(db->Execute("CREATE ATOM_TYPE item"
                      " ( item_id : IDENTIFIER,"
                      "   num : INTEGER,"
                      "   weight : REAL,"
                      "   label : CHAR_VAR,"
                      "   box : REF_TO (box.items) )"
                      " KEYS_ARE (num)")
              .status(),
          "item");
  Require(db->Execute("CREATE ATOM_TYPE box"
                      " ( box_id : IDENTIFIER,"
                      "   box_no : INTEGER,"
                      "   items : SET_OF (REF_TO (item.box)) )"
                      " KEYS_ARE (box_no)")
              .status(),
          "box");
  AccessSystem& access = db->access();
  const auto* item = access.catalog().FindAtomType("item");
  const auto* box = access.catalog().FindAtomType("box");
  util::Random rng(9);
  Tid current_box;
  for (int i = 0; i < items; ++i) {
    if (i % 20 == 0) {
      current_box = RequireR(
          access.InsertAtom(box->id, {AttrValue{1, Value::Int(i / 20)}}),
          "box");
    }
    RequireR(access.InsertAtom(
                 item->id,
                 {AttrValue{1, Value::Int(i)},
                  AttrValue{2, Value::Real(rng.NextDouble() * 1000)},
                  AttrValue{3, Value::String("item" + std::to_string(i))},
                  AttrValue{4, Value::Ref(current_box)}}),
             "item");
  }
}

std::unique_ptr<core::Prima> MakeDb() {
  auto db = OpenDb();
  LoadItems(db.get(), kItems);
  return db;
}

AtomTypeId ItemType(core::Prima* db) {
  return db->access().catalog().FindAtomType("item")->id;
}

void Report() {
  PrintHeader("E11 / §3.2 — the five scan operations",
              "Claim: scan cost tracks the supporting structure — the sort "
              "scan is free with a sort order, linear without; access-path "
              "scans touch only the range; cluster scans read materialized "
              "molecules.");
  auto db = MakeDb();
  std::printf("database: %d items in %d boxes\n\n", kItems, kItems / 20);

  // Sort scan modes before/after installing the sort order.
  SortScan no_support(&db->access(), ItemType(db.get()), {2}, {true});
  Require(no_support.Open(), "open");
  std::printf("sort scan on weight without structure: mode = %s\n",
              no_support.mode() == SortScan::Mode::kExplicitSort
                  ? "explicit (temporary) sort"
                  : "supported");
  RequireR(db->ExecuteLdl("CREATE SORT ORDER w ON item (weight)"), "so");
  SortScan supported(&db->access(), ItemType(db.get()), {2}, {true});
  Require(supported.Open(), "open");
  std::printf("sort scan on weight with sort order:   mode = %s\n",
              supported.mode() == SortScan::Mode::kSortOrder
                  ? "redundant sort order"
                  : "unexpected");
}

// ---------------------------------------------------------------------------
// Multi-client scan tier: concurrent sessions, knobs-off vs scaled kernel
// ---------------------------------------------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Open the kernel either knobs-off (1 buffer shard, no read-ahead — the
/// pre-sharding behavior, reproducible as a baseline in the same binary) or
/// with the defaults, sized from the usable CPUs.
std::unique_ptr<core::Prima> OpenScanDb(bool scaled, size_t buffer_bytes,
                                        bool with_server,
                                        const std::string& path = "") {
  core::PrimaOptions options;
  options.storage.buffer_bytes = buffer_bytes;
  if (!path.empty()) {
    options.in_memory = false;
    options.path = path;
  }
  if (!scaled) {
    options.buffer_shards = 1;
    options.readahead_pages = 0;
  }
  if (with_server) options.listen_port = 0;
  return RequireR(core::Prima::Open(std::move(options)), "open");
}

/// On-device footprint of every data segment — the bytes one full scan of
/// the database sweeps past.
double DataMb(core::Prima* db) {
  double bytes = 0;
  for (storage::SegmentId seg : db->storage().ListSegments()) {
    auto pages = db->storage().PageCount(seg);
    auto size = db->storage().SegmentPageSize(seg);
    if (pages.ok() && size.ok()) {
      bytes += static_cast<double>(*pages) * storage::PageSizeBytes(*size);
    }
  }
  return bytes / (1024.0 * 1024.0);
}

struct TierResult {
  double mb_per_s = 0;
  double p99_ms = 0;
  double scans_per_s = 0;
};

/// `clients` concurrent scanners, each draining `scans` full "SELECT ALL
/// FROM item" cursors. remote=false runs in-process sessions; remote=true
/// connects each scanner through net::Client over loopback.
TierResult RunScanTier(core::Prima* db, int clients, int scans, bool remote,
                       size_t expected) {
  LatencyRecorder latencies;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::unique_ptr<core::Session> session;
      std::unique_ptr<net::Client> client;
      if (remote) {
        client = RequireR(
            net::Client::Connect("127.0.0.1", db->net_server()->port()),
            "connect");
      } else {
        session = db->OpenSession();
      }
      for (int i = 0; i < scans; ++i) {
        const auto s0 = std::chrono::steady_clock::now();
        size_t n = 0;
        if (remote) {
          auto cursor = RequireR(client->OpenCursor("SELECT ALL FROM item"),
                                 "remote cursor");
          for (;;) {
            auto m = RequireR(cursor.Next(), "remote next");
            if (!m) break;
            ++n;
          }
        } else {
          auto cursor = RequireR(session->Query("SELECT ALL FROM item"),
                                 "cursor");
          for (;;) {
            auto m = RequireR(cursor.Next(), "next");
            if (!m) break;
            ++n;
          }
        }
        if (n != expected) {
          std::fprintf(stderr, "scan returned %zu molecules, want %zu\n", n,
                       expected);
          std::abort();
        }
        latencies.RecordUs(SecondsSince(s0) * 1e6);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = SecondsSince(t0);
  TierResult r;
  const double total_scans = static_cast<double>(clients) * scans;
  r.scans_per_s = total_scans / wall_s;
  r.mb_per_s = total_scans * DataMb(db) / wall_s;
  r.p99_ms = static_cast<double>(latencies.Snapshot().p99()) / 1e3;
  return r;
}

void ReportMultiClient() {
  PrintHeader(
      "multi-client scans — sharded buffer pool + read-ahead",
      "Claim: with the buffer pool sharded and scans prefetched, aggregate "
      "scan throughput scales with concurrent scanners instead of "
      "serializing on one pool mutex.");
  const bool smoke = std::getenv("PRIMA_BENCH_SMOKE") != nullptr;
  const int scans = smoke ? 4 : 16;
  const std::vector<int> tiers =
      smoke ? std::vector<int>{8} : std::vector<int>{1, 4, 8};
  const size_t expected = kItems;

  double knobs_off_8 = 0, scaled_8 = 0;
  for (const bool scaled : {false, true}) {
    auto db = OpenScanDb(scaled, 16u << 20, /*with_server=*/true);
    LoadItems(db.get(), kItems);
    const auto snap = db->stats();
    std::printf("config: %s (%zu shard%s)\n",
                scaled ? "usable-CPU defaults" : "knobs-off baseline",
                snap.buffer.shards.size(),
                snap.buffer.shards.size() == 1 ? "" : "s");
    std::printf("  %-11s %8s %12s %10s %10s\n", "path", "clients",
                "scans/s", "MB/s", "p99 (ms)");
    for (const int clients : tiers) {
      const TierResult in_proc =
          RunScanTier(db.get(), clients, scans, /*remote=*/false, expected);
      std::printf("  %-11s %8d %12.1f %10.1f %10.2f\n", "in-process",
                  clients, in_proc.scans_per_s, in_proc.mb_per_s,
                  in_proc.p99_ms);
      if (clients == 8) {
        (scaled ? scaled_8 : knobs_off_8) = in_proc.mb_per_s;
      }
      const TierResult net =
          RunScanTier(db.get(), clients, scans, /*remote=*/true, expected);
      std::printf("  %-11s %8d %12.1f %10.1f %10.2f\n", "net::Client",
                  clients, net.scans_per_s, net.mb_per_s, net.p99_ms);
    }
    std::printf("\n");
  }
  if (knobs_off_8 > 0) {
    std::printf("aggregate speedup at 8 in-process scanners: %.2fx\n\n",
                scaled_8 / knobs_off_8);
  }
}

void ReportLargerThanBuffer() {
  PrintHeader(
      "larger-than-buffer scans — eviction storm + read-ahead",
      "Claim: when the working set exceeds the pool, every scan runs an "
      "eviction storm against the real (file-backed) device; sharding keeps "
      "the storms parallel and read-ahead batches the refill into chained "
      "reads instead of page-at-a-time misses.");
  const bool smoke = std::getenv("PRIMA_BENCH_SMOKE") != nullptr;
  const int items = smoke ? 8000 : 16000;
  const int scans = smoke ? 2 : 4;
  // A pool deliberately smaller than the item base file: each sweep evicts
  // its own tail, so steady-state scans miss on every base page.
  const size_t buffer_bytes = 128u << 10;
  const std::string dir = "/tmp/prima_bench_scans_" +
                          std::to_string(static_cast<long>(::getpid()));
  for (const bool scaled : {false, true}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto db = OpenScanDb(scaled, buffer_bytes, /*with_server=*/false, dir);
    LoadItems(db.get(), items);
    const double data_mb = DataMb(db.get());
    const TierResult r = RunScanTier(db.get(), 8, scans, /*remote=*/false,
                                     static_cast<size_t>(items));
    const auto snap = db->stats();
    std::printf(
        "  %-22s data %5.1f MB / pool %4.2f MB   %8.1f MB/s   p99 %7.2f ms"
        "   evictions %8llu   prefetched %8llu\n",
        scaled ? "usable-CPU defaults" : "knobs-off baseline", data_mb,
        buffer_bytes / (1024.0 * 1024.0), r.mb_per_s, r.p99_ms,
        static_cast<unsigned long long>(snap.buffer.evictions),
        static_cast<unsigned long long>(snap.buffer.prefetched_pages));
  }
  std::filesystem::remove_all(dir);
  std::printf("\n");
}

void ReportReaderWriterStorm() {
  PrintHeader(
      "readers vs. writer storm — pinned views under churn",
      "Claim: cursors resolve against pinned version chains without taking "
      "a single lock, so reader throughput and tail latency hold steady "
      "while a writer commits continuously.");
  const bool smoke = std::getenv("PRIMA_BENCH_SMOKE") != nullptr;
  const double run_s = smoke ? 0.2 : 1.0;
  auto db = OpenScanDb(/*scaled=*/true, 16u << 20, /*with_server=*/false);
  LoadItems(db.get(), kItems);

  std::printf("  %8s %10s %10s %12s\n", "readers", "scans/s", "p99 (ms)",
              "writer tx/s");
  for (const int readers : {1, 8}) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> commits{0};
    LatencyRecorder latencies;
    std::vector<std::thread> threads;
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&] {
        auto session = db->OpenSession();
        while (!stop.load(std::memory_order_relaxed)) {
          const auto s0 = std::chrono::steady_clock::now();
          auto cursor =
              RequireR(session->Query("SELECT ALL FROM item"), "cursor");
          size_t n = 0;
          for (;;) {
            auto m = RequireR(cursor.Next(), "next");
            if (!m) break;
            ++n;
          }
          if (n != static_cast<size_t>(kItems)) {
            std::fprintf(stderr, "storm scan saw %zu molecules\n", n);
            std::abort();
          }
          latencies.RecordUs(SecondsSince(s0) * 1e6);
          scans.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    threads.emplace_back([&] {
      auto session = db->OpenSession();
      int g = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++g;
        Require(session
                    ->Execute("MODIFY item SET label = 'g" +
                              std::to_string(g) + "' WHERE num = " +
                              std::to_string(g % kItems))
                    .status(),
                "modify");
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(run_s));
    stop.store(true);
    for (auto& th : threads) th.join();
    std::printf("  %8d %10.1f %10.2f %12.1f\n", readers,
                static_cast<double>(scans.load()) / run_s,
                static_cast<double>(latencies.Snapshot().p99()) / 1e3,
                static_cast<double>(commits.load()) / run_s);
  }
  const auto versions = db->stats().versions;
  std::printf(
      "  version store: %llu installed / %llu retired, %llu chain walks, "
      "%llu snapshots opened\n\n",
      static_cast<unsigned long long>(versions.versions_installed),
      static_cast<unsigned long long>(versions.versions_retired),
      static_cast<unsigned long long>(versions.chain_walks),
      static_cast<unsigned long long>(versions.snapshots_opened));
}

void BM_AtomTypeScan(benchmark::State& state) {
  auto db = MakeDb();
  for (auto _ : state) {
    AtomTypeScan scan(&db->access(), ItemType(db.get()));
    Require(scan.Open(), "open");
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_AtomTypeScan);

void BM_SortScan_WithSortOrder(benchmark::State& state) {
  auto db = MakeDb();
  RequireR(db->ExecuteLdl("CREATE SORT ORDER w ON item (weight)"), "so");
  for (auto _ : state) {
    SortScan scan(&db->access(), ItemType(db.get()), {2}, {true});
    Require(scan.Open(), "open");
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_SortScan_WithSortOrder);

void BM_SortScan_Explicit(benchmark::State& state) {
  auto db = MakeDb();
  for (auto _ : state) {
    SortScan scan(&db->access(), ItemType(db.get()), {2}, {true});
    Require(scan.Open(), "open");  // sorts all atoms explicitly
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_SortScan_Explicit);

void BM_AccessPathScan_Range(benchmark::State& state) {
  auto db = MakeDb();
  // The implicit key index on num serves as the access path.
  const StructureDef* index = db->access().catalog().FindStructure("item_key");
  const int64_t width = state.range(0);
  int64_t lo = 0;
  for (auto _ : state) {
    KeyRange range;
    range.start = std::vector<Value>{Value::Int(lo % (kItems - width))};
    range.stop = std::vector<Value>{Value::Int(lo % (kItems - width) + width)};
    lo += 37;
    BTreeAccessPathScan scan(&db->access(), index->id, range);
    Require(scan.Open(), "open");
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * (width + 1));
}
BENCHMARK(BM_AccessPathScan_Range)->Arg(10)->Arg(100)->Arg(1000);

void BM_AccessPathScan_Prior(benchmark::State& state) {
  // Backward traversal is native (doubly chained leaves).
  auto db = MakeDb();
  const StructureDef* index = db->access().catalog().FindStructure("item_key");
  for (auto _ : state) {
    KeyRange range;
    range.start = std::vector<Value>{Value::Int(500)};
    range.stop = std::vector<Value>{Value::Int(600)};
    BTreeAccessPathScan scan(&db->access(), index->id, range,
                             /*forward=*/false);
    Require(scan.Open(), "open");
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_AccessPathScan_Prior);

void BM_AtomClusterTypeScan(benchmark::State& state) {
  auto db = MakeDb();
  RequireR(db->ExecuteLdl("CREATE ATOM CLUSTER bc ON box (items)"), "cluster");
  const uint32_t cid = db->access().catalog().FindStructure("bc")->id;
  for (auto _ : state) {
    AtomClusterTypeScan scan(&db->access(), cid);
    Require(scan.Open(), "open");
    int atoms = 0;
    for (;;) {
      auto image = RequireR(scan.Next(), "next");
      if (!image) break;
      for (const auto& [type, group] : image->groups) {
        atoms += static_cast<int>(group.size());
      }
    }
    benchmark::DoNotOptimize(atoms);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_AtomClusterTypeScan);

void BM_AtomClusterScan_SingleCluster(benchmark::State& state) {
  auto db = MakeDb();
  RequireR(db->ExecuteLdl("CREATE ATOM CLUSTER bc ON box (items)"), "cluster");
  const uint32_t cid = db->access().catalog().FindStructure("bc")->id;
  const auto* box = db->access().catalog().FindAtomType("box");
  const Tid first_box = db->access().AllAtoms(box->id)[0];
  const AtomTypeId item = ItemType(db.get());
  for (auto _ : state) {
    AtomClusterScan scan(&db->access(), cid, first_box, item);
    Require(scan.Open(), "open");
    int n = 0;
    for (;;) {
      auto atom = RequireR(scan.Next(), "next");
      if (!atom) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_AtomClusterScan_SingleCluster);

}  // namespace
}  // namespace prima::bench

int main(int argc, char** argv) {
  prima::bench::Report();
  prima::bench::ReportMultiClient();
  prima::bench::ReportLargerThanBuffer();
  prima::bench::ReportReaderWriterStorm();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
