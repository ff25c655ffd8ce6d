// Network server benchmarks: what a round trip over the framed wire
// protocol costs against in-process execution, and how the thread-per-
// connection server holds up under hundreds of concurrent connections.
//
//   - remote vs in-process statement cost: the same one-shot SELECT and
//     the same prepared INSERT, through net::Client vs core::Session (a
//     remote bind is local; its value travels in the execute request);
//   - concurrent-connection storm: N connections (up to several hundred)
//     each running a transactional insert+select mix, reporting p50/p99
//     statement latency and aggregate throughput per connection count.
//
//   $ ./bench_net

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"

namespace prima::bench {
namespace {

using access::Value;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::unique_ptr<core::Prima> OpenNetDb(uint32_t max_connections) {
  core::PrimaOptions options;
  options.storage.buffer_bytes = 32u << 20;
  options.listen_port = 0;
  options.net_max_connections = max_connections;
  return RequireR(core::Prima::Open(std::move(options)), "open");
}

std::unique_ptr<net::Client> ConnectLoopback(core::Prima* db) {
  return RequireR(
      net::Client::Connect("127.0.0.1", db->net_server()->port()),
      "connect");
}

void SetupItemSchema(core::Prima* db) {
  Require(db->Execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                      "num: INTEGER, name: CHAR_VAR) KEYS_ARE (num)")
              .status(),
          "schema");
  for (int i = 0; i < 64; ++i) {
    Require(db->Execute("INSERT item (num = " + std::to_string(i) +
                        ", name = 'seed')")
                .status(),
            "seed");
  }
}

// ---------------------------------------------------------------------------
// Report: remote vs in-process, then the connection storm
// ---------------------------------------------------------------------------

void ReportWireTax() {
  PrintHeader("network server — the wire tax",
              "a remote statement pays one framed round trip over loopback "
              "(binds are local and ride with the execute) on top of the "
              "in-process execution it maps onto");

  auto db = OpenNetDb(/*max_connections=*/16);
  SetupItemSchema(db.get());
  auto session = db->OpenSession();
  auto client = ConnectLoopback(db.get());

  constexpr int kExecutions = 2000;
  const std::string query = "SELECT ALL FROM item WHERE num >= 32";

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    auto r = RequireR(session->Execute(query), "local select");
    benchmark::DoNotOptimize(r);
  }
  const double local_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    auto r = RequireR(client->Execute(query), "remote select");
    benchmark::DoNotOptimize(r);
  }
  const double remote_s = SecondsSince(t0);

  std::printf("  one-shot SELECT x%d   in-process %8.1f stmt/s   remote "
              "%8.1f stmt/s   (tax %.1fx)\n",
              kExecutions, kExecutions / local_s, kExecutions / remote_s,
              remote_s / local_s);

  auto local_ins = RequireR(session->Prepare("INSERT item (num = ?, "
                                             "name = 'bench')"),
                            "local prepare");
  auto remote_ins = RequireR(client->Prepare("INSERT item (num = ?, "
                                             "name = 'bench')"),
                             "remote prepare");
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    Require(local_ins.Bind(0, Value::Int(100000 + i)), "bind");
    RequireR(local_ins.Execute(), "local insert");
  }
  const double local_ins_s = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    Require(remote_ins.Bind(0, Value::Int(200000 + i)), "bind");
    RequireR(remote_ins.Execute(), "remote insert");
  }
  const double remote_ins_s = SecondsSince(t0);
  std::printf("  prepared INSERT x%d   in-process %8.1f stmt/s   remote "
              "%8.1f stmt/s   (tax %.1fx)\n\n",
              kExecutions, kExecutions / local_ins_s,
              kExecutions / remote_ins_s, remote_ins_s / local_ins_s);
}

void ReportConnectionStorm() {
  PrintHeader("network server — concurrent connection storm",
              "thread-per-connection: each connection owns one server-side "
              "session; p50/p99 are per-statement latencies seen by the "
              "remote clients");

  std::printf("  %11s %14s %12s %12s\n", "connections", "stmt/s total",
              "p50 (us)", "p99 (us)");
  // The CI smoke run (PRIMA_BENCH_SMOKE set) skips the widest tier; the
  // full report storms hundreds of connections.
  const bool smoke = std::getenv("PRIMA_BENCH_SMOKE") != nullptr;
  const std::vector<int> tiers =
      smoke ? std::vector<int>{8, 64} : std::vector<int>{8, 64, 256};
  for (const int kConns : tiers) {
    auto db = OpenNetDb(static_cast<uint32_t>(kConns) + 8);
    SetupItemSchema(db.get());
    constexpr int kStatementsPerConn = 60;

    LatencyRecorder latencies;
    std::atomic<uint64_t> statements{0};
    std::vector<std::thread> threads;
    threads.reserve(kConns);
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        auto client = ConnectLoopback(db.get());
        for (int i = 0; i < kStatementsPerConn; ++i) {
          const auto s0 = std::chrono::steady_clock::now();
          if (i % 4 == 3) {
            RequireR(client->Execute("SELECT ALL FROM item WHERE num >= "
                                     "60"),
                     "storm select");
          } else {
            Require(client->Begin(), "begin");
            RequireR(client->Execute("INSERT item (num = " +
                                     std::to_string(1000 + c * 1000 + i) +
                                     ", name = 'storm')"),
                     "storm insert");
            Require(client->Commit(), "commit");
          }
          latencies.RecordUs(SecondsSince(s0) * 1e6);
          statements.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double wall_s = SecondsSince(t0);
    const obs::HistogramSnapshot snap = latencies.Snapshot();
    std::printf("  %11d %14.0f %12.0f %12.0f\n", kConns,
                statements.load() / wall_s, static_cast<double>(snap.p50()),
                static_cast<double>(snap.p99()));
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Microbenchmarks (the CI smoke filter runs BM_RemoteExecute)
// ---------------------------------------------------------------------------

void BM_RemoteExecute(benchmark::State& state) {
  auto db = OpenNetDb(/*max_connections=*/8);
  SetupItemSchema(db.get());
  auto client = ConnectLoopback(db.get());
  for (auto _ : state) {
    auto r = RequireR(client->Execute("SELECT ALL FROM item WHERE num >= 60"),
                      "select");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteExecute);

void BM_InProcessExecute(benchmark::State& state) {
  auto db = OpenDb();
  SetupItemSchema(db.get());
  auto session = db->OpenSession();
  for (auto _ : state) {
    auto r = RequireR(session->Execute("SELECT ALL FROM item WHERE num >= 60"),
                      "select");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InProcessExecute);

// Open + drain + close of a remote cursor: the open's reply carries the
// first 16 molecules, each further batch is one fetch, and the close sends
// nothing once the last batch has arrived.
void BM_RemoteCursorStream(benchmark::State& state) {
  auto db = OpenNetDb(/*max_connections=*/8);
  SetupItemSchema(db.get());
  auto client = ConnectLoopback(db.get());
  for (auto _ : state) {
    auto cursor = RequireR(client->OpenCursor("SELECT ALL FROM item",
                                              /*batch_size=*/16),
                           "cursor");
    size_t n = 0;
    for (;;) {
      auto m = RequireR(cursor.Next(), "next");
      if (!m.has_value()) break;
      ++n;
    }
    benchmark::DoNotOptimize(n);
    (void)cursor.Close();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteCursorStream);

}  // namespace
}  // namespace prima::bench

int main(int argc, char** argv) {
  prima::bench::ReportWireTax();
  prima::bench::ReportConnectionStorm();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
