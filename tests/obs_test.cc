// Kernel telemetry tests: histogram bucket math and percentile accuracy,
// the 8-thread merge storm, registry rendering, the phase table and
// EXPLAIN ANALYZE reports (golden phase sets), slow-query ring capture and
// eviction, the one-counter-source contract (every
// counter of every layer's table is on the metrics page exactly once, with
// its stats() value), and the concurrent storms the TSan CI job runs
// against the lock-free stats paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "core/session.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace prima::obs {
namespace {

using core::Prima;
using core::PrimaOptions;
using core::PrimaStatsSnapshot;
using core::Session;
using mql::ExecResult;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < kHistogramSubBuckets; ++v) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(idx), v);
    EXPECT_EQ(Histogram::BucketUpperBound(idx), v + 1);
  }
}

TEST(HistogramTest, BucketBoundsBracketTheValue) {
  for (uint64_t v : {8ull, 9ull, 100ull, 1000ull, 4096ull, 65535ull,
                     1000000ull, 123456789ull, (1ull << 40) + 17,
                     ~0ull >> 1}) {
    const size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, kHistogramBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(idx), v) << v;
    EXPECT_GT(Histogram::BucketUpperBound(idx), v) << v;
    // Log-linear contract: bucket width <= 12.5% of its lower bound.
    const uint64_t lo = Histogram::BucketLowerBound(idx);
    const uint64_t width = Histogram::BucketUpperBound(idx) - lo;
    if (lo >= kHistogramSubBuckets) {
      EXPECT_LE(width * 8, lo + 7) << "bucket too wide at " << v;
    }
  }
}

TEST(HistogramTest, PercentilesOnUniformData) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  // Within the 12.5% bucket-width error bound (plus interpolation slack).
  EXPECT_NEAR(static_cast<double>(snap.p50()), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(snap.p95()), 950.0, 950.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(snap.p99()), 990.0, 990.0 * 0.15);
  EXPECT_EQ(snap.Mean(), 500u);
}

TEST(HistogramTest, EightThreadMergeStorm) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      const uint64_t value = static_cast<uint64_t>(t) * 10 + 1;
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(value);
    });
  }
  // Concurrent snapshots must always be internally sane (monotone counts,
  // never torn below zero), even mid-storm.
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot mid = h.Snapshot();
    EXPECT_LE(mid.count, kThreads * kPerThread);
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum = want_sum + (static_cast<uint64_t>(t) * 10 + 1) * kPerThread;
  }
  EXPECT_EQ(snap.sum, want_sum);
}

TEST(HistogramSnapshotTest, MergeAddsCountsAndBuckets) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(1000);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 200u);
  EXPECT_EQ(merged.sum, 100u * 10 + 100u * 1000);
  EXPECT_LE(merged.p50(), 12u);
  EXPECT_GE(merged.p99(), 900u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesAndHistogramsRender) {
  MetricsRegistry reg;
  std::atomic<uint64_t> hits{42};
  reg.RegisterCounter("prima_test_hits", &hits, "test counter");
  reg.RegisterGauge("prima_test_depth", [] { return uint64_t{7}; });
  Histogram* h = reg.RegisterHistogram("prima_test_us", "test latency");
  h->Record(100);
  h->Record(200);

  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE prima_test_hits counter"), std::string::npos);
  EXPECT_NE(text.find("prima_test_hits 42"), std::string::npos);
  EXPECT_NE(text.find("# HELP prima_test_hits test counter"),
            std::string::npos);
  EXPECT_NE(text.find("prima_test_depth 7"), std::string::npos);
  EXPECT_NE(text.find("prima_test_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("prima_test_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("prima_test_us_sum 300"), std::string::npos);

  hits.fetch_add(1);
  EXPECT_NE(reg.RenderText().find("prima_test_hits 43"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramRegistrationDedupsByName) {
  MetricsRegistry reg;
  Histogram* a = reg.RegisterHistogram("prima_same_us");
  Histogram* b = reg.RegisterHistogram("prima_same_us");
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Trace plumbing
// ---------------------------------------------------------------------------

/// Phase paths ("execute/assembly") parsed back out of a rendered phase
/// table: line 1 is the header, line 2 the total, then one phase per line,
/// indented two spaces per depth.
std::vector<std::string> PhasePaths(const std::string& rendered) {
  std::vector<std::string> paths;
  std::vector<std::string> stack;
  std::istringstream in(rendered);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    if (++lineno <= 2 || line.empty()) continue;
    const size_t indent = line.find_first_not_of(' ');
    const size_t depth = indent / 2;
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    stack.resize(depth);
    stack.push_back(name);
    std::string path;
    for (const std::string& s : stack) {
      if (!path.empty()) path += "/";
      path += s;
    }
    paths.push_back(path);
  }
  return paths;
}

TEST(TraceTest, EveryPhaseRendersUnderItsPathInTableOrder) {
  // Record into every phase, in the reverse of the table's order: the
  // report follows the table, not the order of first use.
  StatementTrace trace;
  trace.Add(Phase::kCommit, 9000);
  trace.Tally(Phase::kCommit, 0);
  trace.Add(Phase::kBuffer, 5000);
  trace.Tally(Phase::kBuffer, 1);
  for (int i = 0; i < 3; ++i) {
    trace.Add(Phase::kBuffer, 0);
    trace.Tally(Phase::kBuffer, 0);
  }
  trace.Add(Phase::kVersionChain, 700);
  trace.Add(Phase::kProject, 600);
  trace.Add(Phase::kAssembly, 2500);
  trace.Tally(Phase::kAssembly, 0);
  trace.Add(Phase::kRoots, 400);
  trace.Tally(Phase::kRoots, 0);
  trace.Add(Phase::kPlan, 300);
  trace.Tally(Phase::kPlan, 1);
  trace.Add(Phase::kParse, 1500);
  trace.Finish();

  EXPECT_EQ(trace.PhaseNames(),
            (std::vector<std::string>{
                "parse", "plan", "execute", "execute/roots",
                "execute/assembly", "execute/project",
                "execute/version_chain", "buffer", "commit"}));
  const std::string text = trace.Render("test");
  EXPECT_EQ(PhasePaths(text), trace.PhaseNames()) << text;
  // Each phase's tallies sit on its own line.
  const auto line_of = [&text](const std::string& name) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string first;
      if ((fields >> first) && first == name) return line;
    }
    return std::string();
  };
  EXPECT_NE(line_of("plan").find("[cache_miss=1]"), std::string::npos);
  // Plan's tallies are alternatives: the one that did not happen is left out.
  EXPECT_EQ(line_of("plan").find("cache_hit"), std::string::npos);
  EXPECT_NE(line_of("roots").find("[roots=1]"), std::string::npos);
  EXPECT_NE(line_of("assembly").find("[molecules=1]"), std::string::npos);
  // Kernel tallies split or bound their phase's episodes, so zeros print.
  EXPECT_NE(line_of("version_chain").find("[resolved=0]"), std::string::npos);
  const std::string buffer = line_of("buffer");
  EXPECT_NE(buffer.find("x4  [hits=3]  [misses=1]"), std::string::npos)
      << buffer;
  EXPECT_NE(buffer.find(" 5 us"), std::string::npos) << buffer;
  EXPECT_NE(line_of("commit").find("[force_waits=1]"), std::string::npos);
  // The execute parent ran nothing itself: it prints for its children.
  EXPECT_EQ(line_of("execute").find("["), std::string::npos);

  // Untouched phases are absent; a child pulls in its parent.
  StatementTrace chain_only;
  chain_only.Add(Phase::kVersionChain, 100);
  chain_only.Finish();
  EXPECT_EQ(chain_only.PhaseNames(),
            (std::vector<std::string>{"execute", "execute/version_chain"}));
  StatementTrace hit_only;
  hit_only.Tally(Phase::kPlan, 0);
  hit_only.Finish();
  EXPECT_EQ(hit_only.PhaseNames(), (std::vector<std::string>{"plan"}));
  EXPECT_NE(hit_only.Render("t").find("[cache_hit=1]"), std::string::npos);
  StatementTrace empty;
  empty.Finish();
  EXPECT_TRUE(empty.PhaseNames().empty());
}

TEST(SlowQueryLogTest, CapturesAndEvictsOldestFirst) {
  SlowQueryLog log(/*capacity=*/2);
  log.Record("s1", 100, "t1");
  log.Record("s2", 200, "t2");
  log.Record("s3", 300, "t3");
  EXPECT_EQ(log.captured(), 3u);
  const std::vector<SlowStatement> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].text, "s2");
  EXPECT_EQ(snap[1].text, "s3");
  EXPECT_LT(snap[0].sequence, snap[1].sequence);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE through the kernel
// ---------------------------------------------------------------------------

/// Microsecond reading of one top-level or nested phase line.
uint64_t PhaseUs(const std::string& rendered, const std::string& phase) {
  std::istringstream in(rendered);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t us = 0;
    if ((fields >> name >> us) && name == phase) return us;
  }
  return 0;
}

std::unique_ptr<Prima> OpenDb(PrimaOptions options = {}) {
  auto db = Prima::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

void LoadItems(Session* session, int n) {
  auto ddl = session->Execute(
      "CREATE ATOM_TYPE item (item_id: IDENTIFIER, num: INTEGER, "
      "name: CHAR_VAR) KEYS_ARE (num)");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  for (int i = 1; i <= n; ++i) {
    auto r = session->Execute("INSERT item (num = " + std::to_string(i) +
                              ", name = 'i" + std::to_string(i) + "')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ExplainAnalyzeTest, EqKeySelectReportsDistinctPhases) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  auto session = db->OpenSession();
  LoadItems(session.get(), 50);

  auto r = session->Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM item WHERE num = 17");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind, ExecResult::Kind::kText);
  const std::string& text = r->text;

  const std::vector<std::string> paths = PhasePaths(text);
  const std::set<std::string> set(paths.begin(), paths.end());
  EXPECT_TRUE(set.count("parse")) << text;
  EXPECT_TRUE(set.count("plan")) << text;
  EXPECT_TRUE(set.count("execute/roots")) << text;
  EXPECT_TRUE(set.count("execute/assembly")) << text;
  EXPECT_TRUE(set.count("buffer")) << text;
  // EXPLAIN ANALYZE bypasses the statement cache, so parse and plan carry
  // real, non-zero time and the plan phase shows the cache miss.
  EXPECT_GT(PhaseUs(text, "parse"), 0u) << text;
  EXPECT_NE(text.find("[cache_miss=1]"), std::string::npos) << text;
  EXPECT_NE(text.find("[hits="), std::string::npos) << text;
  EXPECT_NE(text.find("molecule(s)"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, CursorRunsItsPhases) {
  // A query's span tree shows the cursor's phases: roots pulled, molecules
  // assembled and projected.
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  auto session = db->OpenSession();
  LoadItems(session.get(), 120);
  auto r = session->Execute("EXPLAIN ANALYZE SELECT ALL FROM item");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind, ExecResult::Kind::kText);
  const std::vector<std::string> paths = PhasePaths(r->text);
  const std::set<std::string> phases(paths.begin(), paths.end());
  EXPECT_TRUE(phases.count("execute/roots")) << r->text;
  EXPECT_TRUE(phases.count("execute/assembly")) << r->text;
  EXPECT_TRUE(phases.count("execute/project")) << r->text;
  // A 120-item scan spends real time assembling.
  EXPECT_GT(PhaseUs(r->text, "assembly"), 0u) << r->text;
}

TEST(ExplainAnalyzeTest, NeverCachedAndRefusedWhereItCannotTrace) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  auto session = db->OpenSession();
  LoadItems(session.get(), 5);

  // Repeated EXPLAIN ANALYZE must re-parse every time (a cache hit would
  // blank the parse/plan phases).
  for (int i = 0; i < 3; ++i) {
    auto r = session->Execute(
        "EXPLAIN ANALYZE SELECT ALL FROM item WHERE num = 2");
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->text.find("[cache_miss=1]"), std::string::npos) << r->text;
  }

  EXPECT_FALSE(session->Execute("EXPLAIN ANALYZE BEGIN WORK").ok());
  EXPECT_FALSE(
      session->Execute("EXPLAIN ANALYZE SELECT ALL FROM item WHERE num = ?")
          .ok());
  EXPECT_FALSE(session->Query("EXPLAIN ANALYZE SELECT ALL FROM item").ok());
  EXPECT_FALSE(
      session->Prepare("EXPLAIN ANALYZE SELECT ALL FROM item").ok());

  // DML traces too: the commit phase shows the WAL force wait.
  auto ins = session->Execute("EXPLAIN ANALYZE INSERT item (num = 99, "
                              "name = 'x')");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_NE(ins->text.find("commit"), std::string::npos) << ins->text;
  EXPECT_NE(ins->text.find("inserted"), std::string::npos) << ins->text;

  // A qualified MODIFY traces the qualification of its targets: items 1..5
  // fail `num >= 10`, item 99 is the one atom affected.
  auto mod = session->Execute(
      "EXPLAIN ANALYZE MODIFY item SET name = 'y' WHERE num >= 10");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  const std::vector<std::string> paths = PhasePaths(mod->text);
  const std::set<std::string> set(paths.begin(), paths.end());
  EXPECT_TRUE(set.count("execute/roots")) << mod->text;
  EXPECT_TRUE(set.count("execute/assembly")) << mod->text;
  EXPECT_NE(mod->text.find("EXPLAIN ANALYZE: 1 atom(s) affected"),
            std::string::npos)
      << mod->text;
}

// ---------------------------------------------------------------------------
// Production tracing knobs
// ---------------------------------------------------------------------------

TEST(TelemetryTest, SlowQueryRingCapturesTracedStatements) {
  PrimaOptions options;
  options.slow_statement_us = 1;  // everything is "slow"
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->telemetry()->slow_log().capacity(), 64u);
  auto session = db->OpenSession();
  LoadItems(session.get(), 10);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session->Execute("SELECT ALL FROM item WHERE num = 3").ok());
  }

  std::vector<SlowStatement> selects;
  for (SlowStatement& s : db->slow_statements()) {
    if (s.text == "SELECT ALL FROM item WHERE num = 3") {
      selects.push_back(std::move(s));
    }
  }
  ASSERT_EQ(selects.size(), 2u);
  const SlowStatement& first = selects[0];
  const SlowStatement& cached = selects[1];
  EXPECT_NE(first.trace.find("parse"), std::string::npos) << first.trace;
  EXPECT_NE(first.trace.find("[cache_miss=1]"), std::string::npos);
  // The second run is a statement-cache hit: no parse, and the plan line
  // shows the hit.
  const std::vector<std::string> paths = PhasePaths(cached.trace);
  EXPECT_EQ(std::count(paths.begin(), paths.end(), "parse"), 0)
      << cached.trace;
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), "plan") << cached.trace;
  EXPECT_NE(cached.trace.find("[cache_hit=1]"), std::string::npos)
      << cached.trace;
  EXPECT_GE(db->stats().slow_statements, 2u);
  // Arming the slow-query knob traces every statement: the DDL, ten
  // INSERTs and the two SELECTs.
  EXPECT_GE(db->stats().traced_statements, 13u);
}

TEST(TelemetryTest, StatsSnapshotIsCoherentAcrossLayers) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  auto session = db->OpenSession();
  LoadItems(session.get(), 30);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session->Execute("SELECT ALL FROM item").ok());
  }
  const auto snap = db->stats();
  EXPECT_GT(snap.statement_us.count, 0u);  // every statement recorded
  EXPECT_GT(snap.data.queries, 0u);
  EXPECT_GT(snap.data.molecules_built, 0u);
  EXPECT_GT(snap.access.atoms_inserted, 0u);
  EXPECT_GT(snap.buffer.hits + snap.buffer.misses, 0u);
  EXPECT_GT(snap.wal.records_appended, 0u);
  EXPECT_EQ(snap.net.connections_accepted, 0u);  // no server running

  const std::string page = db->MetricsText();
  EXPECT_NE(page.find("prima_statement_us"), std::string::npos);
  EXPECT_NE(page.find("prima_buffer_hits"), std::string::npos);
  EXPECT_NE(page.find("prima_atoms_inserted"), std::string::npos);
  EXPECT_NE(page.find("prima_wal_records_appended"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One counter source: stats(), MetricsText() and the wire read the same
// per-layer counter tables
// ---------------------------------------------------------------------------

/// Every counter of a stats() snapshot, layer table by layer table, as
/// (metric name, stats() value).
std::vector<std::pair<std::string, uint64_t>> TableCounters(
    const PrimaStatsSnapshot& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  const auto add = [&out](const auto& stats, const auto& table) {
    for (const auto& def : table) out.emplace_back(def.name, stats.*def.field);
  };
  add(s.buffer, storage::kBufferCounters);
  add(s.access, access::kAccessCounters);
  add(s.versions, access::kVersionStoreCounters);
  add(s.data, mql::kDataCounters);
  add(s.txn, core::kTransactionCounters);
  add(s.wal, recovery::kWalCounters);
  add(s.net, net::kNetCounters);
  return out;
}

/// The `name value` lines of a metrics page (comments skipped), by name.
std::map<std::string, std::vector<uint64_t>> PageLines(
    const std::string& page) {
  std::map<std::string, std::vector<uint64_t>> lines;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    lines[line.substr(0, space)].push_back(
        std::stoull(line.substr(space + 1)));
  }
  return lines;
}

/// Inserts, a query, a prepared execute and a commit, locally and over the
/// wire, so every layer's counters move.
void RunFixedWorkload(Prima* db) {
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Execute("BEGIN WORK").ok());
  LoadItems(session.get(), 20);
  ASSERT_TRUE(session->Execute("COMMIT WORK").ok());
  auto query = session->Execute("SELECT ALL FROM item WHERE num >= 5");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto stmt = session->Prepare("SELECT ALL FROM item WHERE num = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->Bind(0, access::Value::Int(7)).ok());
  auto executed = stmt->Execute();
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  ASSERT_EQ(executed->molecules.size(), 1u);
  auto client = net::Client::Connect("127.0.0.1", db->net_server()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto remote = (*client)->Execute("SELECT ALL FROM item WHERE num = 3");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
}

TEST(ObsTest, EveryCounterIsOnThePageOnceWithItsStatsValue) {
  PrimaOptions options;
  options.listen_port = 0;
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  RunFixedWorkload(db.get());

  // A background thread (the server, a checkpoint) may still bump a
  // counter; compare against a page rendered between two identical stats()
  // snapshots.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::string page;
  for (int attempt = 0; attempt < 100; ++attempt) {
    counters = TableCounters(db->stats());
    page = db->MetricsText();
    if (TableCounters(db->stats()) == counters) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto lines = PageLines(page);
  for (const auto& [name, value] : counters) {
    const auto it = lines.find(name);
    if (it == lines.end()) {
      ADD_FAILURE() << name << " is in stats() but not on the page";
      continue;
    }
    ASSERT_EQ(it->second.size(), 1u) << name << " is on the page twice";
    EXPECT_EQ(it->second.front(), value) << name;
  }

  std::set<std::string> names;
  const std::vector<MetricSample> samples =
      db->telemetry()->registry().Snapshot();
  for (const MetricSample& sample : samples) {
    EXPECT_TRUE(names.insert(sample.name).second)
        << sample.name << " is registered twice";
  }
  // The names published before the counter tables existed keep them.
  for (const char* legacy :
       {"prima_buffer_hits", "prima_buffer_misses", "prima_buffer_evictions",
        "prima_buffer_writebacks", "prima_buffer_prefetched_pages",
        "prima_buffer_resident_bytes", "prima_atoms_inserted",
        "prima_atoms_read", "prima_atoms_modified", "prima_atoms_deleted",
        "prima_deferred_enqueued", "prima_deferred_applied",
        "prima_versions_installed", "prima_versions_retired",
        "prima_versions_resolved", "prima_version_chain_walks",
        "prima_version_chain_depth_1", "prima_version_chain_depth_2",
        "prima_version_chain_depth_3", "prima_version_chain_depth_4plus",
        "prima_snapshots_opened", "prima_versions_retained",
        "prima_snapshots_active", "prima_versions_oldest_snapshot_lsn",
        "prima_queries", "prima_molecules_built", "prima_cursor_molecules",
        "prima_statements_prepared", "prima_prepared_executions",
        "prima_stmt_cache_hits", "prima_stmt_cache_misses",
        "prima_txns_begun", "prima_txns_committed", "prima_txns_aborted",
        "prima_txn_lock_conflicts", "prima_txn_retries",
        "prima_txn_undo_applied", "prima_wal_records_appended",
        "prima_wal_bytes_appended", "prima_wal_forces",
        "prima_wal_commits_forced", "prima_wal_auto_checkpoints",
        "prima_wal_live_bytes", "prima_net_connections_active",
        "prima_net_statements_executed", "prima_net_molecules_streamed"}) {
    EXPECT_EQ(names.count(legacy), 1u) << legacy;
  }

  // The wire's stats reply is the same registry, by name.
  auto client = net::Client::Connect("127.0.0.1", db->net_server()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto wire = (*client)->Stats();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(wire->count(name), 1u) << name << " is not on the wire";
  }
  EXPECT_EQ(wire->count("prima_statement_us_p99"), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency storm (the TSan CI filter: ObsTest.Concurrent*)
// ---------------------------------------------------------------------------

TEST(ObsTest, ConcurrentCursorsVersusSnapshots) {
  PrimaOptions options;
  options.slow_statement_us = 1;  // every statement carries a trace
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  {
    auto setup = db->OpenSession();
    LoadItems(setup.get(), 60);
  }

  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> statements{0};

  // One thread polls every observable surface while the others execute.
  std::thread observer([&] {
    uint64_t last_count = 0;
    while (!stop.load()) {
      const auto snap = db->stats();
      EXPECT_GE(snap.statement_us.count, last_count);  // monotone, never torn
      last_count = snap.statement_us.count;
      const std::string page = db->MetricsText();
      EXPECT_FALSE(page.empty());
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &statements, t] {
      auto session = db->OpenSession();
      for (int i = 0; i < kIterations; ++i) {
        const int num = 1 + (t * kIterations + i) % 60;
        auto r = session->Execute("SELECT ALL FROM item WHERE num = " +
                                  std::to_string(num));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        statements.fetch_add(1);
        auto scan = session->Execute("EXPLAIN ANALYZE SELECT ALL FROM item");
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        statements.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true);
  observer.join();

  const auto snap = db->stats();
  // Every worker statement landed in the latency histogram (setup DDL/DML
  // recorded on top of the workers' count).
  EXPECT_GE(snap.statement_us.count, kThreads * kIterations * 2u);
  EXPECT_GE(snap.traced_statements, kThreads * kIterations * 2u);
}

TEST(ObsTest, ConcurrentCounterTablesStayOnThePage) {
  PrimaOptions options;
  options.parallel_workers = 2;  // QueryParallel units bump counters on workers
  options.listen_port = 0;       // the server's table is listed too
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  {
    auto setup = db->OpenSession();
    LoadItems(setup.get(), 60);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&db, &stop] {
      auto session = db->OpenSession();
      while (!stop.load()) {
        auto cursor = session->Query("SELECT ALL FROM item");
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        while (true) {
          auto m = cursor->Next();
          ASSERT_TRUE(m.ok()) << m.status().ToString();
          if (!m->has_value()) break;
        }
      }
    });
  }
  workers.emplace_back([&db, &stop] {
    while (!stop.load()) {
      auto set = db->QueryParallel("SELECT ALL FROM item", 2);
      ASSERT_TRUE(set.ok()) << set.status().ToString();
      ASSERT_EQ(set->size(), 60u);
    }
  });

  // Counters only grow: a page rendered between two snapshots reads each
  // counter inside their bounds, exactly once.
  const auto observe = [&db] {
    for (int round = 0; round < 50; ++round) {
      const auto before = TableCounters(db->stats());
      const auto lines = PageLines(db->MetricsText());
      const auto after = TableCounters(db->stats());
      ASSERT_EQ(before.size(), after.size());
      for (size_t i = 0; i < before.size(); ++i) {
        const std::string& name = before[i].first;
        const auto it = lines.find(name);
        ASSERT_TRUE(it != lines.end()) << name << " missing from the page";
        ASSERT_EQ(it->second.size(), 1u) << name;
        EXPECT_LE(before[i].second, it->second.front()) << name;
        EXPECT_LE(it->second.front(), after[i].second) << name;
      }
    }
  };
  observe();
  stop.store(true);
  for (auto& th : workers) th.join();
  EXPECT_GT(db->stats().data.queries, 0u);
}

}  // namespace
}  // namespace prima::obs
