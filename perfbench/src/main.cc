// prima_perfbench: one run of one workload. Sets the database up several
// times (setup_s), measures a closed-loop single-client window, audits the
// result, crashes the device after a fixed tail of ops and restarts from the
// crashed image several times (restart_s), then prints one JSON line.
//
//   prima_perfbench --workload mmo_inproc|mmo_wire|cad_spill --seed N
//                   --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the window alternates untraced and traced blocks and the line carries the
// per-layer metrics (see NOTES.md for every definition).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "measure.h"
#include "util/retry.h"
#include "util/thread_pool.h"
#include "workload.h"
#include "workloads/mmo.h"

namespace perfbench {
namespace {

using prima::util::Status;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- counters sampled at block boundaries -------------------------------------

enum Ctr : size_t {
  kPreparedExec,
  kPreparedPlans,
  kMolecules,
  kCommitted,
  kLockConflicts,
  kAtomsRead,
  kAtomsModified,
  kBackref,
  kVersionsInstalled,
  kChainWalks,
  kBufHits,
  kBufMisses,
  kEvictions,
  kWritebacks,
  kPrefetched,
  kReadaheadDropped,
  kWalBytes,
  kFpiBytes,
  kForces,
  kCommitsForced,
  kDevBackgroundNs,
  kBlocksRead,
  kBlocksWritten,
  kBytesWritten,
  kSyncs,
  kNetRequests,
  kStatements,
  kCtrCount
};

struct Counters {
  uint64_t v[kCtrCount] = {};
};

Counters Sample(Workload& w, uint64_t* versions_retained) {
  prima::core::Prima* db = w.db();
  const prima::core::PrimaStatsSnapshot s = db->stats();
  const DeviceCounters d = w.device()->Counters();
  Counters c;
  c.v[kPreparedExec] = s.data.prepared_executions;
  c.v[kPreparedPlans] = s.data.prepared_plans;
  c.v[kMolecules] = s.data.molecules_built;
  c.v[kCommitted] = s.txn.committed;
  c.v[kLockConflicts] = s.txn.lock_conflicts;
  c.v[kAtomsRead] = s.access.atoms_read;
  c.v[kAtomsModified] = s.access.atoms_modified;
  c.v[kBackref] = s.access.backref_maintenance;
  c.v[kVersionsInstalled] = s.versions.versions_installed;
  c.v[kChainWalks] = s.versions.chain_walks;
  c.v[kBufHits] = s.buffer.hits;
  c.v[kBufMisses] = s.buffer.misses;
  c.v[kEvictions] = s.buffer.evictions;
  c.v[kWritebacks] = s.buffer.writebacks;
  c.v[kPrefetched] = s.buffer.prefetched_pages;
  c.v[kReadaheadDropped] = s.buffer.readahead_dropped;
  c.v[kWalBytes] = s.wal.bytes_appended;
  c.v[kFpiBytes] = s.wal.full_page_image_bytes;
  c.v[kForces] = s.wal.forces;
  c.v[kCommitsForced] = s.wal.commits_forced;
  c.v[kDevBackgroundNs] = d.background_ns;
  c.v[kBlocksRead] = d.blocks_read;
  c.v[kBlocksWritten] = d.blocks_written;
  c.v[kBytesWritten] = d.bytes_written;
  c.v[kSyncs] = d.syncs;
  c.v[kNetRequests] = db->telemetry()->net_request_us()->Snapshot().count;
  c.v[kStatements] = w.statements();
  if (versions_retained != nullptr) {
    *versions_retained = s.versions.versions_retained;
  }
  return c;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

// --- the timed window ------------------------------------------------------------

/// Block types of a window: untraced primary lane, traced primary lane,
/// untraced comparison lane (in-process beside a wire lane).
enum Block : int { kUntraced = 0, kTraced, kComparison, kBlockTypes };

struct BlockTotals {
  uint64_t ops = 0;
  uint64_t wall_ns = 0;
  std::vector<uint64_t> latency_ns;
  std::vector<std::vector<uint64_t>> by_kind;
  Counters delta;
  bool counters_ok = true;
};

/// Space is read after a fixed amount of work, not at the end of the
/// window: the unbounded WAL grows with every op, so a reading at the end
/// would follow the machine's speed. 10,000 ops is also the fewest a run
/// needs to leave 100 samples beyond p99.
constexpr uint64_t kSpaceSnapshotOps = 10000;

struct Window {
  BlockTotals blocks[kBlockTypes];
  double device_mb = -1;    ///< after kSpaceSnapshotOps untraced ops
  double peak_rss_mb = -1;  ///< likewise
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t versions_retained_max = 0;
  std::string error;
};

constexpr uint64_t kTraceBlockNs = 100'000'000;  // 100 ms

Status RunOne(Workload& w, int lane, int* kind) {
  *kind = w.PlanNext();
  prima::util::RetryPolicy policy;
  return prima::util::RetryTransient(policy,
                                     [&] { return w.ExecutePlanned(lane); });
}

/// The host gauge samples this often in the window; its samples are not
/// part of any block's wall time. Around set-ups and restarts it takes
/// kGaugeBurst samples at a time.
constexpr uint64_t kGaugeEveryNs = 200'000'000;  // 200 ms
constexpr int kGaugeBurst = 5;

Window RunWindow(Workload& w, const RunArgs& args, HostGauge* gauge) {
  Window win;
  const size_t kinds = w.OpKindNames().size();
  for (auto& b : win.blocks) b.by_kind.resize(kinds);
  std::vector<Block> schedule = {kUntraced};
  if (args.trace) {
    schedule.push_back(kTraced);
    if (w.HasComparisonLane()) schedule.push_back(kComparison);
  }
  Tracer* tracer = w.tracer();
  const uint64_t start = NowNs();
  uint64_t next_gauge = start;
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.seconds * 1e9);
  for (size_t block_no = 0; NowNs() < deadline && win.error.empty();
       ++block_no) {
    const Block type = schedule[block_no % schedule.size()];
    BlockTotals& totals = win.blocks[type];
    const int lane = type == kComparison ? 1 : 0;
    uint64_t retained = 0;
    const Counters before = Sample(w, &retained);
    win.versions_retained_max = std::max(win.versions_retained_max, retained);
    tracer->Enable(type == kTraced);
    const uint64_t block_start = NowNs();
    const uint64_t block_end =
        args.trace ? std::min(deadline, block_start + kTraceBlockNs) : deadline;
    uint64_t last_end = block_start;
    uint64_t gauge_ns = 0;
    do {
      if (last_end >= next_gauge) {
        gauge->Sample();
        const uint64_t now = NowNs();
        gauge_ns += now - last_end;
        next_gauge = now + kGaugeEveryNs;
      }
      int kind = 0;
      Status st;
      uint64_t t0 = 0, t1 = 0;
      {
        Tracer::Scope op(tracer, SpanKind::kOp);
        t0 = NowNs();
        st = RunOne(w, lane, &kind);
        t1 = NowNs();
      }
      ++win.attempted;
      if (st.ok()) st = w.AcknowledgePlanned();
      if (!st.ok()) {
        ++win.failed;
        win.error = w.OpKindNames()[kind] + ": " + st.ToString();
        break;
      }
      totals.latency_ns.push_back(t1 - t0);
      totals.by_kind[kind].push_back(t1 - t0);
      if (++totals.ops == kSpaceSnapshotOps && type == kUntraced) {
        win.device_mb = static_cast<double>(w.device()->OccupiedBytes()) / 1e6;
        win.peak_rss_mb = PeakRssMb();
      }
      last_end = NowNs();
    } while (last_end < block_end);
    tracer->Enable(false);
    totals.wall_ns += last_end - block_start - gauge_ns;
    const Counters after = Sample(w, &retained);
    win.versions_retained_max = std::max(win.versions_retained_max, retained);
    for (size_t i = 0; i < kCtrCount; ++i) {
      if (after.v[i] < before.v[i]) totals.counters_ok = false;
      else totals.delta.v[i] += after.v[i] - before.v[i];
    }
  }
  return win;
}

// --- helpers -------------------------------------------------------------------------


std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string JsonFields(const Fields& fields) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < fields.size(); ++i) {
    const double v = std::isfinite(fields[i].second) ? fields[i].second : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + fields[i].first + "\": " + buf;
  }
  return out + "}";
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Confine the process, and every thread it starts later, to the last CPU
/// it may run on; returns that CPU, or -1 if the affinity could not be set.
/// On a small VM a wake-up of another vCPU waits for the hypervisor to
/// schedule it, which made the same run differ by 30% and more; on one CPU
/// the client, pool workers and server threads hand off by plain context
/// switches. The kernel's knobs still resolve from the online CPU count.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

// --- the run ---------------------------------------------------------------------------

struct RestartResult {
  std::vector<double> seconds;
  uint64_t replay_bytes = 0;
  uint64_t redo_records = 0;
  uint64_t redo_threads = 0;
};

int Run(const RunArgs& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "mmo_inproc") w = MakeMmoWorkload(args, false);
  else if (args.workload == "mmo_wire") w = MakeMmoWorkload(args, true);
  else if (args.workload == "cad_spill") w = MakeCadWorkload(args);
  else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int cpu = PinToOneCpu();
  w->tracer()->AttachToThisThread();
  const int setup_reps = args.trace ? 1 : 3;
  const int restart_reps = args.trace ? 1 : w->RestartReps();

  auto fail = [&](const std::string& what, uint64_t attempted,
                  uint64_t failed) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 what.c_str());
    std::printf("{\"workload\": \"%s\", \"correct\": false, \"attempted\": %llu,"
                " \"failed\": %llu, \"error\": \"%s\", \"metrics\": {}}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(failed),
                JsonEscape(what).c_str());
    return 1;
  };

  // The host gauge samples before and after every set-up and restart and
  // through the window; the median rate of a phase's samples scales the
  // phase's times to the nominal host speed (see NOTES.md).
  HostGauge gauge;
  if (!gauge.Start()) return fail("cannot start the host gauge", 1, 1);
  const auto sample_host = [&gauge] {
    for (int i = 0; i < kGaugeBurst; ++i) gauge.Sample();
  };

  // Set-up, several times: each builds a fresh database; the last one is
  // measured.
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps; ++r) {
    w->Close();  // the previous database's shutdown is not set-up
    sample_host();
    const uint64_t t0 = NowNs();
    Status st = w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) return fail("setup: " + st.ToString(), 1, 1);
  }
  sample_host();
  const double setup_rate = gauge.RateSince(0);
  prima::core::Prima* db = w->db();
  Fields config = {
      {"optimized",
#ifdef __OPTIMIZE__
       1
#else
       0
#endif
      },
      {"nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))},
      {"hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"pinned_cpu", static_cast<double>(cpu)},
      {"seed", static_cast<double>(args.seed)},
      {"seconds", args.seconds},
      {"clients", 1},
      {"setup_reps", static_cast<double>(setup_reps)},
      {"restart_reps", static_cast<double>(restart_reps)},
      {"buffer_shards",
       static_cast<double>(db->storage().buffer().shard_count())},
      {"cursor_assembly_threads",
       static_cast<double>(db->data().executor().assembly_threads())},
      {"readahead_pages",
       static_cast<double>(db->storage().readahead_window())},
      {"parallel_workers", static_cast<double>(db->pool().num_threads())},
      {"recovery_threads",
       static_cast<double>(prima::util::ThreadPool::DefaultThreads())},
  };
  for (const auto& f : w->Config()) config.push_back(f);

  // Run the stream to its steady state, then the timed window.
  const int steady_lane = w->HasComparisonLane() ? 1 : 0;
  for (int i = 0; i < w->SteadyOps(); ++i) {
    int kind = 0;
    Status st = RunOne(*w, steady_lane, &kind);
    if (st.ok()) st = w->AcknowledgePlanned();
    if (!st.ok()) return fail("steady-state op: " + st.ToString(), 1, 1);
  }
  const Counters run_before = Sample(*w, nullptr);
  const uint64_t device_before = w->device()->Counters().bytes_written;
  const size_t window_first_sample = gauge.samples();
  Window win = RunWindow(*w, args, &gauge);
  const double window_rate = gauge.RateSince(window_first_sample);
  const uint64_t device_written =
      w->device()->Counters().bytes_written - device_before;
  const Counters run_after = Sample(*w, nullptr);
  const prima::core::PrimaStatsSnapshot end_stats = db->stats();
  const uint64_t net_p99_us =
      db->telemetry()->net_request_us()->Snapshot().p99();
  if (!win.error.empty()) {
    return fail("op failed: " + win.error, win.attempted, win.failed);
  }
  Status st = w->Audit();
  if (!st.ok()) return fail("audit after the window: " + st.ToString(),
                            win.attempted, 1);
  // One client: a lock conflict means the kernel raced itself.
  const uint64_t lock_conflicts =
      run_after.v[kLockConflicts] - run_before.v[kLockConflicts];
  if (lock_conflicts != 0) {
    return fail(std::to_string(lock_conflicts) + " lock conflicts in the window",
                win.attempted, 1);
  }
  for (const BlockTotals& b : win.blocks) {
    if (!b.counters_ok) {
      return fail("a kernel counter went backwards", win.attempted, 1);
    }
  }

  // Crash after a checkpoint and a fixed tail of ops; restart from copies
  // of the crashed image.
  RestartResult restart;
  st = db->Flush();
  if (!st.ok()) return fail("checkpoint: " + st.ToString(), win.attempted, 1);
  const uint64_t wal_before_tail = db->stats().wal.bytes_appended;
  w->tracer()->Enable(false);
  for (int i = 0; i < w->TailOps(); ++i) {
    int kind = 0;
    st = RunOne(*w, 0, &kind);
    if (st.ok()) st = w->AcknowledgePlanned();
    if (!st.ok()) return fail("tail op: " + st.ToString(), win.attempted, 1);
  }
  restart.replay_bytes = db->stats().wal.bytes_appended - wal_before_tail;
  w->Crash();
  db = nullptr;
  const size_t restart_first_sample = gauge.samples();
  for (int r = 0; r < restart_reps; ++r) {
    auto options = w->RestartOptions(r);
    if (!options.ok()) {
      return fail("restart copy: " + options.status().ToString(),
                  win.attempted, 1);
    }
    sample_host();
    const uint64_t t0 = NowNs();
    auto reopened = prima::core::Prima::Open(*options);
    const uint64_t t1 = NowNs();
    if (!reopened.ok()) {
      return fail("restart: " + reopened.status().ToString(), win.attempted,
                  1);
    }
    restart.seconds.push_back(static_cast<double>(t1 - t0) / 1e9);
    restart.redo_records = (*reopened)->recovery()->stats().redo_applied;
    restart.redo_threads = (*reopened)->recovery()->stats().redo_threads;
    st = w->AuditRecovered(reopened->get());
    if (!st.ok()) {
      return fail("audit after restart: " + st.ToString(), win.attempted, 1);
    }
  }
  sample_host();
  // Every sample the harness asked for must have been taken, or the scaling
  // would rest on a stopped gauge.
  const size_t gauge_expected =
      static_cast<size_t>(kGaugeBurst) * (setup_reps + 1 + restart_reps + 1);
  if (gauge.samples() < gauge_expected) {
    return fail("the host gauge stopped answering", win.attempted, 1);
  }
  const double restart_rate = gauge.RateSince(restart_first_sample);
  config.push_back({"restart_redo_threads",
                    static_cast<double>(restart.redo_threads)});

  // Metrics.
  const BlockTotals& u = win.blocks[kUntraced];
  std::vector<uint64_t> sorted = u.latency_ns;
  std::sort(sorted.begin(), sorted.end());
  const size_t beyond = CountBeyond(sorted, 99.0);
  const double u_tput =
      Ratio(static_cast<double>(u.ops), static_cast<double>(u.wall_ns) / 1e9);
  const double host = HostFactor(window_rate);
  Fields metrics;
  if (!args.trace) {
    if (!TailResolved(sorted)) {
      return fail("only " + std::to_string(beyond) +
                      " samples beyond p99 (need 100): the window is too short",
                  win.attempted, 1);
    }
    if (win.device_mb < 0) {
      return fail("fewer than " + std::to_string(kSpaceSnapshotOps) +
                      " ops in the window",
                  win.attempted, 1);
    }
    const uint64_t ops = u.ops;
    metrics = {
        {"throughput_ops_s", u_tput / host},
        {"latency_p50_us", Us(Percentile(sorted, 50)) * host},
        {"latency_p99_us", Us(Percentile(sorted, 99)) * host},
        {"setup_s", Median(setup_s) * HostFactor(setup_rate)},
        {"restart_s", Median(restart.seconds) * HostFactor(restart_rate)},
        {"write_bytes_per_op",
         PerOp(0, device_written, ops)},
        {"device_mb", win.device_mb},
        {"peak_rss_mb", win.peak_rss_mb},
    };
  } else {
    const BlockTotals& t = win.blocks[kTraced];
    const BlockTotals& cmp = win.blocks[kComparison];
    // Counter deltas over both primary-lane block types.
    Counters p;
    for (size_t i = 0; i < kCtrCount; ++i) {
      p.v[i] = u.delta.v[i] + t.delta.v[i];
    }
    const uint64_t ops_p = u.ops + t.ops;
    const auto per_op = [&](Ctr c) { return PerOp(0, p.v[c], ops_p); };
    const KindTotals spans = TotalsByKind(w->tracer()->spans());
    const auto self_us = [&](std::initializer_list<SpanKind> kinds) {
      uint64_t ns = 0;
      for (SpanKind k : kinds) ns += spans.self_ns[static_cast<size_t>(k)];
      return Ratio(Us(ns), static_cast<double>(t.ops));
    };
    // Exact median of the statement calls the client timed (in process).
    std::vector<uint64_t> stmt_ns;
    for (const Span& s : w->tracer()->spans()) {
      if (s.kind == SpanKind::kCoreBegin || s.kind == SpanKind::kCoreCommit ||
          s.kind == SpanKind::kCoreAbort || s.kind == SpanKind::kMqlExecute ||
          s.kind == SpanKind::kMqlPrepared) {
        stmt_ns.push_back(s.end_ns - s.start_ns);
      }
    }
    std::sort(stmt_ns.begin(), stmt_ns.end());
    const double t_tput =
        Ratio(static_cast<double>(t.ops), static_cast<double>(t.wall_ns) / 1e9);
    std::vector<uint64_t> cmp_sorted = cmp.latency_ns;
    std::sort(cmp_sorted.begin(), cmp_sorted.end());
    const uint64_t hits = p.v[kBufHits], fixes = hits + p.v[kBufMisses];
    metrics = {
        {"mql.exec_us", self_us({SpanKind::kMqlExecute, SpanKind::kMqlPrepared,
                                 SpanKind::kMqlBind})},
        {"mql.statements_per_op", per_op(kStatements)},
        {"mql.plans_per_exec",
         Ratio(static_cast<double>(p.v[kPreparedPlans]),
               static_cast<double>(p.v[kPreparedExec]))},
        {"mql.cursor_open_us", self_us({SpanKind::kMqlCursorOpen})},
        {"mql.cursor_next_us", self_us({SpanKind::kMqlCursorNext})},
        {"mql.cursor_close_us", self_us({SpanKind::kMqlCursorClose})},
        {"mql.molecules_per_op", per_op(kMolecules)},
        {"mql.statement_p50_us", Us(Percentile(stmt_ns, 50))},
        {"core.begin_us", self_us({SpanKind::kCoreBegin})},
        {"core.commit_us", self_us({SpanKind::kCoreCommit})},
        {"core.query_parallel_us", self_us({SpanKind::kCoreParallel})},
        {"core.commits_per_op", per_op(kCommitted)},
        {"core.lock_conflicts", static_cast<double>(lock_conflicts)},
        {"access.atoms_read_per_op", per_op(kAtomsRead)},
        {"access.atoms_modified_per_op", per_op(kAtomsModified)},
        {"access.backref_maintenance_per_op", per_op(kBackref)},
        {"access.versions_installed_per_op", per_op(kVersionsInstalled)},
        {"access.chain_walks_per_op", per_op(kChainWalks)},
        {"access.versions_retained_max",
         static_cast<double>(win.versions_retained_max)},
        {"storage.page_fixes_per_op",
         PerOp(0, fixes, ops_p)},
        {"storage.buffer_hit_ratio",
         Ratio(static_cast<double>(hits), static_cast<double>(fixes))},
        {"storage.evictions_per_op", per_op(kEvictions)},
        {"storage.writebacks_per_op", per_op(kWritebacks)},
        {"storage.prefetched_pages_per_op", per_op(kPrefetched)},
        {"storage.readahead_dropped",
         static_cast<double>(p.v[kReadaheadDropped])},
        {"storage.device_read_us", self_us({SpanKind::kDeviceRead})},
        {"storage.device_write_us", self_us({SpanKind::kDeviceWrite})},
        {"storage.device_sync_us", self_us({SpanKind::kDeviceSync})},
        {"storage.blocks_read_per_op", per_op(kBlocksRead)},
        {"storage.blocks_written_per_op", per_op(kBlocksWritten)},
        {"storage.syncs_per_op", per_op(kSyncs)},
        {"storage.background_device_us",
         Ratio(Us(p.v[kDevBackgroundNs]), static_cast<double>(ops_p))},
        {"recovery.wal_bytes_per_op", per_op(kWalBytes)},
        {"recovery.fpi_bytes_per_op", per_op(kFpiBytes)},
        {"recovery.forces_per_op", per_op(kForces)},
        {"recovery.commits_per_force",
         Ratio(static_cast<double>(p.v[kCommitsForced]),
               static_cast<double>(p.v[kForces]))},
        {"recovery.replay_bytes", static_cast<double>(restart.replay_bytes)},
        {"recovery.redo_records", static_cast<double>(restart.redo_records)},
        {"net.calls_per_op", per_op(kNetRequests)},
        {"net.call_us",
         Ratio(Us(spans.self_ns[static_cast<size_t>(SpanKind::kNetCall)]),
               static_cast<double>(t.delta.v[kNetRequests]))},
        {"net.server_request_p99_us", static_cast<double>(net_p99_us)},
        {"net.overhead_us",
         w->HasComparisonLane()
             ? Us(Percentile(sorted, 50)) - Us(Percentile(cmp_sorted, 50))
             : 0.0},
        {"obs.statement_p50_us",
         static_cast<double>(end_stats.statement_us.p50())},
        {"obs.trace_overhead_pct",
         u_tput > 0 ? (u_tput - t_tput) / u_tput * 100.0 : 0.0},
        {"client.self_us", self_us({SpanKind::kOp})},
    };
    // Per-kind medians of the untraced samples, for every kind of every
    // workload (kinds this workload never issues read 0).
    std::vector<std::string> all_kinds;
    for (int k = 0; k < prima::workloads::kOpKinds; ++k) {
      all_kinds.push_back(prima::workloads::OpKindName(
          static_cast<prima::workloads::OpKind>(k)));
    }
    for (const char* k : {"get", "range_scan", "parallel_scan", "modify"}) {
      all_kinds.push_back(k);
    }
    const std::vector<std::string> mine = w->OpKindNames();
    for (const std::string& name : all_kinds) {
      double p50 = 0;
      for (size_t k = 0; k < mine.size(); ++k) {
        if (mine[k] != name) continue;
        std::vector<uint64_t> s = u.by_kind[k];
        std::sort(s.begin(), s.end());
        p50 = Us(Percentile(s, 50));
      }
      metrics.push_back({"op." + name + ".p50_us", p50});
    }
    if (!args.spans_path.empty() &&
        !WriteSpansCsv(w->tracer()->spans(), args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    }
  }
  const Fields counts = {
      {"host_rate_setup", setup_rate},
      {"host_rate_window", window_rate},
      {"host_rate_restart", restart_rate},
      {"host_samples", static_cast<double>(gauge.samples())},
      {"raw_throughput_ops_s", u_tput},
      {"raw_latency_p50_us", Us(Percentile(sorted, 50))},
      {"raw_latency_p99_us", Us(Percentile(sorted, 99))},
      {"raw_setup_s", Median(setup_s)},
      {"raw_restart_s", Median(restart.seconds)},
      {"samples", static_cast<double>(u.ops)},
      {"beyond_p99", static_cast<double>(beyond)},
      {"traced_samples", static_cast<double>(win.blocks[kTraced].ops)},
      {"comparison_samples", static_cast<double>(win.blocks[kComparison].ops)},
  };
  std::printf(
      "{\"workload\": \"%s\", \"correct\": true, \"attempted\": %llu, "
      "\"failed\": %llu, \"build_type\": \"%s\", \"config\": %s, "
      "\"counts\": %s, \"metrics\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(win.attempted),
      static_cast<unsigned long long>(win.failed), PERFBENCH_BUILD_TYPE,
      JsonFields(config).c_str(), JsonFields(counts).c_str(),
      JsonFields(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spans") args.spans_path = value;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: prima_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimized build\n");
  return 2;
#endif
  return perfbench::Run(args);
}
