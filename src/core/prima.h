#ifndef PRIMA_CORE_PRIMA_H_
#define PRIMA_CORE_PRIMA_H_

#include <memory>
#include <string>

#include "access/access_system.h"
#include "core/app_layer.h"
#include "core/session.h"
#include "core/transaction.h"
#include "ldl/ldl.h"
#include "mql/data_system.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "recovery/backup.h"
#include "recovery/checkpoint_daemon.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal_writer.h"
#include "storage/storage_system.h"
#include "util/thread_pool.h"

namespace prima::core {

/// Kernel-wide counter snapshot (Prima::stats()): one coherent, plain-data
/// picture of every layer, taken in one call. Each leg is the layer's own
/// stats struct copied (a relaxed load per counter), plus the gauges that
/// layer computes. Every counter here is also on MetricsText() and the
/// wire's stats reply, under the name its layer's counter table gives it;
/// a layer that is not running (no server) reads as zeros here and is
/// absent there.
struct PrimaStatsSnapshot {
  /// Buffer pool totals plus per-shard hit/miss/eviction breakdowns.
  storage::BufferStatsSnapshot buffer;
  /// Query/assembly counters of the data system (molecules built, cursor
  /// traffic, prepared-statement reuse).
  mql::DataStats data;
  /// Atom-level operation counters of the access system.
  access::AccessStats access;
  /// Log counters + footprint, plus the last restart's redo shape.
  recovery::WalStatsSnapshot wal;
  /// Version-store health (MVCC snapshot reads): chains installed/retired,
  /// chain-walk resolution counters and depth histogram, live snapshot
  /// pins, and the oldest LSN a pinned snapshot holds the watermark at.
  access::VersionStoreStatsSnapshot versions;
  /// Transaction-manager counters: begun/committed/aborted, lock conflicts
  /// (non-blocking 2PL refusals), driver-reported retries, undo applied.
  TransactionStats txn;
  /// Network server counters; all zero without a server.
  net::NetStats net;
  /// Statement latency distribution (microseconds) across every session.
  obs::HistogramSnapshot statement_us;
  /// Statements that carried a phase table (EXPLAIN ANALYZE or slow-query
  /// arming).
  uint64_t traced_statements = 0;
  /// Captures in the slow-query ring, ever (>= the ring's current size).
  uint64_t slow_statements = 0;
};

/// Database configuration.
struct PrimaOptions {
  /// In-memory block device (default) or a directory of segment files.
  bool in_memory = true;
  std::string path;

  /// Custom block device (crash-injection tests, shared devices). Overrides
  /// in_memory/path when set; the database holds a reference for its
  /// lifetime.
  std::shared_ptr<storage::BlockDevice> device;

  /// Cap on the WAL file size (0 = unbounded, the log only grows). With a
  /// cap the log becomes circular: each checkpoint (Flush()) retires the
  /// blocks below its undo floor and appends wrap onto them. The ring
  /// holds at least 64 KiB (WalWriter::kMinRingBytes): smaller caps are
  /// raised to that floor. Recorded in the log's master record at
  /// creation — reopening an existing log keeps its original geometry.
  /// The checkpoint daemon (below) keeps a well-behaved workload from ever
  /// hitting the ring's NoSpace point; with the daemon disabled, commits
  /// fail with NoSpace until the next Flush() truncates.
  uint64_t wal_max_bytes = 0;

  /// Background checkpoint daemon (active when wal_max_bytes > 0 &&
  /// checkpoint_ring_fraction > 0): a daemon thread owned by the
  /// database watches the live log window and takes a fuzzy checkpoint
  /// whenever live_bytes exceeds this fraction of the ring, so truncation
  /// recycles log space before commits need it — no manual Flush() calls
  /// required. The default 0.5 fires well before the ring's reserve-backed
  /// refusal point (75% of capacity on large rings). A committer that
  /// still catches the ring full pokes the daemon and retries once after
  /// the checkpoint completes, so only a genuinely wedged ring (e.g. a
  /// long-running transaction pinning the undo floor — watch
  /// WalStatsSnapshot::oldest_active_lsn) surfaces NoSpace. 0 disables
  /// the daemon (PR-2 behavior: checkpoint scheduling is the caller's
  /// problem).
  double checkpoint_ring_fraction = 0.5;

  /// Archive WAL blocks into an append-only archive file before circular
  /// truncation recycles them. Keeps the complete log history readable —
  /// the replay source media recovery needs beyond the live ring. Once an
  /// archive exists it stays active on every reopen regardless of this
  /// flag (a gap would silently break media recovery). Meaningless
  /// without wal_max_bytes (an unbounded log never recycles anything).
  bool wal_archive = false;

  /// MEDIA RECOVERY: before opening, wipe every data segment and rebuild
  /// the database from the last fuzzy backup (Prima::Backup) by replaying
  /// the archived log + live WAL from the dump's start point. Use when the
  /// data device is lost or corrupt beyond what restart recovery repairs;
  /// requires a committed backup dump on the device. The WAL,
  /// archive, and backup files are the surviving "separate media".
  bool restore_from_backup = false;

  storage::StorageOptions storage;
  access::AccessOptions access;

  /// Worker threads for semantic parallelism (0 = one per CPU this process
  /// may run on, so one usable CPU gives a one-worker pool).
  size_t parallel_workers = 0;

  /// Buffer pool partitions. Open() resolves the value into
  /// storage.buffer_shards (overriding anything set there): page ids are
  /// hashed across this many independently locked pools, each running its
  /// own clock-sweep eviction, so concurrent scanners stop serializing on
  /// one mutex. 0 = one shard per CPU this process may run on, capped at
  /// 16 (one usable CPU gives one shard); 1 = the pre-sharding single pool,
  /// behaviorally indistinguishable from the global-LRU kernel.
  size_t buffer_shards = 0;

  /// NETWORK SERVER: when >= 0, Open() also starts a TCP server speaking
  /// the framed wire protocol of net/protocol.h on this port (0 = let the
  /// kernel pick; read it back via net_server()->port()). Each accepted
  /// connection owns one server-side Session, so remote clients get the
  /// full session contract — explicit transactions across round trips,
  /// prepared statements, streaming cursors invalidated by aborts. The
  /// server starts last in Open() and stops first in ~Prima; a drain rolls
  /// every connection's open transaction back, logged. -1 = no server.
  int32_t listen_port = -1;
  /// Connections beyond this are refused with an error frame (0 = no cap).
  uint32_t net_max_connections = 256;
  /// Idle remote connections are closed after this long (0 = never).
  uint32_t net_idle_timeout_ms = 0;

  /// TELEMETRY — see the "Observability" section of the class comment.
  /// Statements slower than this many microseconds are captured — statement
  /// text plus phase table — into the slow-query ring of the last 64
  /// (Prima::slow_statements()). 0 disables capture; non-zero traces every
  /// statement (offenders are only identifiable after the fact).
  uint64_t slow_statement_us = 0;
};

/// PRIMA — the kernel facade. Wires the three layers of Fig. 3.1 together
/// with the load definition language, nested transactions, semantic
/// parallelism over a shared worker pool, and the application-layer object
/// buffer.
///
/// Quickstart — the session API is the primary client surface. A session
/// scopes transactions (`BEGIN WORK` … `COMMIT WORK` / `ABORT WORK`, with
/// DML outside them auto-committing atomically), compiles statements once
/// for repeated execution with `?` / `:name` placeholders, and streams
/// query results one molecule at a time:
///
///   auto db = *Prima::Open({});
///   auto session = db->OpenSession();
///   session->Execute("CREATE ATOM_TYPE point (point_id: IDENTIFIER, x: REAL)");
///
///   session->Execute("BEGIN WORK");
///   session->Execute("INSERT point (x = 1.5)");
///   session->Execute("COMMIT WORK");            // or ABORT WORK
///
///   auto stmt = *session->Prepare("SELECT ALL FROM point WHERE x > ?");
///   stmt.Bind(0, access::Value::Real(1.0));     // parsed+planned once,
///   auto cursor = *stmt.Query();                // executed many times
///   while (auto m = *cursor.Next()) { /* one molecule at a time */ }
///
/// Durability — every database keeps a write-ahead log (restart repeats
/// history from the last checkpoint, then rolls losers back). A top-level
/// commit forces the log before its locks drop; a checkpoint — Flush(),
/// and the exit checkpoint ~Prima takes — writes the data pages and
/// shortens the next restart. No layer's destructor writes. DDL is durable
/// only after a checkpoint, so a crash test must Flush() after creating
/// its schema.
///
/// The one-shot facade below (Execute / Query) opens a session for each
/// call and closes it before returning, so concurrent callers share
/// nothing but the database: DML auto-commits in the call's own implicit
/// transaction, and Query drains a cursor into a materialized MoleculeSet.
/// A transaction cannot outlive its call there, so the facade refuses
/// BEGIN / COMMIT / ABORT WORK — open a session for them. QueryParallel
/// reads one view pinned for the call, outside any session.
///
/// Remote access — set PrimaOptions::listen_port and the same session API
/// is served over TCP (net/server.h, framed protocol of net/protocol.h);
/// net/client.h is the matching client library:
///
///   PrimaOptions opts;
///   opts.listen_port = 0;                        // kernel-picked port
///   auto db = *Prima::Open(opts);
///   auto client = *net::Client::Connect("127.0.0.1",
///                                       db->net_server()->port());
///   client->Execute("BEGIN WORK");
///   client->Execute("INSERT point (x = 1.5)");
///   client->Execute("COMMIT WORK");              // durable once acked
///   auto cursor = *client->OpenCursor("SELECT ALL FROM point");
///   while (auto m = *cursor.Next()) { /* streamed in batches */ }
///
/// Remote-cursor lifetime contract: a remote cursor addresses state inside
/// its connection's server-side session, so it lives exactly as long as a
/// local MoleculeCursor would in that session — an ABORT WORK (or any
/// rollback, including the one a dropped connection triggers) invalidates
/// it, and the next Fetch reports Aborted. Closing a cursor or statement
/// id twice is rejected cleanly with NotFound; the connection survives.
///
/// Reads — every statement and cursor reads one committed view, pinned
/// when it opens: the newest commit at that instant, plus the open
/// transaction's own writes. It resolves each atom against the in-memory
/// version chains, so it never sees a concurrent transaction's uncommitted
/// or half-committed writes, never takes a lock, and never makes a writer
/// wait:
///
///   auto cursor = *session->Query("SELECT ALL FROM point");  // pins here
///
///   session->Execute("BEGIN WORK READ ONLY");   // one view for all...
///   // every query here reads the SAME view (repeatable); DML/DDL
///   // are refused until...
///   session->Execute("COMMIT WORK");            // releases the pin
///
/// Writers lock (nested two-phase locking on atoms). A writer's read is a
/// committed view too, not a locked read, so a read-modify-write must take
/// the row's lock first — a MODIFY that touches the row, then the read —
/// until writers validate what they read at commit.
///
/// Version chains live in memory only (they are rebuilt empty at restart —
/// recovery's compensations restore the base state they describe) and are
/// retired as soon as no pinned view can need them; watch the
/// prima_versions_* metrics, stats().versions, and the
/// prima_versions_oldest_snapshot_lsn gauge for a pin holding retirement
/// back. Remote cursors read the same way (BEGIN WORK READ ONLY works over
/// the wire too).
///
/// Scaling knobs — by default the kernel scales the read path to the CPUs
/// this process may run on (its sched_getaffinity mask, util::UsableCpus),
/// not to the machine: confined to one CPU it runs one shard and one
/// worker. Explicit values always win; one PrimaOptions field
/// tunes the read path:
///
///   buffer_shards    page-id-hashed buffer pool partitions, each with its
///                    own mutex and clock-sweep eviction (0 = one per
///                    usable CPU, capped)
///
/// Pages are read by the thread that fixes them.
///
/// Cursors assemble serially on the thread that drains them; the worker
/// pool (parallel_workers) serves QueryParallel's units.
///
/// Compatibility contract: buffer_shards = 1 is behaviorally
/// indistinguishable from the pre-sharding pool — same eviction victims,
/// same NoSpace conditions, same WAL write-back rule — and every setting
/// of every knob returns byte-identical query results; the knobs trade
/// memory and threads for throughput, never semantics. Observe the effect
/// through stats(): per-shard hit/miss/eviction counters and resident
/// bytes.
///
/// Observability — the kernel telemeters itself at three granularities:
///
///   stats()        one coherent plain-data snapshot of every layer's
///                  counters (buffer, access, data, WAL, versions, txn,
///                  server) plus the statement-latency histogram — diff
///                  before/after a workload.
///   MetricsText()  the same counters as a Prometheus-style text page, plus
///                  computed gauges and latency summaries (also served
///                  remotely: net::Client::MetricsText, and
///                  net::Client::Stats as name -> value pairs). Every
///                  metric is named prima_<subsystem>_<what>[_<unit>].
///                  Both read one declaration: each layer's stats struct
///                  and its counter table (obs::CounterDef), so a counter
///                  is never on one surface and missing from another.
///   EXPLAIN ANALYZE <stmt>   the statement's phase table through MQL:
///                  parse, plan (statement-cache hit/miss), execute (root
///                  enumeration, molecule assembly, projection, version
///                  chain walks), buffer fixes split hit/miss, and WAL
///                  commit-force wait, with microsecond timings. The phases
///                  are declared once (obs::kPhases); every layer records
///                  into the statement's table through obs::CurrentTrace().
///                  Works identically through a remote session.
///
/// Production tracing is opt-in via PrimaOptions::slow_statement_us: it
/// traces every statement and captures the offenders (text + phase table)
/// into a ring of the last 64, read back with slow_statements(). With it 0
/// a statement pays one thread-local null check per traced site and one
/// histogram record — the overhead contract benchmarks hold the kernel to.
class Prima {
 public:
  static util::Result<std::unique_ptr<Prima>> Open(PrimaOptions options);
  ~Prima();

  Prima(const Prima&) = delete;
  Prima& operator=(const Prima&) = delete;

  // --- sessions (the primary client API) --------------------------------------

  /// Open a client session: a single-threaded statement context with its
  /// own transaction scope, prepared statements, and streaming cursors.
  /// One session per client thread; it must not outlive the database.
  std::unique_ptr<Session> OpenSession() {
    return std::make_unique<Session>(data_.get(), txns_.get());
  }

  // --- one-shot MQL / LDL (a session per call) ------------------------------------

  /// Execute one MQL statement (DDL, DML, or query) in a session opened for
  /// the call. Transaction control is refused with InvalidArgument: the
  /// session, and any transaction in it, ends with the call.
  util::Result<mql::ExecResult> Execute(const std::string& mql);
  /// Execute a SELECT and return its molecule set (drains the cursor of a
  /// session opened for the call).
  util::Result<mql::MoleculeSet> Query(const std::string& mql);
  /// Execute a SELECT with semantic parallelism (paper §4): "units of
  /// work decomposed from a single user operation are said to allow for
  /// inherent semantic parallelism when they do not conflict with each
  /// other at the level of decomposition." Molecule-set retrieval
  /// decomposes by root atom: the roots are pulled on the calling thread
  /// and split into at most `max_units` contiguous units (0 = one per pool
  /// thread), each assembling, qualifying and projecting its roots. Units
  /// are read-only and target disjoint roots, so they are conflict-free by
  /// construction. They run on the worker pool — the shared-memory
  /// stand-in for multi-processor PRIMA — with the caller running the last
  /// one, and the call waits only for its own units. Results concatenate
  /// in root order, so molecule order and content match Query() exactly.
  /// Every unit reads the one view pinned for the call, outside any session.
  util::Result<mql::MoleculeSet> QueryParallel(const std::string& mql,
                                               size_t max_units = 0);
  /// Execute one LDL statement (access paths, sort orders, partitions,
  /// atom clusters).
  util::Result<std::string> ExecuteLdl(const std::string& ldl);

  // --- transactions ---------------------------------------------------------------

  util::Result<Transaction*> Begin() { return txns_->Begin(); }

  // --- maintenance ----------------------------------------------------------------

  /// Drain deferred updates and write everything to the device as a fuzzy
  /// checkpoint: the flush is bracketed by checkpoint log records and
  /// committed via the log's master record, so the next restart scans only
  /// from here.
  util::Status Flush();

  /// Take a fuzzy online backup: checkpoint, then dump every data segment
  /// into the backup file WITHOUT quiescing writers. Restoring the dump
  /// and replaying the archived log + live WAL from its start point
  /// (PrimaOptions::restore_from_backup) rebuilds the database after total
  /// data-device loss.
  util::Result<recovery::BackupInfo> Backup();

  // --- subsystem access -------------------------------------------------------------

  /// Log counters + footprint (records-per-force, commits-per-force, live
  /// and on-device bytes).
  recovery::WalStatsSnapshot wal_stats() const;

  /// Kernel-wide counters: one coherent snapshot of every layer (see
  /// PrimaStatsSnapshot).
  PrimaStatsSnapshot stats() const;

  /// Prometheus-style text exposition of every registered metric —
  /// counters, gauges, and latency summaries (p50/p95/p99 + sum + count).
  std::string MetricsText() const { return telemetry_->registry().RenderText(); }

  /// Oldest-first copy of the slow-query ring (statements that crossed
  /// PrimaOptions::slow_statement_us, with their rendered phase tables).
  std::vector<obs::SlowStatement> slow_statements() const {
    return telemetry_->slow_log().Snapshot();
  }

  /// The telemetry hub (never null on an open database).
  obs::Telemetry* telemetry() const { return telemetry_.get(); }

  storage::StorageSystem& storage() { return *storage_; }
  access::AccessSystem& access() { return *access_; }
  mql::DataSystem& data() { return *data_; }
  TransactionManager& transactions() { return *txns_; }
  ObjectBuffer& object_buffer() { return *object_buffer_; }
  util::ThreadPool& pool() { return *pool_; }
  /// The log and its restart/checkpoint manager (never null on an open
  /// database).
  recovery::WalWriter* wal() { return wal_.get(); }
  recovery::RecoveryManager* recovery() { return recovery_.get(); }
  /// Null unless the daemon is active (wal_max_bytes + fraction).
  recovery::CheckpointDaemon* checkpoint_daemon() { return daemon_.get(); }
  /// Null unless options.listen_port >= 0.
  net::Server* net_server() { return net_.get(); }

 private:
  Prima() = default;

  /// Register every layer's counter table and the computed gauges with
  /// the telemetry registry (called once from Open, after the stack is
  /// assembled).
  void RegisterKernelMetrics();

  /// Set once Open() fully succeeded. A half-open instance (recovery
  /// failed partway) must NOT checkpoint on destruction: writing a new
  /// master record would truncate the restart scan window and orphan the
  /// loser rollbacks that never ran.
  bool fully_open_ = false;

  /// Declared FIRST so it is destroyed LAST: the WAL holds its commit-wait
  /// histogram pointer, the data system its hub pointer, and counters
  /// registered by address all point into subsystems that must be able to
  /// be snapshotted until the moment they destruct.
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<storage::BlockDevice> shared_device_;  ///< keep-alive only
  std::unique_ptr<storage::StorageSystem> storage_;
  std::unique_ptr<recovery::WalWriter> wal_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::unique_ptr<access::AccessSystem> access_;
  std::unique_ptr<mql::DataSystem> data_;
  std::unique_ptr<ldl::LoadDefinition> ldl_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<ObjectBuffer> object_buffer_;
  /// Declared last, and explicitly Stop()ped first in ~Prima: the daemon
  /// thread checkpoints through recovery_/access_/wal_ and must be gone
  /// before any of them shuts down.
  std::unique_ptr<recovery::CheckpointDaemon> daemon_;
  /// The TCP front door (options.listen_port >= 0). Started LAST in Open()
  /// — remote sessions must never see a half-built kernel — and stopped
  /// FIRST in ~Prima, before even the daemon: its connection threads run
  /// sessions through every layer below.
  std::unique_ptr<net::Server> net_;
};

}  // namespace prima::core

#endif  // PRIMA_CORE_PRIMA_H_
