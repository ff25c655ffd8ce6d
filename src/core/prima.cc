#include "core/prima.h"

#include <algorithm>

#include "mql/parser.h"
#include "net/server.h"

namespace prima::core {

using util::Result;
using util::Status;

namespace {
/// Adapts a shared device to the StorageSystem's unique-ownership API
/// (crash-injection tests hand the same underlying device to several
/// database incarnations in turn).
class ForwardingBlockDevice : public storage::BlockDevice {
 public:
  explicit ForwardingBlockDevice(std::shared_ptr<storage::BlockDevice> inner)
      : inner_(std::move(inner)) {}
  util::Status Create(FileId file, uint32_t block_size) override {
    return inner_->Create(file, block_size);
  }
  util::Status Remove(FileId file) override { return inner_->Remove(file); }
  bool Exists(FileId file) const override { return inner_->Exists(file); }
  util::Result<uint32_t> BlockSizeOf(FileId file) const override {
    return inner_->BlockSizeOf(file);
  }
  std::vector<FileId> ListFiles() const override {
    return inner_->ListFiles();
  }
  util::Status Read(FileId file, uint64_t block, char* dst) override {
    return inner_->Read(file, block, dst);
  }
  util::Status Write(FileId file, uint64_t block, const char* src) override {
    return inner_->Write(file, block, src);
  }
  util::Status ReadChained(FileId file, const std::vector<uint64_t>& blocks,
                           char* dst) override {
    return inner_->ReadChained(file, blocks, dst);
  }
  util::Status WriteChained(FileId file, const std::vector<uint64_t>& blocks,
                            const char* src) override {
    return inner_->WriteChained(file, blocks, src);
  }
  util::Status Sync() override { return inner_->Sync(); }

 private:
  std::shared_ptr<storage::BlockDevice> inner_;
};
}  // namespace

Result<std::unique_ptr<Prima>> Prima::Open(PrimaOptions options) {
  std::unique_ptr<storage::BlockDevice> device;
  if (options.device != nullptr) {
    device = std::make_unique<ForwardingBlockDevice>(options.device);
  } else if (options.in_memory) {
    device = std::make_unique<storage::MemoryBlockDevice>();
  } else {
    if (options.path.empty()) {
      return Status::InvalidArgument("file-backed database needs a path");
    }
    device = std::make_unique<storage::FileBlockDevice>(options.path);
  }
  auto db = std::unique_ptr<Prima>(new Prima());
  // Telemetry first: every subsystem built below may take pointers into it
  // (histograms, the hub itself), and teardown destroys it last.
  db->telemetry_ = std::make_unique<obs::Telemetry>(options.slow_statement_us);
  db->shared_device_ = options.device;
  // The database-level scaling knobs are authoritative: resolve defaults
  // from the CPUs this process may run on (util::UsableCpus) and write them
  // into the storage options before the storage system is built around
  // them. On one usable CPU "scale out" means DON'T: one shard and one
  // worker are the fastest configurations there, and anything else is pure
  // overhead.
  const size_t cpus = util::UsableCpus();
  options.storage.buffer_shards = options.buffer_shards != 0
                                      ? options.buffer_shards
                                      : std::min<size_t>(cpus, 16);
  db->storage_ = std::make_unique<storage::StorageSystem>(std::move(device),
                                                          options.storage);

  // Media recovery phase 1 runs at DEVICE level, before the storage system
  // reads any segment metadata: wipe the untrusted data files and rewrite
  // them from the fuzzy dump. Phase 2 (replaying history from the dump's
  // start point) takes AnalyzeAndRedo's slot below.
  uint64_t media_start_lsn = 0;
  if (options.restore_from_backup) {
    PRIMA_ASSIGN_OR_RETURN(
        const recovery::BackupInfo restored,
        recovery::BackupManager::Restore(&db->storage_->device()));
    media_start_lsn = restored.start_lsn;
  }
  PRIMA_RETURN_IF_ERROR(db->storage_->Open());

  // Restart protocol: repeat history on pages before the access layer
  // reads its metadata blobs from them, then roll losers back through it.
  recovery::WalOptions wal_options;
  wal_options.max_bytes = options.wal_max_bytes;
  wal_options.archive = options.wal_archive;
  db->wal_ = std::make_unique<recovery::WalWriter>(&db->storage_->device(),
                                                   wal_options);
  PRIMA_RETURN_IF_ERROR(db->wal_->Open());
  db->recovery_ = std::make_unique<recovery::RecoveryManager>(
      db->storage_.get(), db->wal_.get());
  if (options.restore_from_backup) {
    PRIMA_RETURN_IF_ERROR(db->recovery_->MediaRecover(media_start_lsn));
  } else {
    PRIMA_RETURN_IF_ERROR(db->recovery_->AnalyzeAndRedo());
  }
  db->storage_->SetWal(db->wal_.get());
  db->wal_->SetForceWaitHistogram(db->telemetry_->commit_force_us());

  db->access_ =
      std::make_unique<access::AccessSystem>(db->storage_.get(), options.access);
  db->access_->SetWal(db->wal_.get());
  PRIMA_RETURN_IF_ERROR(db->access_->Open());
  PRIMA_RETURN_IF_ERROR(db->recovery_->UndoAndFixup(db->access_.get()));

  db->data_ = std::make_unique<mql::DataSystem>(db->access_.get());
  db->data_->set_telemetry(db->telemetry_.get());
  db->ldl_ = std::make_unique<ldl::LoadDefinition>(db->access_.get());
  db->txns_ = std::make_unique<TransactionManager>(db->access_.get(),
                                                   db->wal_.get());
  db->txns_->SeedNextId(db->recovery_->next_txn_id());
  size_t workers = options.parallel_workers;
  if (workers == 0) {
    workers = util::ThreadPool::DefaultThreads();
  }
  db->pool_ = std::make_unique<util::ThreadPool>(workers);
  db->object_buffer_ =
      std::make_unique<ObjectBuffer>(db->data_.get(), db->txns_.get());

  if (db->recovery_->recovered()) {
    // Make the recovered state durable and shorten the next restart.
    PRIMA_RETURN_IF_ERROR(db->recovery_->Checkpoint(db->access_.get()));
  }
  db->fully_open_ = true;

  // The checkpoint daemon starts LAST: it checkpoints through the fully
  // assembled stack, and a half-open database must never checkpoint (see
  // fully_open_).
  if (db->wal_->capacity_bytes() > 0 &&
      options.checkpoint_ring_fraction > 0.0) {
    recovery::CheckpointDaemon::Options daemon_options;
    daemon_options.ring_fraction = options.checkpoint_ring_fraction;
    db->daemon_ = std::make_unique<recovery::CheckpointDaemon>(
        db->recovery_.get(), db->wal_.get(), db->access_.get(),
        daemon_options);
    db->daemon_->Start();
    db->txns_->SetCheckpointDaemon(db->daemon_.get());
  }

  // The network server starts after EVERYTHING, daemon included: the first
  // remote session may arrive the instant the listener binds, and it must
  // find a fully assembled kernel.
  if (options.listen_port >= 0) {
    net::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(options.listen_port);
    server_options.max_connections = options.net_max_connections;
    server_options.idle_timeout_ms = options.net_idle_timeout_ms;
    db->net_ = std::make_unique<net::Server>(db.get(), server_options);
    PRIMA_RETURN_IF_ERROR(db->net_->Start());
  }
  // Metric registration runs last so the server's gauges (if any) can be
  // included; the registry's mutex makes a racing remote kMetrics safe — it
  // just sees whatever is registered so far.
  db->RegisterKernelMetrics();
  return db;
}

Prima::~Prima() {
  // The network server goes absolutely first: its connection threads run
  // remote sessions through every layer below, and Stop() joins them all —
  // each open remote transaction rolls back, logged, through its session
  // destructor while the WAL is still attached.
  if (net_ != nullptr) net_->Stop();
  // Shutdown ordering with a live daemon thread: stop it BEFORE the exit
  // checkpoint and before any member starts destructing — a daemon
  // checkpoint racing the teardown would walk freed subsystems. As
  // everywhere in ~Prima, application threads must have finished their
  // transactions before destruction; a committer already waiting inside
  // RequestCheckpoint is woken by Stop() and fails with Aborted, but
  // destruction concurrent with NEW commits is outside the contract.
  if (daemon_ != nullptr) {
    if (txns_ != nullptr) txns_->SetCheckpointDaemon(nullptr);
    daemon_->Stop();
  }
  // The exit checkpoint is the only shutdown write: the members'
  // destructors write nothing, so none of them touches the log (or the
  // device) while tearing down. An unlogged write after the checkpoint's
  // master record committed would break the next restart's redo basis. If
  // the checkpoint fails, commits are durable in the log and restart
  // recovery replays them onto the last consistent state.
  if (fully_open_) (void)recovery_->Checkpoint(access_.get());
}

Result<mql::ExecResult> Prima::Execute(const std::string& mql) {
  Session session(data_.get(), txns_.get());
  session.one_shot_ = true;
  return session.Execute(mql);
}

Result<mql::MoleculeSet> Prima::Query(const std::string& mql) {
  Session session(data_.get(), txns_.get());
  PRIMA_ASSIGN_OR_RETURN(mql::MoleculeCursor cursor, session.Query(mql));
  return cursor.Drain();
}

Result<mql::MoleculeSet> Prima::QueryParallel(const std::string& mql,
                                              size_t max_units) {
  PRIMA_ASSIGN_OR_RETURN(mql::Statement stmt, mql::ParseStatement(mql));
  if (stmt.kind != mql::Statement::Kind::kQuery) {
    return Status::InvalidArgument("parallel execution expects a SELECT");
  }
  if (!stmt.params.empty()) {
    // Same refusal as the serial entry points: an unbound placeholder
    // would compare as null and silently qualify nothing.
    return Status::InvalidArgument(
        "statement has placeholders - prepare it and bind values first");
  }
  data_->stats().queries++;
  return data_->executor().DeriveInUnits(
      std::make_shared<const mql::Query>(std::move(stmt.query)), pool_.get(),
      max_units == 0 ? pool_->num_threads() : max_units);
}

Result<std::string> Prima::ExecuteLdl(const std::string& ldl) {
  return ldl_->Execute(ldl);
}

Status Prima::Flush() { return recovery_->Checkpoint(access_.get()); }

Result<recovery::BackupInfo> Prima::Backup() {
  if (wal_->capacity_bytes() > 0 && wal_->archiver() == nullptr) {
    // Refuse now rather than at disaster time: the very next truncation of
    // a circular log would recycle blocks the dump's replay depends on,
    // turning a "successful" backup unrestorable.
    return Status::InvalidArgument(
        "a bounded WAL recycles log blocks - enable options.wal_archive so "
        "the dump stays replayable");
  }
  // Checkpoint first: it shortens the eventual replay and archives the
  // pre-floor blocks, and the dump's start point becomes this checkpoint.
  PRIMA_RETURN_IF_ERROR(recovery_->Checkpoint(access_.get()));
  return recovery::BackupManager::TakeBackup(storage_.get(), wal_.get());
}

void Prima::RegisterKernelMetrics() {
  obs::MetricsRegistry& reg = telemetry_->registry();
  // Counters: each layer's whole table, so every field stats() copies is
  // on the page.
  reg.RegisterCounters(storage_->buffer().stats(), storage::kBufferCounters);
  reg.RegisterCounters(access_->stats(), access::kAccessCounters);
  reg.RegisterCounters(access_->versions().stats(),
                       access::kVersionStoreCounters);
  reg.RegisterCounters(data_->stats(), mql::kDataCounters);
  reg.RegisterCounters(txns_->stats(), kTransactionCounters);
  reg.RegisterCounters(wal_->stats(), recovery::kWalCounters);
  if (net_ != nullptr) reg.RegisterCounters(net_->stats(), net::kNetCounters);

  // Gauges: values the code computes rather than counts.
  reg.RegisterGauge("prima_buffer_resident_bytes",
                    [this] { return storage_->buffer().resident_bytes(); },
                    "bytes resident in the pool");
  reg.RegisterGauge("prima_versions_retained",
                    [this] { return access_->versions().StatsSnapshot().versions_retained; },
                    "chain entries live right now");
  reg.RegisterGauge("prima_snapshots_active",
                    [this] { return access_->versions().StatsSnapshot().snapshots_active; },
                    "read views pinned right now");
  reg.RegisterGauge("prima_versions_oldest_snapshot_lsn",
                    [this] { return access_->versions().StatsSnapshot().oldest_snapshot_lsn; },
                    "commit LSN the oldest pinned snapshot holds retirement at (0 = none)");
  reg.RegisterGauge("prima_stmt_cache_hits",
                    [this] { return data_->statement_cache().hits(); },
                    "shared statement-cache hits");
  reg.RegisterGauge("prima_stmt_cache_misses",
                    [this] { return data_->statement_cache().misses(); },
                    "shared statement-cache misses");
  // The wedged-ring view: active_txns > 0 with a far-behind
  // oldest_active_lsn while live_bytes approaches capacity_bytes is a
  // long-running transaction pinning the undo floor.
  reg.RegisterGauge("prima_wal_live_bytes",
                    [this] { return wal_->StatsSnapshot().live_bytes; },
                    "log bytes between the truncation floor and the append point");
  reg.RegisterGauge("prima_wal_capacity_bytes",
                    [this] { return wal_->StatsSnapshot().capacity_bytes; },
                    "log ring capacity (0 = unbounded)");
  reg.RegisterGauge("prima_wal_active_txns",
                    [this] { return wal_->StatsSnapshot().active_txns; },
                    "transactions with a begin but no end in the log");
  reg.RegisterGauge("prima_wal_oldest_active_lsn",
                    [this] { return wal_->StatsSnapshot().oldest_active_lsn; },
                    "begin LSN of the oldest active transaction");
  if (net_ != nullptr) {
    reg.RegisterGauge("prima_net_connections_active",
                      [this] { return net_->connections_active(); },
                      "connections being served");
  }
}

PrimaStatsSnapshot Prima::stats() const {
  PrimaStatsSnapshot s;
  s.buffer = storage_->buffer().SnapshotStats();
  s.data = data_->stats();
  s.access = access_->stats();
  s.wal = wal_stats();
  s.versions = access_->versions().StatsSnapshot();
  s.txn = txns_->stats();
  if (net_ != nullptr) s.net = net_->stats();
  s.statement_us = telemetry_->statement_us()->Snapshot();
  s.traced_statements = telemetry_->traced();
  s.slow_statements = telemetry_->slow_log().captured();
  return s;
}

recovery::WalStatsSnapshot Prima::wal_stats() const {
  recovery::WalStatsSnapshot s = wal_->StatsSnapshot();
  // The redo shape of this database's last restart/media recovery — the
  // log only stores history, the recovery manager replays it.
  s.redo_records_applied = recovery_->stats().redo_applied;
  return s;
}

}  // namespace prima::core
