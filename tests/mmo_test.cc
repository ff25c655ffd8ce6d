#include "workloads/mmo.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "net/client.h"
#include "net/server.h"
#include "recovery/checkpoint_daemon.h"
#include "recovery/crash_device.h"
#include "recovery/wal_writer.h"
#include "storage/block_device.h"
#include "util/retry.h"
#include "temp_dir.h"

namespace prima::workloads {
namespace {

using core::Prima;
using core::PrimaOptions;
using storage::MemoryBlockDevice;
using util::Status;

std::unique_ptr<Prima> OpenMemDb() {
  auto db = Prima::Open({});
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

Status InstallAndPopulate(Prima* db, const MmoConfig& cfg) {
  MmoWorkload workload(db);
  PRIMA_RETURN_IF_ERROR(workload.CreateSchema());
  return workload.Populate(cfg);
}

// ---------------------------------------------------------------------------
// Deterministic op generation
// ---------------------------------------------------------------------------

TEST(MmoPlanTest, OpStreamIsDeterministic) {
  MmoConfig cfg;
  cfg.seed = 1234;
  std::vector<int> guild_of(cfg.players, -1);
  for (uint64_t seq = 1; seq <= 500; ++seq) {
    const Op a = PlanOp(cfg, 2, seq, guild_of);
    const Op b = PlanOp(cfg, 2, seq, guild_of);
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.voluntary_abort, b.voluntary_abort);
    ASSERT_EQ(a.player_a, b.player_a);
    ASSERT_EQ(a.player_b, b.player_b);
    ASSERT_EQ(a.item, b.item);
    ASSERT_EQ(a.quest, b.quest);
    ASSERT_EQ(a.guild, b.guild);
    ASSERT_EQ(a.amount, b.amount);
  }
  // Different sessions (and different seeds) draw different streams.
  int diff = 0;
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    const Op a = PlanOp(cfg, 0, seq, guild_of);
    const Op b = PlanOp(cfg, 1, seq, guild_of);
    if (a.kind != b.kind || a.player_a != b.player_a) ++diff;
  }
  EXPECT_GT(diff, 50);
}

TEST(MmoPlanTest, GuildOpsStayInSessionSliceAndLeaveFallsBackToJoin) {
  MmoConfig cfg;
  cfg.sessions = 4;
  cfg.players = 10;
  std::vector<int> guild_of(cfg.players, -1);  // everyone guildless
  bool saw_fallback = false;
  for (uint64_t seq = 1; seq <= 2000; ++seq) {
    const Op op = PlanOp(cfg, 3, seq, guild_of);
    if (op.kind == OpKind::kGuildJoin || op.kind == OpKind::kGuildLeave) {
      EXPECT_EQ(op.player_a % cfg.sessions, 3);
      // With no memberships a leave can never be planned: it must resolve
      // to a join, deterministically.
      EXPECT_EQ(op.kind, OpKind::kGuildJoin);
      saw_fallback = true;
    }
  }
  EXPECT_TRUE(saw_fallback);
  // Once the player IS in a guild, leave targets exactly that guild.
  guild_of.assign(cfg.players, 5);
  for (uint64_t seq = 1; seq <= 2000; ++seq) {
    const Op op = PlanOp(cfg, 3, seq, guild_of);
    if (op.kind == OpKind::kGuildLeave) {
      EXPECT_EQ(op.guild, 5);
    }
  }
}

// ---------------------------------------------------------------------------
// Retry helper (Status::IsTransient + util::RetryTransient)
// ---------------------------------------------------------------------------

TEST(RetryTest, TransientConflictRetriesToSuccess) {
  // A real lock conflict: session 1 holds a write lock, session 2's
  // statement bounces with kConflict until session 1 commits. The retry
  // helper must absorb the bounces and land the statement.
  auto db = OpenMemDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("CREATE ATOM_TYPE item (item_id : IDENTIFIER,"
                          " num : INTEGER, name : CHAR_VAR) KEYS_ARE (num)")
                  .ok());
  ASSERT_TRUE(db->Execute("INSERT item (num = 1, name = 'hot')").ok());

  auto holder = db->OpenSession();
  ASSERT_TRUE(holder->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      holder->Execute("MODIFY item SET name = 'held' WHERE num = 1").ok());

  std::atomic<uint64_t> retries{0};
  util::RetryPolicy policy;
  policy.max_attempts = 0;  // forever
  policy.retry_counter = &retries;
  auto contender = db->OpenSession();
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(holder->Execute("COMMIT WORK").ok());
  });
  const Status st = util::RetryTransient(policy, [&] {
    auto r = contender->Execute("MODIFY item SET name = 'won' WHERE num = 1");
    return r.ok() ? Status::Ok() : r.status();
  });
  release.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(retries.load(), 1u);

  auto check = db->Query("SELECT ALL FROM item");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->molecules[0].groups[0].atoms[0].attrs[2].AsString(), "won");
}

TEST(RetryTest, SemanticErrorDoesNotRetry) {
  std::atomic<uint64_t> retries{0};
  util::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.retry_counter = &retries;
  int attempts = 0;
  const Status st = util::RetryTransient(policy, [&] {
    ++attempts;
    return Status::Constraint("duplicate key");
  });
  EXPECT_TRUE(st.IsConstraint());
  EXPECT_FALSE(st.IsTransient());
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(retries.load(), 0u);
}

TEST(RetryTest, BudgetExhaustionReturnsLastTransientStatus) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_floor_us = 1;
  policy.backoff_cap_us = 10;
  int attempts = 0;
  const Status st = util::RetryTransient(policy, [&] {
    ++attempts;
    return Status::Conflict("still locked");
  });
  EXPECT_TRUE(st.IsConflict());
  EXPECT_EQ(attempts, 3);
}

// ---------------------------------------------------------------------------
// Clean run + oracle audit (in-process)
// ---------------------------------------------------------------------------

TEST(MmoDriverTest, CleanRunPassesOracleAudit) {
  auto db = OpenMemDb();
  ASSERT_NE(db, nullptr);
  MmoConfig cfg;
  cfg.sessions = 4;
  cfg.ops_per_session = 150;
  ASSERT_TRUE(InstallAndPopulate(db.get(), cfg).ok());

  MmoDriver driver(db.get(), cfg);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops_acked + result->ops_aborted,
            static_cast<uint64_t>(cfg.sessions) * cfg.ops_per_session);
  EXPECT_EQ(result->ops_aborted, 0u);  // abort_fraction = 0

  MmoOracle oracle(cfg);
  oracle.AdoptShadow(driver.shadow());
  const Status audit = oracle.Audit(db.get());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Latency was recorded per op type for every op that the mix produced.
  uint64_t recorded = 0;
  for (int k = 0; k < kOpKinds; ++k) recorded += result->latency_us[k].count;
  EXPECT_EQ(recorded, static_cast<uint64_t>(cfg.sessions) * cfg.ops_per_session);
}

TEST(MmoDriverTest, AbortStormPassesOracleAudit) {
  auto db = OpenMemDb();
  ASSERT_NE(db, nullptr);
  MmoConfig cfg;
  cfg.sessions = 4;
  cfg.ops_per_session = 150;
  cfg.abort_fraction = 0.3;
  ASSERT_TRUE(InstallAndPopulate(db.get(), cfg).ok());

  MmoDriver driver(db.get(), cfg);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->ops_aborted, 0u);

  MmoOracle oracle(cfg);
  oracle.AdoptShadow(driver.shadow());
  const Status audit = oracle.Audit(db.get());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(MmoDriverTest, HotRowContentionSurfacesInKernelCounters) {
  // Few players + many sessions = constant collisions on the touch locks.
  // The run must still audit clean (retries, never lost updates), and the
  // contention must be visible through Prima::stats() and the metrics text.
  auto db = OpenMemDb();
  ASSERT_NE(db, nullptr);
  MmoConfig cfg;
  cfg.sessions = 8;
  cfg.ops_per_session = 100;
  cfg.players = 8;
  cfg.guilds = 2;
  ASSERT_TRUE(InstallAndPopulate(db.get(), cfg).ok());

  MmoDriver driver(db.get(), cfg);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  MmoOracle oracle(cfg);
  oracle.AdoptShadow(driver.shadow());
  const Status audit = oracle.Audit(db.get());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  const auto stats = db->stats();
  EXPECT_GT(stats.txn.committed, 0u);
  EXPECT_GT(stats.txn.lock_conflicts, 0u)
      << "8 sessions on 8 players should collide";
  EXPECT_GT(result->retries, 0u);
  EXPECT_EQ(stats.txn.txn_retries, result->retries)
      << "driver retries must surface through the kernel counter";

  const std::string metrics = db->MetricsText();
  EXPECT_NE(metrics.find("prima_txn_lock_conflicts"), std::string::npos);
  EXPECT_NE(metrics.find("prima_txn_retries"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire mode: same storm over the network server
// ---------------------------------------------------------------------------

TEST(MmoDriverTest, WireStormPassesOracleAudit) {
  PrimaOptions options;
  options.listen_port = 0;
  auto db = Prima::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->net_server(), nullptr);

  MmoConfig cfg;
  cfg.sessions = 4;
  cfg.ops_per_session = 60;
  ASSERT_TRUE(InstallAndPopulate(db->get(), cfg).ok());

  MmoDriver driver("127.0.0.1", (*db)->net_server()->port(), cfg);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops_acked + result->ops_aborted,
            static_cast<uint64_t>(cfg.sessions) * cfg.ops_per_session);

  MmoOracle oracle(cfg);
  oracle.AdoptShadow(driver.shadow());
  const Status audit = oracle.Audit(db->get());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // The contention digest rides the stats message for remote operators.
  auto client = net::Client::Connect("127.0.0.1", (*db)->net_server()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server_stats = (*client)->Stats();
  ASSERT_TRUE(server_stats.ok()) << server_stats.status().ToString();
  ASSERT_EQ(server_stats->count("prima_txns_committed"), 1u);
  EXPECT_GT(server_stats->at("prima_txns_committed"), 0u);
}

// ---------------------------------------------------------------------------
// Selective recovery under collision + crash survival (PR-5 semantics)
// ---------------------------------------------------------------------------

class MmoCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { base_ = std::make_shared<MemoryBlockDevice>(); }

  std::unique_ptr<Prima> OpenDb(PrimaOptions options = {}) {
    crash_ = std::make_shared<recovery::CrashingBlockDevice>(base_);
    options.device = crash_;
    auto db = Prima::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  void Crash(std::unique_ptr<Prima>* db) {
    crash_->CrashNow();
    db->reset();
  }

  std::shared_ptr<MemoryBlockDevice> base_;
  std::shared_ptr<recovery::CrashingBlockDevice> crash_;
};

TEST_F(MmoCrashTest, LoserCompensatesOnlyItselfAndWinnerSurvivesCrash) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("CREATE ATOM_TYPE item (item_id : IDENTIFIER,"
                          " num : INTEGER, name : CHAR_VAR) KEYS_ARE (num)")
                  .ok());
  ASSERT_TRUE(db->Execute("INSERT item (num = 1, name = 'contested')").ok());
  ASSERT_TRUE(db->Flush().ok());

  auto winner = db->OpenSession();
  auto loser = db->OpenSession();
  ASSERT_TRUE(winner->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(
      winner->Execute("MODIFY item SET name = 'winner' WHERE num = 1").ok());

  // The loser makes progress first, then collides: the conflict compensates
  // ONLY the colliding statement (statement-level subtransaction), not the
  // whole transaction — its earlier insert still commits.
  ASSERT_TRUE(loser->Execute("BEGIN WORK").ok());
  ASSERT_TRUE(loser->Execute("INSERT item (num = 2, name = 'kept')").ok());
  auto collide =
      loser->Execute("MODIFY item SET name = 'loser' WHERE num = 1");
  ASSERT_FALSE(collide.ok());
  EXPECT_TRUE(collide.status().IsConflict()) << collide.status().ToString();
  EXPECT_TRUE(collide.status().IsTransient());
  ASSERT_TRUE(loser->Execute("COMMIT WORK").ok());

  ASSERT_TRUE(winner->Execute("COMMIT WORK").ok());

  Crash(&db);

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  auto all = db2->Query("SELECT ALL FROM item");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 2u);
  for (const auto& m : all->molecules) {
    const auto& atom = m.groups[0].atoms[0];
    if (atom.attrs[1].AsInt() == 1) {
      EXPECT_EQ(atom.attrs[2].AsString(), "winner");
    } else {
      EXPECT_EQ(atom.attrs[1].AsInt(), 2);
      EXPECT_EQ(atom.attrs[2].AsString(), "kept");
    }
  }
}

// ---------------------------------------------------------------------------
// Wedged ring: a long transaction pinning the undo floor must surface a
// diagnosable NoSpace, not a hang
// ---------------------------------------------------------------------------

TEST_F(MmoCrashTest, PinnedUndoFloorSurfacesNoSpaceNamingCulprit) {
  PrimaOptions options;
  options.wal_max_bytes = 128 * 4096;      // small ring
  options.checkpoint_ring_fraction = 0.99; // only the commit poke checkpoints
  auto db = OpenDb(std::move(options));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("CREATE ATOM_TYPE item (item_id : IDENTIFIER,"
                          " num : INTEGER, name : CHAR_VAR) KEYS_ARE (num)")
                  .ok());

  // The culprit: an old transaction that wrote early and never finishes.
  // Its first LSN pins the undo floor; no checkpoint can reclaim past it.
  auto pin = db->Begin();
  ASSERT_TRUE(pin.ok());
  const auto* item = db->access().catalog().FindAtomType("item");
  ASSERT_TRUE((*pin)->InsertAtom(item->id,
                                 {access::AttrValue{1, access::Value::Int(-1)},
                                  access::AttrValue{
                                      2, access::Value::String("pin")}})
                  .ok());

  Status nospace;
  for (int i = 0; i < 5000; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto tid = (*txn)->InsertAtom(
        item->id,
        {access::AttrValue{1, access::Value::Int(i)},
         access::AttrValue{2, access::Value::String(std::string(128, 'x'))}});
    ASSERT_TRUE(tid.ok());
    const Status st = (*txn)->Commit();
    if (!st.ok()) {
      nospace = st;
      break;
    }
  }
  ASSERT_TRUE(nospace.IsNoSpace())
      << "ring full with a pinned floor must refuse, not hang: "
      << nospace.ToString();
  // The refusal names the pinning transaction so an operator can kill it.
  EXPECT_NE(nospace.message().find("oldest_active_lsn"), std::string::npos)
      << nospace.ToString();
  EXPECT_NE(nospace.message().find("by txn " + std::to_string((*pin)->id())),
            std::string::npos)
      << nospace.ToString();
  ASSERT_TRUE((*pin)->Abort().ok());
}

// ---------------------------------------------------------------------------
// The crash drive: kill -9 mid-storm, rebuild the oracle from recovered
// markers, audit every acknowledged mutation value for value
// ---------------------------------------------------------------------------

TEST(MmoCrashDriveTest, KillNineMidStormRecoversEveryAcknowledgedMutation) {
  const TempDir temp("prima_mmo_crash_");
  ASSERT_FALSE(temp.path().empty());
  const std::string& dir = temp.path();

  MmoConfig cfg;
  cfg.sessions = 4;
  cfg.ops_per_session = 200000;  // far more than run before the kill
  cfg.players = 32;
  cfg.guilds = 4;
  cfg.abort_fraction = 0.15;  // storm: voluntary ABORTs interleave throughout
  cfg.max_attempts = 0;       // retry forever: acked seq order never breaks

  // Shared-memory ack board: per-session high-water mark of acknowledged
  // WRITE ops, plus one progress counter for the parent's kill trigger.
  // MAP_SHARED survives the child's death; an ack written here is the
  // client-visible promise recovery is audited against.
  struct AckBoard {
    std::atomic<int64_t> acked_write_seq[16];
    std::atomic<int64_t> total_writes;
  };
  auto* board = static_cast<AckBoard*>(
      ::mmap(nullptr, sizeof(AckBoard), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  ASSERT_NE(board, MAP_FAILED);
  new (board) AckBoard{};

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: populate, flush, then storm until killed (no gtest) ---
    PrimaOptions options;
    options.in_memory = false;
    options.path = dir;
    auto db_or = Prima::Open(std::move(options));
    if (!db_or.ok()) ::_exit(10);
    auto child_db = std::move(*db_or);
    if (!InstallAndPopulate(child_db.get(), cfg).ok()) ::_exit(11);
    // Checkpoint the schema + base rows: everything after this must survive
    // on the strength of forced commit records alone.
    if (!child_db->Flush().ok()) ::_exit(12);

    MmoDriver driver(child_db.get(), cfg);
    driver.set_ack_hook([&](const Op& op) {
      if (!op.IsWrite()) return;
      board->acked_write_seq[op.session].store(static_cast<int64_t>(op.seq),
                                               std::memory_order_release);
      board->total_writes.fetch_add(1, std::memory_order_relaxed);
    });
    (void)driver.Run();
    ::pause();  // storm finished early? hold state until SIGKILL anyway
    ::_exit(13);
  }

  // --- parent: wait for storm progress, then pull the plug ---
  for (int i = 0; i < 3000 && board->total_writes.load() < 300; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(board->total_writes.load(), 300)
      << "storm never reached cruise before the kill window";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Restart recovery on the survivor files.
  PrimaOptions reopen;
  reopen.in_memory = false;
  reopen.path = dir;
  auto db_or = Prima::Open(std::move(reopen));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);

  // Durability floor: every acknowledged write's marker must have survived.
  auto markers = ReadMarkers(db.get(), cfg.sessions);
  ASSERT_TRUE(markers.ok()) << markers.status().ToString();
  for (int s = 0; s < cfg.sessions; ++s) {
    EXPECT_GE((*markers)[s], board->acked_write_seq[s].load())
        << "session " << s << " lost acknowledged commits";
  }

  // Exactness: the recovered database equals the deterministic replay of
  // each session's stream up to its marker — every mutation value for
  // value, plus the conservation invariants.
  MmoOracle oracle(cfg);
  oracle.RebuildFromMarkers(*markers);
  const Status audit = oracle.Audit(db.get());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  ::munmap(board, sizeof(AckBoard));
}

}  // namespace
}  // namespace prima::workloads
