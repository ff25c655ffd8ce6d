// mmo_inproc / mmo_wire: the MMO game-backend op stream of
// workloads::PlanOp, run by one client in one session (or one wire
// connection) with every op in an explicit transaction. The statement set
// and the touch-lock idiom mirror workloads::MmoDriver, so the shadow and
// workloads::MmoOracle audit the result value for value.

#include <algorithm>

#include "clients.h"
#include "net/server.h"
#include "recovery/crash_device.h"
#include "workload.h"
#include "workloads/mmo.h"

namespace perfbench {

using prima::access::Tid;
using prima::access::Value;
using prima::util::Result;
using prima::util::Status;
namespace wl = prima::workloads;

namespace {

constexpr int kPlayers = 4096;
constexpr int kGuilds = 64;
constexpr size_t kPoolBytes = 64u << 20;
constexpr int kWarmupOps = 1000;
constexpr int kTailOps = 3000;
/// Guild membership starts empty and grows towards 3/4 of the players with
/// a time constant of players / 0.2 ops (joins 10% and leaves 5% of the mix,
/// a leave with nothing to leave joins), and roster scans grow with it. After
/// 1,000 + 60,000 ops it is within 5% of that level.
constexpr int kSteadyOps = 60000;

enum Slot : size_t {
  kSelPlayer = 0,
  kTouchPlayer,
  kSetGold,
  kSetGuild,
  kSelItem,
  kTouchItem,
  kSetItemCount,
  kSelQuest,
  kTouchQuest,
  kSetTicks,
  kMarker,
  kRoster,
  kSlotCount
};

const char* kSlotMql[kSlotCount] = {
    "SELECT ALL FROM player WHERE player_no = ?",
    "MODIFY player SET touch = ? WHERE player_no = ?",
    "MODIFY player SET gold = ? WHERE player_no = ?",
    "MODIFY player SET guild = ? WHERE player_no = ?",
    "SELECT ALL FROM item WHERE item_no = ?",
    "MODIFY item SET touch = ? WHERE item_no = ?",
    "MODIFY item SET count = ? WHERE item_no = ?",
    "SELECT ALL FROM quest WHERE quest_no = ?",
    "MODIFY quest SET touch = ? WHERE quest_no = ?",
    "MODIFY quest SET ticks = ? WHERE quest_no = ?",
    "MODIFY account SET last_op = ? WHERE account_no = ?",
    "SELECT ALL FROM guild-player-item WHERE guild_no = ?",
};

wl::MmoConfig MakeConfig(uint64_t seed) {
  wl::MmoConfig cfg;
  cfg.seed = seed;
  cfg.sessions = 1;
  cfg.players = kPlayers;
  cfg.guilds = kGuilds;
  return cfg;
}

class MmoWorkload final : public Workload {
 public:
  MmoWorkload(const RunArgs& args, bool wire)
      : Workload(args), wire_(wire), cfg_(MakeConfig(args.seed)) {}

  ~MmoWorkload() override { clients_.clear(); }

  std::vector<std::string> OpKindNames() const override {
    std::vector<std::string> names;
    for (int k = 0; k < wl::kOpKinds; ++k) {
      names.push_back(wl::OpKindName(static_cast<wl::OpKind>(k)));
    }
    return names;
  }

  bool HasComparisonLane() const override { return wire_; }

  void Close() override {
    clients_.clear();
    db_.reset();
    device_.reset();
    crash_.reset();
    memory_.reset();
  }

  Status Setup() override {
    Close();
    memory_ = std::make_shared<prima::storage::MemoryBlockDevice>();
    crash_ = std::make_shared<prima::recovery::CrashingBlockDevice>(memory_);
    device_ = std::make_shared<TimingDevice>(crash_, &tracer_);
    auto db = prima::core::Prima::Open(Options(device_));
    if (!db.ok()) return db.status();
    db_ = std::move(*db);

    wl::MmoWorkload installer(db_.get());
    PRIMA_RETURN_IF_ERROR(installer.CreateSchema());
    PRIMA_RETURN_IF_ERROR(installer.Populate(cfg_));
    PRIMA_RETURN_IF_ERROR(db_->Flush());

    PRIMA_RETURN_IF_ERROR(Connect());
    PRIMA_RETURN_IF_ERROR(LoadTids());
    shadow_ = std::make_unique<wl::MmoShadow>(cfg_);
    guild_of_.assign(cfg_.players, -1);
    seq_ = 0;
    last_acked_write_ = 0;
    for (int i = 0; i < kWarmupOps; ++i) {
      PlanNext();
      PRIMA_RETURN_IF_ERROR(ExecutePlanned(0));
      PRIMA_RETURN_IF_ERROR(AcknowledgePlanned());
    }
    return Status::Ok();
  }

  int PlanNext() override {
    op_ = wl::PlanOp(cfg_, 0, ++seq_, guild_of_);
    return static_cast<int>(op_.kind);
  }

  Status ExecutePlanned(int lane) override {
    Client* client = clients_[lane].get();
    Status st = client->Execute("BEGIN WORK", SpanKind::kCoreBegin).status();
    if (st.ok()) st = OpBody(client);
    if (!st.ok()) {
      (void)client->Execute("ABORT WORK", SpanKind::kCoreAbort);
      return st;
    }
    return client->Execute("COMMIT WORK", SpanKind::kCoreCommit).status();
  }

  Status AcknowledgePlanned() override {
    roster_.clear();  // freed here, outside the timed op
    shadow_->Apply(op_);
    if (op_.kind == wl::OpKind::kGuildJoin) guild_of_[op_.player_a] = op_.guild;
    if (op_.kind == wl::OpKind::kGuildLeave) guild_of_[op_.player_a] = -1;
    if (op_.IsWrite()) last_acked_write_ = op_.seq;
    return Status::Ok();
  }

  uint64_t statements() const override { return statements_; }

  Status Audit() override {
    wl::MmoOracle oracle(cfg_);
    oracle.AdoptShadow(*shadow_);
    return oracle.Audit(db_.get());
  }

  void Crash() override {
    crash_->CrashNow();
    clients_.clear();
    db_.reset();
  }

  Result<prima::core::PrimaOptions> RestartOptions(int) override {
    std::shared_ptr<prima::storage::MemoryBlockDevice> copy =
        memory_->Clone();
    return Options(std::make_shared<TimingDevice>(copy, nullptr));
  }

  Status AuditRecovered(prima::core::Prima* db) override {
    PRIMA_ASSIGN_OR_RETURN(std::vector<int64_t> markers,
                           wl::ReadMarkers(db, cfg_.sessions));
    if (markers[0] != static_cast<int64_t>(last_acked_write_)) {
      return Status::Corruption(
          "recovered marker " + std::to_string(markers[0]) +
          " != last acknowledged write " + std::to_string(last_acked_write_));
    }
    wl::MmoOracle oracle(cfg_);
    oracle.RebuildFromMarkers(markers);
    return oracle.Audit(db);
  }

  Fields Config() const override {
    return {{"players", cfg_.players},
            {"guilds", cfg_.guilds},
            {"items", cfg_.players * cfg_.items_per_player},
            {"quests", cfg_.players * cfg_.quests_per_player},
            {"pool_bytes", static_cast<double>(kPoolBytes)},
            {"warmup_ops", kWarmupOps},
            {"steady_ops", kSteadyOps},
            {"tail_ops", kTailOps},
            {"file_device", 0}};
  }

  int TailOps() const override { return kTailOps; }
  int SteadyOps() const override { return kSteadyOps; }

 private:
  prima::core::PrimaOptions Options(
      std::shared_ptr<prima::storage::BlockDevice> device) const {
    prima::core::PrimaOptions options;
    options.device = std::move(device);
    options.storage.buffer_bytes = kPoolBytes;
    if (wire_) options.listen_port = 0;
    return options;
  }

  Status Connect() {
    if (wire_) {
      PRIMA_ASSIGN_OR_RETURN(
          std::unique_ptr<Client> wire,
          MakeWireClient(db_->net_server()->port(), &tracer_));
      clients_.push_back(std::move(wire));
    }
    // Lane 0 in process, or lane 1 beside the wire lane for comparison.
    clients_.push_back(MakeSessionClient(db_.get(), &tracer_));
    for (auto& client : clients_) {
      for (size_t i = 0; i < kSlotCount; ++i) {
        PRIMA_RETURN_IF_ERROR(client->Prepare(i, kSlotMql[i]));
      }
    }
    return Status::Ok();
  }

  /// Tid maps the guild statements need (MODIFY ... SET guild binds a REF;
  /// DISCONNECT names both atoms by tid).
  Status LoadTids() {
    player_tids_.assign(cfg_.players, Tid{});
    guild_tids_.assign(cfg_.guilds, Tid{});
    PRIMA_ASSIGN_OR_RETURN(auto players,
                           db_->Query("SELECT ALL FROM player"));
    for (const auto& m : players.molecules) {
      const auto& a = m.groups[0].atoms[0];
      player_tids_[a.attrs[wl::MmoAttrs::kPlayerNo].AsInt()] = a.tid;
    }
    PRIMA_ASSIGN_OR_RETURN(auto guilds, db_->Query("SELECT ALL FROM guild"));
    for (const auto& m : guilds.molecules) {
      const auto& a = m.groups[0].atoms[0];
      guild_tids_[a.attrs[wl::MmoAttrs::kGuildNo].AsInt()] = a.tid;
    }
    return Status::Ok();
  }

  /// A prepared MODIFY must hit its atom; 0 means the key vanished.
  Status ExecModify(Client* c, size_t slot) {
    ++statements_;
    PRIMA_ASSIGN_OR_RETURN(auto r, c->ExecutePrepared(slot));
    if (r.kind == prima::mql::ExecResult::Kind::kCount && r.count == 0) {
      return Status::Corruption(std::string("MODIFY matched no atom: ") +
                                kSlotMql[slot]);
    }
    return Status::Ok();
  }

  Result<int64_t> ReadInt(Client* c, size_t slot, int64_t key, size_t attr) {
    PRIMA_RETURN_IF_ERROR(c->Bind(slot, 0, Value::Int(key)));
    ++statements_;
    PRIMA_ASSIGN_OR_RETURN(auto r, c->ExecutePrepared(slot));
    if (r.molecules.molecules.size() != 1) {
      return Status::Corruption("keyed read found " +
                                std::to_string(r.molecules.molecules.size()) +
                                " atoms");
    }
    return r.molecules.molecules[0].groups[0].atoms[0].attrs[attr].AsInt();
  }

  Status SetInt(Client* c, size_t slot, int64_t key, int64_t value) {
    PRIMA_RETURN_IF_ERROR(c->Bind(slot, 0, Value::Int(value)));
    PRIMA_RETURN_IF_ERROR(c->Bind(slot, 1, Value::Int(key)));
    return ExecModify(c, slot);
  }

  /// Touch-lock: take the write lock with a no-payload MODIFY before the
  /// read of a read-modify-write.
  Status Touch(Client* c, size_t slot, int64_t key) {
    return SetInt(c, slot, key, static_cast<int64_t>(op_.seq));
  }

  Status WriteMarker(Client* c) {
    return SetInt(c, kMarker, 0, static_cast<int64_t>(op_.seq));
  }

  Status OpBody(Client* c) {
    statements_ += 2;  // BEGIN + COMMIT
    const wl::Op& op = op_;
    switch (op.kind) {
      case wl::OpKind::kLogin:
        return ReadInt(c, kSelPlayer, op.player_a, wl::MmoAttrs::kPlayerGold)
            .status();
      case wl::OpKind::kItemGrant: {
        PRIMA_RETURN_IF_ERROR(Touch(c, kTouchItem, op.item));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t count,
            ReadInt(c, kSelItem, op.item, wl::MmoAttrs::kItemCount));
        PRIMA_RETURN_IF_ERROR(
            SetInt(c, kSetItemCount, op.item, count + op.amount));
        return WriteMarker(c);
      }
      case wl::OpKind::kGoldTransfer: {
        const int lo = std::min(op.player_a, op.player_b);
        const int hi = std::max(op.player_a, op.player_b);
        PRIMA_RETURN_IF_ERROR(Touch(c, kTouchPlayer, lo));
        PRIMA_RETURN_IF_ERROR(Touch(c, kTouchPlayer, hi));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t from,
            ReadInt(c, kSelPlayer, op.player_a, wl::MmoAttrs::kPlayerGold));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t to,
            ReadInt(c, kSelPlayer, op.player_b, wl::MmoAttrs::kPlayerGold));
        PRIMA_RETURN_IF_ERROR(SetInt(c, kSetGold, op.player_a,
                                     from - op.amount));
        PRIMA_RETURN_IF_ERROR(SetInt(c, kSetGold, op.player_b, to + op.amount));
        return WriteMarker(c);
      }
      case wl::OpKind::kGuildJoin: {
        PRIMA_RETURN_IF_ERROR(
            c->Bind(kSetGuild, 0, Value::Ref(guild_tids_[op.guild])));
        PRIMA_RETURN_IF_ERROR(c->Bind(kSetGuild, 1, Value::Int(op.player_a)));
        PRIMA_RETURN_IF_ERROR(ExecModify(c, kSetGuild));
        return WriteMarker(c);
      }
      case wl::OpKind::kGuildLeave: {
        ++statements_;
        PRIMA_RETURN_IF_ERROR(
            c->Execute("DISCONNECT " + player_tids_[op.player_a].ToString() +
                           ".guild FROM " + guild_tids_[op.guild].ToString(),
                       SpanKind::kMqlExecute)
                .status());
        return WriteMarker(c);
      }
      case wl::OpKind::kRosterScan: {
        PRIMA_RETURN_IF_ERROR(c->Bind(kRoster, 0, Value::Int(op.guild)));
        ++statements_;
        PRIMA_RETURN_IF_ERROR(c->Scan(kRoster, &roster_));
        if (roster_.size() != 1) {
          return Status::Corruption("roster scan of guild " +
                                    std::to_string(op.guild) + " returned " +
                                    std::to_string(roster_.size()) +
                                    " molecules");
        }
        return Status::Ok();
      }
      case wl::OpKind::kQuestTick: {
        PRIMA_RETURN_IF_ERROR(Touch(c, kTouchQuest, op.quest));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t ticks,
            ReadInt(c, kSelQuest, op.quest, wl::MmoAttrs::kQuestTicks));
        PRIMA_RETURN_IF_ERROR(SetInt(c, kSetTicks, op.quest, ticks + 1));
        return WriteMarker(c);
      }
    }
    return Status::InvalidArgument("unknown op kind");
  }

  const bool wire_;
  const wl::MmoConfig cfg_;
  std::shared_ptr<prima::storage::MemoryBlockDevice> memory_;
  std::shared_ptr<prima::recovery::CrashingBlockDevice> crash_;
  std::vector<std::unique_ptr<Client>> clients_;  ///< lane -> client
  std::vector<Tid> player_tids_;
  std::vector<Tid> guild_tids_;
  std::unique_ptr<wl::MmoShadow> shadow_;
  std::vector<int> guild_of_;
  std::vector<prima::mql::Molecule> roster_;
  wl::Op op_;
  uint64_t seq_ = 0;
  uint64_t last_acked_write_ = 0;
  uint64_t statements_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMmoWorkload(const RunArgs& args, bool wire) {
  return std::make_unique<MmoWorkload>(args, wire);
}

}  // namespace perfbench
