#include "workloads/mmo.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "net/client.h"
#include "obs/trace.h"

namespace prima::workloads {

using access::AttrValue;
using access::Tid;
using access::Value;
using util::Result;
using util::Status;

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kLogin:        return "login";
    case OpKind::kItemGrant:    return "item_grant";
    case OpKind::kGoldTransfer: return "gold_transfer";
    case OpKind::kGuildJoin:    return "guild_join";
    case OpKind::kGuildLeave:   return "guild_leave";
    case OpKind::kRosterScan:   return "roster_scan";
    case OpKind::kQuestTick:    return "quest_tick";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Schema + population
// ---------------------------------------------------------------------------

namespace {
// The MmoAttrs constants in the header are the wire driver's only catalog;
// the installer verifies them against the real one below.
const char* kSchema[] = {
    "CREATE ATOM_TYPE account"
    " ( account_id : IDENTIFIER,"
    "   account_no : INTEGER,"
    "   last_op : INTEGER,"
    "   player : REF_TO (player.account) )"
    " KEYS_ARE (account_no)",

    "CREATE ATOM_TYPE player"
    " ( player_id : IDENTIFIER,"
    "   player_no : INTEGER,"
    "   name : CHAR_VAR,"
    "   gold : INTEGER,"
    "   touch : INTEGER,"
    "   account : REF_TO (account.player),"
    "   guild : REF_TO (guild.members),"
    "   items : SET_OF (REF_TO (item.owner)),"
    "   quests : SET_OF (REF_TO (quest.player)) )"
    " KEYS_ARE (player_no)",

    "CREATE ATOM_TYPE guild"
    " ( guild_id : IDENTIFIER,"
    "   guild_no : INTEGER,"
    "   name : CHAR_VAR,"
    "   members : SET_OF (REF_TO (player.guild)) )"
    " KEYS_ARE (guild_no)",

    "CREATE ATOM_TYPE item"
    " ( item_id : IDENTIFIER,"
    "   item_no : INTEGER,"
    "   kind : INTEGER,"
    "   count : INTEGER,"
    "   touch : INTEGER,"
    "   owner : REF_TO (player.items) )"
    " KEYS_ARE (item_no)",

    "CREATE ATOM_TYPE quest"
    " ( quest_id : IDENTIFIER,"
    "   quest_no : INTEGER,"
    "   ticks : INTEGER,"
    "   touch : INTEGER,"
    "   player : REF_TO (player.quests) )"
    " KEYS_ARE (quest_no)",
};

Status CheckAttr(const access::AtomTypeDef* def, const char* name,
                 size_t expected) {
  const auto* attr = def->FindAttr(name);
  if (attr == nullptr || attr->id != expected) {
    return Status::InvalidArgument(std::string("MMO schema drifted: ") + name);
  }
  return Status::Ok();
}
}  // namespace

Status MmoWorkload::CreateSchema() {
  for (const char* stmt : kSchema) {
    auto r = db_->Execute(stmt);
    if (!r.ok()) return r.status();
  }
  const access::Catalog& catalog = db_->access().catalog();
  const auto* account = catalog.FindAtomType("account");
  const auto* player = catalog.FindAtomType("player");
  const auto* guild = catalog.FindAtomType("guild");
  const auto* item = catalog.FindAtomType("item");
  const auto* quest = catalog.FindAtomType("quest");
  PRIMA_RETURN_IF_ERROR(CheckAttr(account, "account_no", MmoAttrs::kAccountNo));
  PRIMA_RETURN_IF_ERROR(CheckAttr(account, "last_op", MmoAttrs::kAccountLastOp));
  PRIMA_RETURN_IF_ERROR(CheckAttr(player, "player_no", MmoAttrs::kPlayerNo));
  PRIMA_RETURN_IF_ERROR(CheckAttr(player, "gold", MmoAttrs::kPlayerGold));
  PRIMA_RETURN_IF_ERROR(CheckAttr(player, "touch", MmoAttrs::kPlayerTouch));
  PRIMA_RETURN_IF_ERROR(CheckAttr(player, "guild", MmoAttrs::kPlayerGuild));
  PRIMA_RETURN_IF_ERROR(CheckAttr(guild, "guild_no", MmoAttrs::kGuildNo));
  PRIMA_RETURN_IF_ERROR(CheckAttr(guild, "members", MmoAttrs::kGuildMembers));
  PRIMA_RETURN_IF_ERROR(CheckAttr(item, "item_no", MmoAttrs::kItemNo));
  PRIMA_RETURN_IF_ERROR(CheckAttr(item, "count", MmoAttrs::kItemCount));
  PRIMA_RETURN_IF_ERROR(CheckAttr(item, "touch", MmoAttrs::kItemTouch));
  PRIMA_RETURN_IF_ERROR(CheckAttr(quest, "quest_no", MmoAttrs::kQuestNo));
  PRIMA_RETURN_IF_ERROR(CheckAttr(quest, "ticks", MmoAttrs::kQuestTicks));
  PRIMA_RETURN_IF_ERROR(CheckAttr(quest, "touch", MmoAttrs::kQuestTouch));
  return Status::Ok();
}

Status MmoWorkload::Populate(const MmoConfig& cfg) {
  if (cfg.players < cfg.sessions || cfg.sessions < 1 || cfg.guilds < 1) {
    return Status::InvalidArgument("MMO config: need players >= sessions >= 1"
                                   " and at least one guild");
  }
  access::AccessSystem& access = db_->access();
  const access::Catalog& catalog = access.catalog();
  const auto* account = catalog.FindAtomType("account");
  const auto* player = catalog.FindAtomType("player");
  const auto* guild = catalog.FindAtomType("guild");
  const auto* item = catalog.FindAtomType("item");
  const auto* quest = catalog.FindAtomType("quest");
  if (player == nullptr) return Status::InvalidArgument("MMO schema missing");

  for (int s = 0; s < cfg.sessions; ++s) {
    PRIMA_ASSIGN_OR_RETURN(
        Tid t, access.InsertAtom(
                   account->id,
                   {AttrValue{MmoAttrs::kAccountNo, Value::Int(s)},
                    AttrValue{MmoAttrs::kAccountLastOp, Value::Int(0)}}));
    (void)t;
  }
  std::vector<Tid> player_tids(cfg.players);
  for (int p = 0; p < cfg.players; ++p) {
    PRIMA_ASSIGN_OR_RETURN(
        player_tids[p],
        access.InsertAtom(
            player->id,
            {AttrValue{MmoAttrs::kPlayerNo, Value::Int(p)},
             AttrValue{2, Value::String("p" + std::to_string(p))},
             AttrValue{MmoAttrs::kPlayerGold, Value::Int(cfg.initial_gold)},
             AttrValue{MmoAttrs::kPlayerTouch, Value::Int(0)}}));
  }
  for (int g = 0; g < cfg.guilds; ++g) {
    PRIMA_ASSIGN_OR_RETURN(
        Tid t, access.InsertAtom(
                   guild->id,
                   {AttrValue{MmoAttrs::kGuildNo, Value::Int(g)},
                    AttrValue{2, Value::String("g" + std::to_string(g))}}));
    (void)t;
  }
  for (int p = 0; p < cfg.players; ++p) {
    for (int k = 0; k < cfg.items_per_player; ++k) {
      PRIMA_ASSIGN_OR_RETURN(
          Tid t,
          access.InsertAtom(
              item->id,
              {AttrValue{MmoAttrs::kItemNo,
                         Value::Int(p * cfg.items_per_player + k)},
               AttrValue{2, Value::Int(k)},
               AttrValue{MmoAttrs::kItemCount, Value::Int(0)},
               AttrValue{MmoAttrs::kItemTouch, Value::Int(0)},
               AttrValue{5, Value::Ref(player_tids[p])}}));
      (void)t;
    }
    for (int k = 0; k < cfg.quests_per_player; ++k) {
      PRIMA_ASSIGN_OR_RETURN(
          Tid t,
          access.InsertAtom(
              quest->id,
              {AttrValue{MmoAttrs::kQuestNo,
                         Value::Int(p * cfg.quests_per_player + k)},
               AttrValue{MmoAttrs::kQuestTicks, Value::Int(0)},
               AttrValue{MmoAttrs::kQuestTouch, Value::Int(0)},
               AttrValue{4, Value::Ref(player_tids[p])}}));
      (void)t;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Deterministic op generation
// ---------------------------------------------------------------------------

namespace {
/// Per-(session, seq) RNG stream: the op is reproducible in isolation, which
/// is what lets a fresh process rebuild the oracle after kill -9.
uint64_t OpSeed(uint64_t seed, int session, uint64_t seq) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ull;
  s ^= (static_cast<uint64_t>(session) + 1) * 0xBF58476D1CE4E5B9ull;
  s = (s ^ (s >> 27)) * 0x94D049BB133111EBull;
  s ^= seq * 0xD6E8FEB86659FD93ull;
  return s | 1;  // xorshift streams must not start at 0
}
}  // namespace

Op PlanOp(const MmoConfig& cfg, int session, uint64_t seq,
          const std::vector<int>& guild_of) {
  util::Random rng(OpSeed(cfg.seed, session, seq));
  Op op;
  op.session = session;
  op.seq = seq;

  const auto& m = cfg.mix;
  const int total = m.login + m.item_grant + m.gold_transfer + m.guild_join +
                    m.guild_leave + m.roster_scan + m.quest_tick;
  int pick = static_cast<int>(rng.Uniform(static_cast<uint64_t>(
      total > 0 ? total : 1)));
  auto take = [&pick](int w) {
    pick -= w;
    return pick < 0;
  };
  if (take(m.login))              op.kind = OpKind::kLogin;
  else if (take(m.item_grant))    op.kind = OpKind::kItemGrant;
  else if (take(m.gold_transfer)) op.kind = OpKind::kGoldTransfer;
  else if (take(m.guild_join))    op.kind = OpKind::kGuildJoin;
  else if (take(m.guild_leave))   op.kind = OpKind::kGuildLeave;
  else if (take(m.roster_scan))   op.kind = OpKind::kRosterScan;
  else                            op.kind = OpKind::kQuestTick;

  op.voluntary_abort =
      cfg.abort_fraction > 0.0 && rng.NextDouble() < cfg.abort_fraction;

  const int players = cfg.players;
  auto owned_player = [&] {
    // Players are sliced by player_no % sessions; only the owner session
    // ever changes a player's guild, so membership never needs cross-thread
    // agreement.
    const int owned =
        (players - session + cfg.sessions - 1) / cfg.sessions;
    return session +
           cfg.sessions * static_cast<int>(rng.Uniform(
                              static_cast<uint64_t>(owned)));
  };
  switch (op.kind) {
    case OpKind::kLogin:
      op.player_a = static_cast<int>(rng.Skewed(players));
      break;
    case OpKind::kItemGrant:
      op.item = static_cast<int>(
          rng.Skewed(static_cast<uint64_t>(players) * cfg.items_per_player));
      op.amount = 1 + static_cast<int64_t>(rng.Uniform(5));
      break;
    case OpKind::kGoldTransfer:
      op.player_a = static_cast<int>(rng.Skewed(players));
      op.player_b = static_cast<int>(rng.Skewed(players));
      if (op.player_b == op.player_a) op.player_b = (op.player_a + 1) % players;
      op.amount = 1 + static_cast<int64_t>(rng.Uniform(10));
      break;
    case OpKind::kGuildJoin:
      op.player_a = owned_player();
      op.guild = static_cast<int>(rng.Uniform(cfg.guilds));
      break;
    case OpKind::kGuildLeave:
      op.player_a = owned_player();
      op.guild = static_cast<int>(rng.Uniform(cfg.guilds));  // join fallback
      if (guild_of[op.player_a] < 0) {
        op.kind = OpKind::kGuildJoin;  // nothing to leave: join instead
      } else {
        op.guild = guild_of[op.player_a];
      }
      break;
    case OpKind::kRosterScan:
      op.guild = static_cast<int>(rng.Skewed(cfg.guilds));
      break;
    case OpKind::kQuestTick:
      op.quest = static_cast<int>(
          rng.Skewed(static_cast<uint64_t>(players) * cfg.quests_per_player));
      break;
  }
  if (!op.IsWrite()) op.voluntary_abort = false;
  return op;
}

// ---------------------------------------------------------------------------
// Shadow
// ---------------------------------------------------------------------------

MmoShadow::MmoShadow(const MmoConfig& cfg)
    : gold_(cfg.players, cfg.initial_gold),
      guild_of_(cfg.players, -1),
      items_(static_cast<size_t>(cfg.players) * cfg.items_per_player, 0),
      quests_(static_cast<size_t>(cfg.players) * cfg.quests_per_player, 0) {}

void MmoShadow::Apply(const Op& op) {
  switch (op.kind) {
    case OpKind::kGoldTransfer:
      gold_[op.player_a] -= op.amount;
      gold_[op.player_b] += op.amount;
      break;
    case OpKind::kItemGrant:
      items_[op.item] += op.amount;
      break;
    case OpKind::kQuestTick:
      quests_[op.quest] += 1;
      break;
    case OpKind::kGuildJoin:
      guild_of_[op.player_a] = op.guild;
      break;
    case OpKind::kGuildLeave:
      guild_of_[op.player_a] = -1;
      break;
    case OpKind::kLogin:
    case OpKind::kRosterScan:
      break;
  }
}

int64_t MmoShadow::total_gold() const {
  int64_t sum = 0;
  for (int64_t g : gold_) sum += g;
  return sum;
}

// ---------------------------------------------------------------------------
// Transport-neutral session
// ---------------------------------------------------------------------------

namespace {

/// The driver speaks to both transports through one surface: plain Execute,
/// slot-addressed prepared statements, and a streaming scan.
class MmoSession {
 public:
  virtual ~MmoSession() = default;
  virtual Result<mql::ExecResult> Execute(const std::string& mql) = 0;
  virtual Status Prepare(size_t slot, const std::string& mql) = 0;
  virtual Status Bind(size_t slot, size_t index, const Value& v) = 0;
  virtual Result<mql::ExecResult> ExecutePrepared(size_t slot) = 0;
  /// Drain the prepared SELECT in `slot` as a streaming cursor; returns the
  /// number of molecules streamed.
  virtual Result<uint64_t> ScanPrepared(size_t slot) = 0;
};

class InProcSession final : public MmoSession {
 public:
  explicit InProcSession(core::Prima* db) : session_(db->OpenSession()) {}

  Result<mql::ExecResult> Execute(const std::string& mql) override {
    return session_->Execute(mql);
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    PRIMA_ASSIGN_OR_RETURN(auto stmt, session_->Prepare(mql));
    slots_[slot].emplace(std::move(stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& v) override {
    return slots_[slot]->Bind(index, v);
  }
  Result<mql::ExecResult> ExecutePrepared(size_t slot) override {
    return slots_[slot]->Execute();
  }
  Result<uint64_t> ScanPrepared(size_t slot) override {
    PRIMA_ASSIGN_OR_RETURN(auto cursor, slots_[slot]->Query());
    uint64_t n = 0;
    while (true) {
      PRIMA_ASSIGN_OR_RETURN(auto molecule, cursor.Next());
      if (!molecule.has_value()) break;
      ++n;
    }
    return n;
  }

 private:
  std::unique_ptr<core::Session> session_;
  std::vector<std::optional<core::PreparedStatement>> slots_;
};

class WireSession final : public MmoSession {
 public:
  static Result<std::unique_ptr<WireSession>> Connect(const std::string& host,
                                                      uint16_t port) {
    PRIMA_ASSIGN_OR_RETURN(auto client, net::Client::Connect(host, port));
    auto s = std::unique_ptr<WireSession>(new WireSession);
    s->client_ = std::move(client);
    return s;
  }

  Result<mql::ExecResult> Execute(const std::string& mql) override {
    return client_->Execute(mql);
  }
  Status Prepare(size_t slot, const std::string& mql) override {
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    PRIMA_ASSIGN_OR_RETURN(auto stmt, client_->Prepare(mql));
    slots_[slot].emplace(std::move(stmt));
    return Status::Ok();
  }
  Status Bind(size_t slot, size_t index, const Value& v) override {
    return slots_[slot]->Bind(static_cast<uint32_t>(index), v);
  }
  Result<mql::ExecResult> ExecutePrepared(size_t slot) override {
    return slots_[slot]->Execute();
  }
  Result<uint64_t> ScanPrepared(size_t slot) override {
    PRIMA_ASSIGN_OR_RETURN(auto cursor, slots_[slot]->Query(64));
    uint64_t n = 0;
    while (true) {
      PRIMA_ASSIGN_OR_RETURN(auto molecule, cursor.Next());
      if (!molecule.has_value()) break;
      ++n;
    }
    PRIMA_RETURN_IF_ERROR(cursor.Close());
    return n;
  }

 private:
  WireSession() = default;
  std::unique_ptr<net::Client> client_;
  std::vector<std::optional<net::RemoteStatement>> slots_;
};

Status ToStatus(const Result<mql::ExecResult>& r) {
  return r.ok() ? Status::Ok() : r.status();
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

namespace {
enum Slot : size_t {
  kSelPlayer = 0,  // SELECT ALL FROM player WHERE player_no = ?
  kTouchPlayer,    // MODIFY player SET touch = ? WHERE player_no = ?
  kSetGold,        // MODIFY player SET gold = ? WHERE player_no = ?
  kSetGuild,       // MODIFY player SET guild = ? WHERE player_no = ?
  kSelItem,
  kTouchItem,
  kSetItemCount,
  kSelQuest,
  kTouchQuest,
  kSetTicks,
  kMarker,         // MODIFY account SET last_op = ? WHERE account_no = ?
  kRoster,         // SELECT ALL FROM guild-player-item WHERE guild_no = ?
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
}  // namespace

class MmoDriver::SessionRunner {
 public:
  SessionRunner(MmoDriver* driver, int sid, obs::Histogram* hist,
                std::atomic<uint64_t>* retries,
                std::atomic<uint64_t>* scanned,
                std::atomic<uint64_t>* voluntary)
      : driver_(driver),
        cfg_(driver->cfg_),
        sid_(sid),
        hist_(hist),
        retries_(retries),
        scanned_(scanned),
        voluntary_(voluntary),
        guild_of_(cfg_.players, -1) {}

  Status Run() {
    PRIMA_RETURN_IF_ERROR(Open());
    PRIMA_RETURN_IF_ERROR(Warmup());
    for (size_t i = 0; i < kSlotCount; ++i) {
      PRIMA_RETURN_IF_ERROR(sess_->Prepare(i, kSlotMql[i]));
    }
    util::RetryPolicy policy;
    policy.max_attempts = cfg_.max_attempts;
    policy.jitter_seed = OpSeed(cfg_.seed, sid_, 0) ^ 0x6A6974746572ull;
    policy.retry_counter = retries_;
    acked_.reserve(cfg_.ops_per_session);
    for (uint64_t seq = 1; seq <= cfg_.ops_per_session; ++seq) {
      const Op op = PlanOp(cfg_, sid_, seq, guild_of_);
      const uint64_t t0 = obs::NowNs();
      Status st =
          util::RetryTransient(policy, [&] { return ExecOp(op); });
      if (!st.ok()) {
        return Status::IoError("mmo session " + std::to_string(sid_) +
                               " op " + std::to_string(seq) + " (" +
                               OpKindName(op.kind) + "): " + st.ToString());
      }
      hist_[static_cast<int>(op.kind)].Record((obs::NowNs() - t0) / 1000);
      if (op.voluntary_abort) {
        voluntary_->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (driver_->ack_hook_) driver_->ack_hook_(op);
      acked_.push_back(op);
      if (op.kind == OpKind::kGuildJoin) guild_of_[op.player_a] = op.guild;
      if (op.kind == OpKind::kGuildLeave) guild_of_[op.player_a] = -1;
    }
    return Status::Ok();
  }

  std::vector<Op> acked_;

 private:
  Status Open() {
    if (driver_->db_ != nullptr) {
      sess_ = std::make_unique<InProcSession>(driver_->db_);
      return Status::Ok();
    }
    PRIMA_ASSIGN_OR_RETURN(auto wire,
                           WireSession::Connect(cfg_.host, cfg_.port));
    sess_ = std::move(wire);
    return Status::Ok();
  }

  /// Load the tid maps the guild statements need (MODIFY ... SET guild binds
  /// a REF value; DISCONNECT addresses both atoms by tid literal).
  Status Warmup() {
    player_tids_.assign(cfg_.players, Tid{});
    guild_tids_.assign(cfg_.guilds, Tid{});
    PRIMA_ASSIGN_OR_RETURN(auto players,
                           sess_->Execute("SELECT ALL FROM player"));
    for (const auto& m : players.molecules.molecules) {
      const access::Atom& a = m.groups[0].atoms[0];
      player_tids_[a.attrs[MmoAttrs::kPlayerNo].AsInt()] = a.tid;
    }
    PRIMA_ASSIGN_OR_RETURN(auto guilds,
                           sess_->Execute("SELECT ALL FROM guild"));
    for (const auto& m : guilds.molecules.molecules) {
      const access::Atom& a = m.groups[0].atoms[0];
      guild_tids_[a.attrs[MmoAttrs::kGuildNo].AsInt()] = a.tid;
    }
    return Status::Ok();
  }

  Status Exec(const std::string& mql) { return ToStatus(sess_->Execute(mql)); }

  /// Execute a prepared MODIFY and insist it hit its atom — a 0-count means
  /// the key vanished, which the oracle must hear about as corruption, not
  /// as a silently-skipped update.
  Status ExecModify(size_t slot) {
    PRIMA_ASSIGN_OR_RETURN(auto r, sess_->ExecutePrepared(slot));
    if (r.kind == mql::ExecResult::Kind::kCount && r.count == 0) {
      return Status::Corruption("MODIFY matched no atom: " +
                                std::string(kSlotMql[slot]));
    }
    return Status::Ok();
  }

  /// Keyed single-atom read through a prepared SELECT.
  Result<int64_t> ReadInt(size_t slot, int64_t key, size_t attr) {
    PRIMA_RETURN_IF_ERROR(sess_->Bind(slot, 0, Value::Int(key)));
    PRIMA_ASSIGN_OR_RETURN(auto r, sess_->ExecutePrepared(slot));
    if (r.molecules.molecules.size() != 1) {
      return Status::Corruption("keyed read found " +
                                std::to_string(r.molecules.molecules.size()) +
                                " atoms");
    }
    return r.molecules.molecules[0].groups[0].atoms[0].attrs[attr].AsInt();
  }

  /// Touch-lock: acquire the write lock via a no-payload MODIFY before
  /// reading, so the read-modify-write below cannot lose an update (plain
  /// reads take no locks in PRIMA).
  Status Touch(size_t slot, int64_t key, uint64_t seq) {
    PRIMA_RETURN_IF_ERROR(sess_->Bind(slot, 0, Value::Int(
        static_cast<int64_t>(seq))));
    PRIMA_RETURN_IF_ERROR(sess_->Bind(slot, 1, Value::Int(key)));
    return ExecModify(slot);
  }

  Status SetInt(size_t slot, int64_t key, int64_t value) {
    PRIMA_RETURN_IF_ERROR(sess_->Bind(slot, 0, Value::Int(value)));
    PRIMA_RETURN_IF_ERROR(sess_->Bind(slot, 1, Value::Int(key)));
    return ExecModify(slot);
  }

  Status WriteMarker(uint64_t seq) {
    PRIMA_RETURN_IF_ERROR(sess_->Bind(kMarker, 0, Value::Int(
        static_cast<int64_t>(seq))));
    PRIMA_RETURN_IF_ERROR(sess_->Bind(kMarker, 1, Value::Int(sid_)));
    return ExecModify(kMarker);
  }

  /// One self-contained attempt: BEGIN, the op's statements, then COMMIT —
  /// or ABORT on any failure (so a transient conflict leaves nothing held
  /// and the retry loop can simply re-run) and on the storm's voluntary
  /// aborts.
  Status ExecOp(const Op& op) {
    PRIMA_RETURN_IF_ERROR(Exec("BEGIN WORK"));
    Status st = OpBody(op);
    if (!st.ok()) {
      (void)Exec("ABORT WORK");
      return st;
    }
    if (op.voluntary_abort) return Exec("ABORT WORK");
    return Exec("COMMIT WORK");
  }

  Status OpBody(const Op& op) {
    switch (op.kind) {
      case OpKind::kLogin: {
        return ReadInt(kSelPlayer, op.player_a, MmoAttrs::kPlayerGold)
            .status();
      }
      case OpKind::kItemGrant: {
        PRIMA_RETURN_IF_ERROR(Touch(kTouchItem, op.item, op.seq));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t count,
            ReadInt(kSelItem, op.item, MmoAttrs::kItemCount));
        PRIMA_RETURN_IF_ERROR(
            SetInt(kSetItemCount, op.item, count + op.amount));
        return WriteMarker(op.seq);
      }
      case OpKind::kGoldTransfer: {
        // Canonical lock order: both transfer directions touch the lower
        // player_no first, so two concurrent transfers over the same pair
        // fight over one lock instead of two.
        const int lo = std::min(op.player_a, op.player_b);
        const int hi = std::max(op.player_a, op.player_b);
        PRIMA_RETURN_IF_ERROR(Touch(kTouchPlayer, lo, op.seq));
        PRIMA_RETURN_IF_ERROR(Touch(kTouchPlayer, hi, op.seq));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t from_gold,
            ReadInt(kSelPlayer, op.player_a, MmoAttrs::kPlayerGold));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t to_gold,
            ReadInt(kSelPlayer, op.player_b, MmoAttrs::kPlayerGold));
        PRIMA_RETURN_IF_ERROR(
            SetInt(kSetGold, op.player_a, from_gold - op.amount));
        PRIMA_RETURN_IF_ERROR(
            SetInt(kSetGold, op.player_b, to_gold + op.amount));
        return WriteMarker(op.seq);
      }
      case OpKind::kGuildJoin: {
        // MODIFY (not CONNECT): ModifyAtom locks the OLD guild's atom too,
        // so the departure edit of its member list cannot race another
        // transaction.
        PRIMA_RETURN_IF_ERROR(
            sess_->Bind(kSetGuild, 0, Value::Ref(guild_tids_[op.guild])));
        PRIMA_RETURN_IF_ERROR(
            sess_->Bind(kSetGuild, 1, Value::Int(op.player_a)));
        PRIMA_RETURN_IF_ERROR(ExecModify(kSetGuild));
        return WriteMarker(op.seq);
      }
      case OpKind::kGuildLeave: {
        PRIMA_RETURN_IF_ERROR(
            Exec("DISCONNECT " + player_tids_[op.player_a].ToString() +
                 ".guild FROM " + guild_tids_[op.guild].ToString()));
        return WriteMarker(op.seq);
      }
      case OpKind::kRosterScan: {
        PRIMA_RETURN_IF_ERROR(sess_->Bind(kRoster, 0, Value::Int(op.guild)));
        PRIMA_ASSIGN_OR_RETURN(const uint64_t n, sess_->ScanPrepared(kRoster));
        scanned_->fetch_add(n, std::memory_order_relaxed);
        return Status::Ok();
      }
      case OpKind::kQuestTick: {
        PRIMA_RETURN_IF_ERROR(Touch(kTouchQuest, op.quest, op.seq));
        PRIMA_ASSIGN_OR_RETURN(
            const int64_t ticks,
            ReadInt(kSelQuest, op.quest, MmoAttrs::kQuestTicks));
        PRIMA_RETURN_IF_ERROR(SetInt(kSetTicks, op.quest, ticks + 1));
        return WriteMarker(op.seq);
      }
    }
    return Status::InvalidArgument("unknown op kind");
  }

  MmoDriver* driver_;
  const MmoConfig& cfg_;
  int sid_;
  obs::Histogram* hist_;
  std::atomic<uint64_t>* retries_;
  std::atomic<uint64_t>* scanned_;
  std::atomic<uint64_t>* voluntary_;
  std::unique_ptr<MmoSession> sess_;
  std::vector<Tid> player_tids_;
  std::vector<Tid> guild_tids_;
  std::vector<int> guild_of_;  ///< only this session's slice is maintained
};

MmoDriver::MmoDriver(core::Prima* db, MmoConfig cfg)
    : db_(db), cfg_(std::move(cfg)) {}

MmoDriver::MmoDriver(std::string host, uint16_t port, MmoConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.host = std::move(host);
  cfg_.port = port;
}

Result<MmoRunResult> MmoDriver::Run() {
  shadow_ = std::make_unique<MmoShadow>(cfg_);
  std::vector<obs::Histogram> hist(kOpKinds);
  std::atomic<uint64_t> retries{0}, scanned{0}, voluntary{0};

  std::vector<std::unique_ptr<SessionRunner>> runners;
  runners.reserve(cfg_.sessions);
  for (int s = 0; s < cfg_.sessions; ++s) {
    runners.push_back(std::make_unique<SessionRunner>(
        this, s, hist.data(), &retries, &scanned, &voluntary));
  }
  std::vector<Status> outcome(cfg_.sessions);
  {
    std::vector<std::thread> threads;
    threads.reserve(cfg_.sessions);
    for (int s = 0; s < cfg_.sessions; ++s) {
      threads.emplace_back(
          [&outcome, &runners, s] { outcome[s] = runners[s]->Run(); });
    }
    for (auto& t : threads) t.join();
  }
  for (const Status& st : outcome) PRIMA_RETURN_IF_ERROR(st);

  MmoRunResult result;
  for (auto& runner : runners) {
    for (const Op& op : runner->acked_) shadow_->Apply(op);
    result.ops_acked += runner->acked_.size();
  }
  result.ops_aborted = voluntary.load();
  result.retries = retries.load();
  result.molecules_scanned = scanned.load();
  for (int k = 0; k < kOpKinds; ++k) result.latency_us[k] = hist[k].Snapshot();
  if (db_ != nullptr) {
    // Surface the driver's retry decisions through the kernel's counter, so
    // Prima::stats(), MetricsText() and the wire's stats reply (as
    // prima_txn_retries) report them. (A wire driver retries on its own
    // side of the connection; the server cannot see those, so remote runs
    // report retries from MmoRunResult instead.)
    db_->transactions().stats().txn_retries += result.retries;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

MmoOracle::MmoOracle(MmoConfig cfg) : cfg_(std::move(cfg)), shadow_(cfg_) {}

void MmoOracle::RebuildFromMarkers(const std::vector<int64_t>& markers) {
  shadow_ = MmoShadow(cfg_);
  std::vector<int> guild_of(cfg_.players, -1);
  for (int s = 0; s < cfg_.sessions; ++s) {
    const int64_t marker = s < static_cast<int>(markers.size()) ? markers[s] : 0;
    // A session's writes commit strictly in seq order (sequential session,
    // transient failures retried to success), so the recovered marker is a
    // prefix certificate: write ops <= marker committed, everything later
    // did not. Reads never mark; replaying them is a no-op.
    for (uint64_t seq = 1; seq <= static_cast<uint64_t>(marker); ++seq) {
      const Op op = PlanOp(cfg_, s, seq, guild_of);
      if (op.voluntary_abort || !op.IsWrite()) continue;
      shadow_.Apply(op);
      if (op.kind == OpKind::kGuildJoin) guild_of[op.player_a] = op.guild;
      if (op.kind == OpKind::kGuildLeave) guild_of[op.player_a] = -1;
    }
  }
}

namespace {
Status Mismatch(const std::string& what, int64_t expected, int64_t found) {
  return Status::Corruption("oracle mismatch: " + what + ": expected " +
                            std::to_string(expected) + ", found " +
                            std::to_string(found));
}
}  // namespace

Status MmoOracle::Audit(core::Prima* db) const {
  // Guilds first: tid map + the members side of the association.
  PRIMA_ASSIGN_OR_RETURN(auto guilds, db->Query("SELECT ALL FROM guild"));
  if (guilds.size() != static_cast<size_t>(cfg_.guilds)) {
    return Mismatch("guild count", cfg_.guilds,
                    static_cast<int64_t>(guilds.size()));
  }
  std::vector<Tid> guild_tids(cfg_.guilds);
  std::vector<std::vector<uint64_t>> members(cfg_.guilds);
  for (const auto& m : guilds.molecules) {
    const access::Atom& g = m.groups[0].atoms[0];
    const int no = static_cast<int>(g.attrs[MmoAttrs::kGuildNo].AsInt());
    guild_tids[no] = g.tid;
    const Value& list = g.attrs[MmoAttrs::kGuildMembers];
    if (!list.is_null()) {
      for (const Value& e : list.elems()) {
        members[no].push_back(e.AsTid().Pack());
      }
    }
  }

  // Players: exact gold, and the guild side of the association.
  PRIMA_ASSIGN_OR_RETURN(auto players, db->Query("SELECT ALL FROM player"));
  if (players.size() != static_cast<size_t>(cfg_.players)) {
    return Mismatch("player count", cfg_.players,
                    static_cast<int64_t>(players.size()));
  }
  std::vector<std::vector<uint64_t>> expected_members(cfg_.guilds);
  int64_t db_gold_total = 0;
  for (const auto& m : players.molecules) {
    const access::Atom& p = m.groups[0].atoms[0];
    const int no = static_cast<int>(p.attrs[MmoAttrs::kPlayerNo].AsInt());
    const int64_t gold = p.attrs[MmoAttrs::kPlayerGold].AsInt();
    db_gold_total += gold;
    if (gold != shadow_.gold(no)) {
      return Mismatch("player " + std::to_string(no) + " gold",
                      shadow_.gold(no), gold);
    }
    const int expected_guild = shadow_.guild_of(no);
    const Value& guild_ref = p.attrs[MmoAttrs::kPlayerGuild];
    if (expected_guild < 0) {
      if (!guild_ref.is_null() && !guild_ref.AsTid().IsNull()) {
        return Status::Corruption("oracle mismatch: player " +
                                  std::to_string(no) +
                                  " should be guildless but references " +
                                  guild_ref.AsTid().ToString());
      }
    } else {
      if (guild_ref.is_null() ||
          guild_ref.AsTid().Pack() != guild_tids[expected_guild].Pack()) {
        return Status::Corruption(
            "oracle mismatch: player " + std::to_string(no) +
            " should be in guild " + std::to_string(expected_guild));
      }
      expected_members[expected_guild].push_back(p.tid.Pack());
    }
  }

  // Conservation: gold is transferred, never minted or burned.
  const int64_t expected_total =
      static_cast<int64_t>(cfg_.players) * cfg_.initial_gold;
  if (db_gold_total != expected_total) {
    return Mismatch("total gold (conservation)", expected_total,
                    db_gold_total);
  }

  // Membership symmetry + the <= 1 guild invariant: each guild's member
  // list must be exactly the players whose guild ref points at it — a tid
  // in two lists or a dangling back-reference both fail here.
  for (int g = 0; g < cfg_.guilds; ++g) {
    auto got = members[g];
    auto want = expected_members[g];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      return Status::Corruption(
          "oracle mismatch: guild " + std::to_string(g) + " member list has " +
          std::to_string(got.size()) + " entries, expected " +
          std::to_string(want.size()) + " (or differing tids)");
    }
  }

  // Inventory balance: count == grants applied, value for value.
  PRIMA_ASSIGN_OR_RETURN(auto items, db->Query("SELECT ALL FROM item"));
  for (const auto& m : items.molecules) {
    const access::Atom& it = m.groups[0].atoms[0];
    const int no = static_cast<int>(it.attrs[MmoAttrs::kItemNo].AsInt());
    const int64_t count = it.attrs[MmoAttrs::kItemCount].AsInt();
    if (count != shadow_.item_count(no)) {
      return Mismatch("item " + std::to_string(no) + " count",
                      shadow_.item_count(no), count);
    }
  }
  PRIMA_ASSIGN_OR_RETURN(auto quests, db->Query("SELECT ALL FROM quest"));
  for (const auto& m : quests.molecules) {
    const access::Atom& q = m.groups[0].atoms[0];
    const int no = static_cast<int>(q.attrs[MmoAttrs::kQuestNo].AsInt());
    const int64_t ticks = q.attrs[MmoAttrs::kQuestTicks].AsInt();
    if (ticks != shadow_.quest_ticks(no)) {
      return Mismatch("quest " + std::to_string(no) + " ticks",
                      shadow_.quest_ticks(no), ticks);
    }
  }
  return Status::Ok();
}

Result<std::vector<int64_t>> ReadMarkers(core::Prima* db, int sessions) {
  PRIMA_ASSIGN_OR_RETURN(auto accounts, db->Query("SELECT ALL FROM account"));
  std::vector<int64_t> markers(sessions, 0);
  for (const auto& m : accounts.molecules) {
    const access::Atom& a = m.groups[0].atoms[0];
    const int no = static_cast<int>(a.attrs[MmoAttrs::kAccountNo].AsInt());
    if (no >= 0 && no < sessions && !a.attrs[MmoAttrs::kAccountLastOp].is_null()) {
      markers[no] = a.attrs[MmoAttrs::kAccountLastOp].AsInt();
    }
  }
  return markers;
}

}  // namespace prima::workloads
