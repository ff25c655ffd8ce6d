#include "core/session.h"

#include <cctype>

#include "mql/parser.h"
#include "obs/trace.h"

namespace prima::core {

using mql::ExecResult;
using mql::MoleculeCursor;
using mql::Statement;
using util::Result;
using util::Status;

namespace {

/// The WHERE clause whose root predicates feed the plan, if the statement
/// has one.
const mql::Expr* PlannedWhere(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kQuery:
      return stmt.query.where.get();
    case Statement::Kind::kDelete:
      return stmt.del.where.get();
    case Statement::Kind::kModify:
      return stmt.modify.where.get();
    default:
      return nullptr;
  }
}

const mql::FromClause* PlannedFrom(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kQuery:
      return &stmt.query.from;
    case Statement::Kind::kDelete:
      return &stmt.del.from;
    case Statement::Kind::kModify:
      return &stmt.modify.from;
    default:
      return nullptr;
  }
}

bool IsDml(Statement::Kind kind) {
  return kind == Statement::Kind::kInsert ||
         kind == Statement::Kind::kDelete ||
         kind == Statement::Kind::kModify ||
         kind == Statement::Kind::kConnect;
}

bool IsTransactionControl(Statement::Kind kind) {
  return kind == Statement::Kind::kBeginWork ||
         kind == Statement::Kind::kCommitWork ||
         kind == Statement::Kind::kAbortWork;
}

bool IsDdl(Statement::Kind kind) {
  return kind == Statement::Kind::kCreateAtomType ||
         kind == Statement::Kind::kDefineMoleculeType ||
         kind == Statement::Kind::kDrop;
}

/// Text peek for the EXPLAIN ANALYZE prefix, tolerant of leading
/// whitespace and `(* ... *)` comments. Tracing must be armed BEFORE the
/// statement is parsed (the parse phase is part of the report), and the
/// cache-text lookup happens before parsing too — so the decision has to
/// come from the raw text.
bool IsExplainAnalyze(const std::string& text) {
  size_t i = 0;
  const size_t n = text.size();
  for (;;) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i + 1 < n && text[i] == '(' && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == ')')) ++i;
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    break;
  }
  static constexpr char kWord[] = "EXPLAIN";
  constexpr size_t kLen = sizeof(kWord) - 1;
  if (i + kLen > n) return false;
  for (size_t k = 0; k < kLen; ++k) {
    if (std::toupper(static_cast<unsigned char>(text[i + k])) != kWord[k]) {
      return false;
    }
  }
  // Must end the word: "EXPLAINER" is an identifier, not the keyword.
  return i + kLen == n ||
         !std::isalnum(static_cast<unsigned char>(text[i + kLen]));
}

std::string SummarizeResult(const ExecResult& r) {
  switch (r.kind) {
    case ExecResult::Kind::kMolecules:
      return std::to_string(r.molecules.molecules.size()) + " molecule(s)";
    case ExecResult::Kind::kTid:
      return "inserted " + r.tid.ToString();
    case ExecResult::Kind::kCount:
      return std::to_string(r.count) + " atom(s) affected";
    case ExecResult::Kind::kNone:
    case ExecResult::Kind::kText:
      return "ok";
  }
  return "ok";
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(mql::DataSystem* data, TransactionManager* txns)
    : data_(data),
      txns_(txns),
      cursor_epoch_(std::make_shared<std::atomic<bool>>(false)) {}

Session::~Session() {
  // Roll back whatever the client left open — a vanished session must not
  // leave its uncommitted work (or its locks) behind. A read-only pin left
  // open would hold the version-store watermark down forever.
  while (!txn_stack_.empty()) {
    (void)AbortWork();
  }
  read_only_pin_.reset();
  InvalidateCursors();
}

void Session::InvalidateCursors() {
  cursor_epoch_->store(true);
  cursor_epoch_ = std::make_shared<std::atomic<bool>>(false);
}

Status Session::BeginWork(bool read_only) {
  if (read_only_pin_ != nullptr) {
    // A read-only transaction has no subtransactions: there is nothing to
    // write, so there is nothing to scope a partial rollback around.
    return Status::InvalidArgument(
        "BEGIN WORK inside a READ ONLY transaction - COMMIT WORK first");
  }
  if (read_only) {
    if (!txn_stack_.empty()) {
      return Status::InvalidArgument(
          "BEGIN WORK READ ONLY must start at top level, not inside an open "
          "transaction");
    }
    read_only_pin_ = data_->access().versions().OpenSnapshot(/*own_txn=*/0);
    return Status::Ok();
  }
  Transaction* txn = nullptr;
  if (txn_stack_.empty()) {
    PRIMA_ASSIGN_OR_RETURN(txn, txns_->Begin());
  } else {
    PRIMA_ASSIGN_OR_RETURN(txn, txn_stack_.back()->BeginChild());
  }
  txn_stack_.push_back(txn);
  return Status::Ok();
}

Status Session::CommitWork() {
  if (read_only_pin_ != nullptr) {
    // Nothing to make durable — releasing the pin lets the version store
    // retire everything this view was holding.
    read_only_pin_.reset();
    return Status::Ok();
  }
  if (txn_stack_.empty()) {
    return Status::InvalidArgument("COMMIT WORK outside a transaction");
  }
  Transaction* top = txn_stack_.back();
  // On failure (e.g. a log force refused on a wedged ring) the transaction
  // stays active and ON the stack: the client may retry COMMIT WORK or
  // fall back to ABORT WORK.
  PRIMA_RETURN_IF_ERROR(top->Commit());
  txn_stack_.pop_back();
  if (txn_stack_.empty()) {
    (void)txns_->Reap(top);
  }
  return Status::Ok();
}

Status Session::AbortWork() {
  if (read_only_pin_ != nullptr) {
    // Identical to COMMIT for a read-only transaction: no writes to roll
    // back, and the session's cursors stay valid — nothing they read moved.
    read_only_pin_.reset();
    return Status::Ok();
  }
  if (txn_stack_.empty()) {
    return Status::InvalidArgument("ABORT WORK outside a transaction");
  }
  Transaction* top = txn_stack_.back();
  const bool wrote = top->undo_size() > 0;  // inherited child undo included
  const Status st = top->Abort();  // state is kAborted even if a
                                   // compensation surfaced an error
  txn_stack_.pop_back();
  // The atoms open cursors would stream rolled back — unless the
  // transaction never wrote, in which case nothing they read changed.
  if (wrote) InvalidateCursors();
  if (txn_stack_.empty()) {
    (void)txns_->Reap(top);
  }
  return st;
}

Result<ExecResult> Session::ExecuteStatement(
    const Statement& stmt, const mql::QueryPlan* plan,
    const std::vector<access::Value>& params) {
  if (IsTransactionControl(stmt.kind)) {
    if (one_shot_) {
      return Status::InvalidArgument(
          "transaction statements need a session (Prima::OpenSession)");
    }
    Status st;
    if (stmt.kind == Statement::Kind::kBeginWork) {
      st = BeginWork(stmt.begin_read_only);
    } else if (stmt.kind == Statement::Kind::kCommitWork) {
      st = CommitWork();
    } else {
      st = AbortWork();
    }
    PRIMA_RETURN_IF_ERROR(st);
    return ExecResult();
  }
  if (read_only_pin_ != nullptr) {
    if (IsDml(stmt.kind)) {
      return Status::InvalidArgument(
          "DML is not allowed in a READ ONLY transaction - COMMIT WORK "
          "first");
    }
    if (IsDdl(stmt.kind)) {
      return Status::InvalidArgument(
          "DDL is not allowed in a READ ONLY transaction - COMMIT WORK "
          "first");
    }
  }
  if (!IsDml(stmt.kind)) {
    // DDL is untransacted: catalog changes are not undo-logged (ROADMAP
    // "Crash-consistent DDL").
    Ctx ctx(nullptr);
    return data_->ExecuteStatement(stmt, ctx, plan, params);
  }

  // DML: every mutation runs inside a transaction. Outside an open
  // BEGIN WORK scope the statement gets an implicit transaction of its
  // own (auto-commit; durable before the call returns). Inside one it
  // runs as a subtransaction, so a failed statement compensates only its
  // own effects and the surrounding transaction continues (paper §4's
  // selective in-transaction recovery).
  Transaction* scope = CurrentTxn();
  Transaction* stmt_txn = nullptr;
  const bool implicit = scope == nullptr;
  if (implicit) {
    PRIMA_ASSIGN_OR_RETURN(stmt_txn, txns_->Begin());
  } else {
    PRIMA_ASSIGN_OR_RETURN(stmt_txn, scope->BeginChild());
  }

  Ctx ctx(stmt_txn);
  Result<ExecResult> result = data_->ExecuteStatement(stmt, ctx, plan, params);
  Status outcome;
  if (result.ok()) {
    outcome = stmt_txn->Commit();
    if (!outcome.ok()) {
      // Commit refused (log force failed): the transaction is still
      // active, so roll the statement back rather than leave it limbo.
      const bool wrote = stmt_txn->undo_size() > 0;
      (void)stmt_txn->Abort();
      if (wrote) InvalidateCursors();
    }
  } else {
    // Statement-level atomicity. Open cursors are invalidated only when
    // the rollback actually compensated writes — a statement refused by
    // pure validation (unknown attribute, type mismatch before the first
    // mutation) must not kill unrelated in-flight streams.
    const bool wrote = stmt_txn->undo_size() > 0;
    (void)stmt_txn->Abort();
    if (wrote) InvalidateCursors();
  }
  if (implicit) {
    (void)txns_->Reap(stmt_txn);
  }
  if (!result.ok()) return result.status();
  PRIMA_RETURN_IF_ERROR(outcome);
  return result;
}

Result<MoleculeCursor> Session::OpenCursor(
    std::shared_ptr<const mql::CachedStatement> compiled,
    std::vector<access::Value> params) {
  std::shared_ptr<access::VersionStore::Pin> pin = read_only_pin_;
  std::shared_ptr<const std::atomic<bool>> token;
  if (pin == nullptr) {
    // A view per cursor, pinned now. Inside an open transaction it carries
    // the root transaction id, so the session sees its own uncommitted
    // writes — and keeps the invalidation token, since those writes vanish
    // on abort. A view with no transaction of its own skips the token on
    // purpose: an abort's compensations restore exactly the before-images
    // the version chains already serve, so the view stays coherent.
    const uint64_t own_txn =
        txn_stack_.empty() ? 0 : txn_stack_.front()->id();
    pin = data_->access().versions().OpenSnapshot(own_txn);
    if (own_txn != 0) token = cursor_epoch_;
  }
  // The cursor shares the compiled query and plan with the cache entry
  // (aliasing pointers keep the entry alive); nothing is copied.
  std::shared_ptr<const mql::Query> query(compiled, &compiled->stmt.query);
  std::shared_ptr<const mql::QueryPlan> plan;
  if (compiled->plan.has_value()) plan = {compiled, &*compiled->plan};
  PRIMA_ASSIGN_OR_RETURN(
      MoleculeCursor cursor,
      data_->executor().OpenCursor(std::move(query), std::move(plan),
                                   std::move(params), std::move(pin),
                                   std::move(token)));
  data_->stats().queries++;
  return cursor;
}

Result<std::shared_ptr<const mql::CachedStatement>> Session::Compile(
    const std::string& mql) {
  // The version is read BEFORE parsing/planning: racing DDL can only make
  // the stamp conservatively old, so the entry reads as stale and is
  // recompiled — a plan can never outlive the catalog it was built against.
  const uint64_t schema_version = data_->access().catalog().schema_version();
  std::shared_ptr<const mql::CachedStatement> cached =
      data_->statement_cache().Lookup(mql, schema_version);
  obs::StatementTrace* trace = obs::CurrentTrace();
  if (cached != nullptr) {
    if (trace != nullptr) trace->Tally(obs::Phase::kPlan, 0);  // cache_hit
    return cached;
  }

  obs::Telemetry* tel = data_->telemetry();
  auto entry = std::make_shared<mql::CachedStatement>();
  entry->schema_version = schema_version;
  {
    const uint64_t t0 = (trace || tel) ? obs::NowNs() : 0;
    PRIMA_ASSIGN_OR_RETURN(entry->stmt, mql::ParseStatement(mql));
    const uint64_t ns = (trace || tel) ? obs::NowNs() - t0 : 0;
    if (trace != nullptr) trace->Add(obs::Phase::kParse, ns);
    if (tel != nullptr) tel->parse_us()->Record(ns / 1000);
  }
  // Plan FROM-bearing statements now. The plan holds literals and
  // parameter slots, never bound values, so a text-keyed cache may share it
  // among every session and binding.
  if (const mql::FromClause* from = PlannedFrom(entry->stmt)) {
    const uint64_t t0 = (trace || tel) ? obs::NowNs() : 0;
    PRIMA_ASSIGN_OR_RETURN(
        mql::QueryPlan plan,
        data_->executor().Prepare(*from, PlannedWhere(entry->stmt)));
    entry->plan = std::move(plan);
    const uint64_t ns = (trace || tel) ? obs::NowNs() - t0 : 0;
    if (trace != nullptr) trace->Add(obs::Phase::kPlan, ns);
    if (tel != nullptr) tel->plan_us()->Record(ns / 1000);
  }
  if (trace != nullptr) trace->Tally(obs::Phase::kPlan, 1);  // cache_miss
  // EXPLAIN ANALYZE statements are never published to the cache: the whole
  // point of the report is watching parse and plan happen, and a cache hit
  // would blank those phases.
  if (mql::StatementCache::Cacheable(entry->stmt.kind) &&
      !entry->stmt.explain_analyze) {
    data_->statement_cache().Insert(mql, entry);
  }
  return std::shared_ptr<const mql::CachedStatement>(std::move(entry));
}

template <typename Fn>
Result<ExecResult> Session::RunInstrumented(const std::string& text,
                                            bool explain, Fn&& body) {
  obs::Telemetry* tel = data_->telemetry();
  const bool traced =
      explain || (tel != nullptr && tel->ShouldTraceStatement());
  if (!traced) {
    // Knobs-off hot path: one histogram record (two clock reads) when
    // telemetry exists, nothing at all for bare embedded rigs.
    if (tel == nullptr) return body();
    const uint64_t t0 = obs::NowNs();
    Result<ExecResult> r = body();
    tel->statement_us()->Record((obs::NowNs() - t0) / 1000);
    return r;
  }

  obs::StatementTrace trace;
  Result<ExecResult> r = [&] {
    obs::TraceContext ctx(&trace);
    return body();
  }();
  trace.Finish();
  if (tel != nullptr) {
    tel->CountTraced();
    tel->RecordStatement(text, &trace, trace.total_ns() / 1000);
  }
  if (explain && r.ok()) {
    ExecResult er;
    er.kind = ExecResult::Kind::kText;
    er.text = trace.Render("EXPLAIN ANALYZE: " + SummarizeResult(*r));
    return er;
  }
  return r;
}

Result<std::shared_ptr<const mql::CachedStatement>> Session::CompileOneShot(
    const std::string& mql) {
  PRIMA_ASSIGN_OR_RETURN(std::shared_ptr<const mql::CachedStatement> compiled,
                         Compile(mql));
  if (!compiled->stmt.params.empty()) {
    return Status::InvalidArgument(
        "statement has placeholders - use Session::Prepare and bind them");
  }
  return compiled;
}

Result<ExecResult> Session::RunCompiled(
    std::shared_ptr<const mql::CachedStatement> compiled,
    std::vector<access::Value> params) {
  if (compiled->stmt.kind == Statement::Kind::kQuery) {
    // The materializing facade is exactly "open a cursor, drain it".
    PRIMA_ASSIGN_OR_RETURN(MoleculeCursor cursor,
                           OpenCursor(std::move(compiled), std::move(params)));
    ExecResult r;
    r.kind = ExecResult::Kind::kMolecules;
    PRIMA_ASSIGN_OR_RETURN(r.molecules, cursor.Drain());
    return r;
  }
  return ExecuteStatement(compiled->stmt,
                          compiled->plan.has_value() ? &*compiled->plan
                                                     : nullptr,
                          params);
}

Result<ExecResult> Session::Execute(const std::string& mql) {
  return RunInstrumented(
      mql, IsExplainAnalyze(mql), [&]() -> Result<ExecResult> {
        PRIMA_ASSIGN_OR_RETURN(
            std::shared_ptr<const mql::CachedStatement> compiled,
            CompileOneShot(mql));
        return RunCompiled(std::move(compiled), {});
      });
}

Result<MoleculeCursor> Session::Query(const std::string& mql) {
  PRIMA_ASSIGN_OR_RETURN(std::shared_ptr<const mql::CachedStatement> compiled,
                         CompileOneShot(mql));
  if (compiled->stmt.kind != Statement::Kind::kQuery) {
    return Status::InvalidArgument("statement is not a query");
  }
  if (compiled->stmt.explain_analyze) {
    // A streaming cursor drains after the statement scope its trace is
    // tied to, so it would report nothing.
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE must go through Execute, not Query");
  }
  return OpenCursor(std::move(compiled), {});
}

Result<PreparedStatement> Session::Prepare(const std::string& mql) {
  PRIMA_ASSIGN_OR_RETURN(std::shared_ptr<const mql::CachedStatement> compiled,
                         Compile(mql));
  if (compiled->stmt.explain_analyze) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE cannot be prepared - use Execute");
  }
  data_->stats().statements_prepared++;
  return PreparedStatement(this, mql, std::move(compiled));
}

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(
    Session* session, std::string text,
    std::shared_ptr<const mql::CachedStatement> compiled)
    : session_(session), text_(std::move(text)) {
  Adopt(std::move(compiled));
  bound_.resize(compiled_->stmt.params.size());
}

void PreparedStatement::Adopt(
    std::shared_ptr<const mql::CachedStatement> compiled) {
  compiled_ = std::move(compiled);
  if (compiled_->plan.has_value()) {
    plans_computed_++;
    session_->data_->stats().prepared_plans++;
  }
}

Status PreparedStatement::Bind(size_t index, access::Value value) {
  if (index >= bound_.size()) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(bound_.size()) + " placeholders)");
  }
  bound_[index] = std::move(value);
  return Status::Ok();
}

Status PreparedStatement::Bind(const std::string& name, access::Value value) {
  if (name.empty()) {
    // Positional (`?`) slots have empty names; matching them here would
    // silently bind the wrong slot for a caller's empty name variable.
    return Status::InvalidArgument("bind by name needs a non-empty name");
  }
  const std::vector<mql::ParamDecl>& params = compiled_->stmt.params;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) return Bind(i, std::move(value));
  }
  return Status::InvalidArgument("no placeholder named :" + name);
}

void PreparedStatement::ClearBindings() {
  bound_.assign(bound_.size(), std::nullopt);
}

Result<std::vector<access::Value>> PreparedStatement::Ready() {
  std::vector<access::Value> values;
  values.reserve(bound_.size());
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i].has_value()) {
      const std::string& name = compiled_->stmt.params[i].name;
      return Status::InvalidArgument(
          "parameter " + std::to_string(i) +
          (name.empty() ? "" : " (:" + name + ")") + " is unbound");
    }
    values.push_back(*bound_[i]);
  }
  // DDL since the compile may have dropped or replaced a structure the
  // plan (or the resolved AST) names: recompile rather than chase stale
  // ids. A failed recompile keeps the old compile, so the next execution
  // tries again.
  if (compiled_->schema_version !=
      session_->data_->access().catalog().schema_version()) {
    PRIMA_ASSIGN_OR_RETURN(std::shared_ptr<const mql::CachedStatement> fresh,
                           session_->Compile(text_));
    Adopt(std::move(fresh));
  }
  return values;
}

Result<ExecResult> PreparedStatement::Execute() {
  // Runs inside the telemetry wrapper, so a recompile forced by DDL shows
  // up in the statement's latency (and its trace, when slow-logged).
  return session_->RunInstrumented(
      text_, /*explain=*/false, [&]() -> Result<ExecResult> {
        PRIMA_ASSIGN_OR_RETURN(std::vector<access::Value> params, Ready());
        executions_++;
        session_->data_->stats().prepared_executions++;
        return session_->RunCompiled(compiled_, std::move(params));
      });
}

Result<MoleculeCursor> PreparedStatement::Query() {
  if (compiled_->stmt.kind != Statement::Kind::kQuery) {
    return Status::InvalidArgument("prepared statement is not a query");
  }
  PRIMA_ASSIGN_OR_RETURN(std::vector<access::Value> params, Ready());
  executions_++;
  session_->data_->stats().prepared_executions++;
  return session_->OpenCursor(compiled_, std::move(params));
}

}  // namespace prima::core
