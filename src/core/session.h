#ifndef PRIMA_CORE_SESSION_H_
#define PRIMA_CORE_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/transaction.h"
#include "mql/data_system.h"

namespace prima::core {

class Session;

/// A compiled MQL statement bound per execution (paper §3.1 separates
/// *preparation* — query validation & modification, simplification, and
/// access-path selection — from *execution*). Session::Prepare compiles
/// through the same path as one-shot statements: parse, plan, stamp the
/// schema version, publish to the shared statement cache. The compiled
/// statement is immutable and value-free — its plan holds parameter slots,
/// not values — so sessions preparing the same text share one compile, and
/// `?` / `:name` bindings travel beside it, read only when a cursor opens
/// or a DML statement runs. Re-binding never re-plans; the statement
/// recompiles only when DDL has moved the schema since its compile.
///
/// A prepared statement belongs to its session (same threading contract)
/// and must not outlive it.
class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;

  size_t param_count() const { return bound_.size(); }
  /// The name of placeholder `index` (< param_count()): `:name` slots
  /// report their name, `?` slots the empty string.
  const std::string& param_name(size_t index) const {
    return compiled_->stmt.params[index].name;
  }

  /// Bind a value to a placeholder by 0-based position (both `?` and
  /// `:name` slots count, in placeholder order).
  util::Status Bind(size_t index, access::Value value);
  /// Bind a named placeholder (`:name`).
  util::Status Bind(const std::string& name, access::Value value);
  /// Forget all bindings (each slot must be re-bound before execution).
  void ClearBindings();

  /// Execute under the session's transaction scope. SELECTs materialize
  /// their molecule set; DML auto-commits when the session has no open
  /// transaction, exactly like Session::Execute.
  util::Result<mql::ExecResult> Execute();

  /// Open a streaming cursor (SELECT statements only). The cursor copies
  /// the bound values, so the statement may be re-bound and re-executed
  /// while the cursor drains. Its view is pinned at this open, not at
  /// Prepare.
  util::Result<mql::MoleculeCursor> Query();

  /// Executions so far (both Execute and Query).
  uint64_t executions() const { return executions_; }
  /// The original MQL text (slow-query log attribution).
  const std::string& text() const { return text_; }
  /// Plans this statement has taken (compiled, or found in the shared
  /// statement cache): 1 until DDL moves the schema, however often the
  /// bindings change. The acceptance gauge for "prepared once, executed N
  /// times".
  uint64_t plans_computed() const { return plans_computed_; }

 private:
  friend class Session;
  PreparedStatement(Session* session, std::string text,
                    std::shared_ptr<const mql::CachedStatement> compiled);

  /// Take a compiled statement, counting its plan (statements without a
  /// FROM clause have none).
  void Adopt(std::shared_ptr<const mql::CachedStatement> compiled);
  /// The bound values in slot order, after recompiling if DDL moved the
  /// schema since the last compile. The error names the first unbound slot.
  util::Result<std::vector<access::Value>> Ready();

  Session* session_;
  std::string text_;
  std::shared_ptr<const mql::CachedStatement> compiled_;
  std::vector<std::optional<access::Value>> bound_;
  uint64_t executions_ = 0;
  uint64_t plans_computed_ = 0;
};

/// A client session (the primary API): every statement executes under the
/// session's transaction context. `BEGIN WORK` / `COMMIT WORK` /
/// `ABORT WORK` scope explicit (nested) transactions; DML outside an open
/// transaction auto-commits inside an implicit one, so a crash mid-DELETE
/// can never leave half a statement behind — restart recovery rolls the
/// implicit transaction back atomically. Inside an explicit transaction
/// each DML statement runs as a subtransaction: a failed statement is
/// compensated selectively (paper §4) and the surrounding transaction
/// continues.
///
/// Queries stream: Query() returns a MoleculeCursor assembling one
/// molecule per Next(). Every statement and cursor reads one committed
/// view, pinned when it opens, without taking a lock: it never sees a
/// concurrent transaction's uncommitted or half-committed writes, and
/// writers never wait for it. Inside BEGIN WORK the view also sees the
/// transaction's own writes; ABORT WORK (and session destruction)
/// invalidates the cursors that could see them. The statements of a
/// BEGIN WORK READ ONLY transaction share one view, pinned at BEGIN, so
/// they read repeatably. Writers lock (nested two-phase locking on atoms),
/// but a read-modify-write still reads its value from a committed view, not
/// under its lock: until writers validate what they read, lock the row
/// first (a MODIFY that touches it) and read after.
///
/// A session is a single-threaded context, like a connection: open one
/// session per client thread (sessions of one database are isolated
/// through the shared lock table / nested-transaction machinery). The
/// session must not outlive its Prima.
class Session {
 public:
  /// Clients open sessions with Prima::OpenSession(). The kernel's own
  /// statement callers — the one-shot Prima::Execute / Query facade and the
  /// object buffer's checkout — and bare embedded rigs (tests) construct
  /// one directly over a DataSystem + TransactionManager pair.
  Session(mql::DataSystem* data, TransactionManager* txns);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and execute one MQL statement (DDL, DML, query, or
  /// BEGIN/COMMIT/ABORT WORK). SELECT results are materialized by
  /// draining a streaming cursor.
  util::Result<mql::ExecResult> Execute(const std::string& mql);

  /// Execute a SELECT and return a streaming cursor over its molecules.
  util::Result<mql::MoleculeCursor> Query(const std::string& mql);

  /// Compile a statement for repeated execution with placeholders, through
  /// the same compile path (and shared cache) as one-shot statements.
  util::Result<PreparedStatement> Prepare(const std::string& mql);

  /// Depth of explicit BEGIN WORK nesting (0 = auto-commit mode).
  size_t transaction_depth() const { return txn_stack_.size(); }
  bool in_transaction() const { return !txn_stack_.empty(); }
  /// Inside BEGIN WORK READ ONLY (a pinned snapshot, no Transaction)?
  bool in_read_only_transaction() const { return read_only_pin_ != nullptr; }

 private:
  friend class PreparedStatement;
  friend class Prima;

  /// mql::ExecContext bridge: routes DML through `txn`.
  class Ctx : public mql::ExecContext {
   public:
    explicit Ctx(Transaction* txn) : txn_(txn) {}
    uint64_t own_txn() const override {
      return txn_ == nullptr ? 0 : txn_->root_id();
    }
    util::Result<access::Tid> InsertAtom(
        access::AtomTypeId type,
        std::vector<access::AttrValue> values) override {
      return txn_->InsertAtom(type, std::move(values));
    }
    util::Status ModifyAtom(const access::Tid& tid,
                            std::vector<access::AttrValue> changes) override {
      return txn_->ModifyAtom(tid, std::move(changes));
    }
    util::Status DeleteAtom(const access::Tid& tid) override {
      return txn_->DeleteAtom(tid);
    }
    util::Status Connect(const access::Tid& from, uint16_t attr,
                         const access::Tid& to) override {
      return txn_->Connect(from, attr, to);
    }
    util::Status Disconnect(const access::Tid& from, uint16_t attr,
                            const access::Tid& to) override {
      return txn_->Disconnect(from, attr, to);
    }

   private:
    Transaction* txn_;  ///< null only for DDL, which never reaches DML
  };

  /// The one compile path, shared by one-shot statements and Prepare:
  /// consult the shared statement cache, else parse `mql`, plan
  /// FROM-bearing statements (placeholders stay slots in the plan), stamp
  /// the schema version, and publish cacheable kinds back to the cache.
  /// DDL compiles but is never cached.
  util::Result<std::shared_ptr<const mql::CachedStatement>> Compile(
      const std::string& mql);

  /// Run a compiled statement under the session's transaction scope with
  /// the bound values `params` (empty for one-shot statements): a query
  /// opens a cursor and drains it, anything else goes to ExecuteStatement.
  /// The compiled statement is only read — shared-cache entries are
  /// executed concurrently by many sessions.
  util::Result<mql::ExecResult> RunCompiled(
      std::shared_ptr<const mql::CachedStatement> compiled,
      std::vector<access::Value> params);
  util::Result<mql::ExecResult> ExecuteStatement(
      const mql::Statement& stmt, const mql::QueryPlan* plan,
      const std::vector<access::Value>& params);
  /// Open a cursor over a compiled query; the cursor shares `compiled`.
  /// It reads under the READ ONLY transaction's pin, or a view pinned now
  /// that also sees the open transaction's own writes.
  util::Result<mql::MoleculeCursor> OpenCursor(
      std::shared_ptr<const mql::CachedStatement> compiled,
      std::vector<access::Value> params);

  /// Compile for a one-shot Execute/Query: statements with placeholders
  /// compile (and are cached for Prepare) but are refused here — there are
  /// no bound values to run them with.
  util::Result<std::shared_ptr<const mql::CachedStatement>> CompileOneShot(
      const std::string& mql);

  /// Telemetry wrapper shared by Execute and PreparedStatement::Execute:
  /// decides tracing (EXPLAIN ANALYZE forces it, the slow-query knob arms
  /// it), times the statement into the latency histogram, feeds the
  /// slow-query log, and — for EXPLAIN ANALYZE — replaces the result with
  /// the rendered phase table. A traced statement's TraceContext makes its
  /// trace obs::CurrentTrace() for exactly the body's run, so every layer
  /// and every cursor drained inside the statement records into it, and
  /// nothing can write to it after.
  template <typename Fn>
  util::Result<mql::ExecResult> RunInstrumented(const std::string& text,
                                                bool explain, Fn&& body);

  util::Status BeginWork(bool read_only = false);
  util::Status CommitWork();
  util::Status AbortWork();

  Transaction* CurrentTxn() const {
    return txn_stack_.empty() ? nullptr : txn_stack_.back();
  }
  /// Mark every open cursor of this session invalid (transaction abort
  /// rolled back state they may stream) and start a fresh epoch.
  void InvalidateCursors();

  mql::DataSystem* data_;
  TransactionManager* txns_;
  /// Set by the one-shot Prima facade, whose session lives for one
  /// statement: a transaction begun there would end with the call, so
  /// transaction control is refused.
  bool one_shot_ = false;
  /// Explicit BEGIN WORK nesting: front = top-level, back = innermost.
  std::vector<Transaction*> txn_stack_;
  /// The pinned snapshot of an open BEGIN WORK READ ONLY transaction.
  /// While set, every query shares this one view (degree-3 repeatable
  /// reads) and DML/DDL are refused; COMMIT/ABORT WORK releases it.
  std::shared_ptr<access::VersionStore::Pin> read_only_pin_;
  /// Epoch token handed to cursors; swapped (old one flipped true) on
  /// every abort. The cursors read it from their own threads, so it is
  /// atomic; the pointer itself belongs to the session's thread.
  std::shared_ptr<std::atomic<bool>> cursor_epoch_;
};

}  // namespace prima::core

#endif  // PRIMA_CORE_SESSION_H_
