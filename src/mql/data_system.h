#ifndef PRIMA_MQL_DATA_SYSTEM_H_
#define PRIMA_MQL_DATA_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "access/access_system.h"
#include "mql/executor.h"
#include "mql/molecule.h"
#include "mql/statement_cache.h"
#include "obs/telemetry.h"

namespace prima::mql {

/// Result of executing one MQL statement. Move-only: a molecule set can be
/// megabytes of assembled atoms, and the facade returns it through several
/// layers — an accidental copy on that path would double every query's
/// cost, so the type forbids it outright.
struct ExecResult {
  enum class Kind {
    kMolecules,  ///< SELECT
    kTid,        ///< INSERT
    kCount,      ///< DELETE / MODIFY (# atoms affected)
    kNone,       ///< DDL / CONNECT / transaction control
    kText,       ///< EXPLAIN ANALYZE (rendered phase table)
  };
  ExecResult() = default;
  ExecResult(ExecResult&&) = default;
  ExecResult& operator=(ExecResult&&) = default;
  ExecResult(const ExecResult&) = delete;
  ExecResult& operator=(const ExecResult&) = delete;

  Kind kind = Kind::kNone;
  MoleculeSet molecules;
  access::Tid tid;
  uint64_t count = 0;
  std::string text;
};

/// The transaction context a statement executes under. The data system
/// routes every DML mutation through it, so locking, undo logging, and WAL
/// transaction tagging follow the session's transaction. Implemented by
/// core::Session (the core layer knows the nested transaction machinery;
/// this interface keeps the mql layer free of that dependency), which also
/// handles BEGIN/COMMIT/ABORT WORK itself and drains its own query cursors.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// The top-level transaction the statement runs under (0 = none): DML
  /// qualifies its targets under a view that also sees that transaction's
  /// own uncommitted writes.
  virtual uint64_t own_txn() const = 0;

  // DML, routed through the session's open (or implicit) transaction.
  virtual util::Result<access::Tid> InsertAtom(
      access::AtomTypeId type, std::vector<access::AttrValue> values) = 0;
  virtual util::Status ModifyAtom(const access::Tid& tid,
                                  std::vector<access::AttrValue> changes) = 0;
  virtual util::Status DeleteAtom(const access::Tid& tid) = 0;
  virtual util::Status Connect(const access::Tid& from, uint16_t attr,
                               const access::Tid& to) = 0;
  virtual util::Status Disconnect(const access::Tid& from, uint16_t attr,
                                  const access::Tid& to) = 0;
};

/// The data system (paper §3.1, top DBMS layer of Fig. 3.1): translates
/// MOL/MQL statements into access-system calls — validation & modification,
/// simplification, preparation, and molecule management — and executes them.
class DataSystem {
 public:
  explicit DataSystem(access::AccessSystem* access)
      : access_(access), executor_(access) {}

  /// Execute an already-parsed DDL or DML statement under `ctx`. The
  /// statement is never rewritten: every placeholder site reads its value
  /// from `params` (indexed by parameter slot, empty for statements without
  /// placeholders) — WHERE operands when the qualifying cursor opens,
  /// INSERT values and MODIFY SETs when the statement runs. `plan`
  /// optionally supplies a compiled plan for DELETE / MODIFY; the
  /// qualifying cursor opens on it instead of planning again (§3.1
  /// separates preparation from execution). Queries and transaction
  /// control belong to the session and are refused here.
  util::Result<ExecResult> ExecuteStatement(
      const Statement& stmt, ExecContext& ctx,
      const QueryPlan* plan = nullptr,
      const std::vector<access::Value>& params = {});

  /// Render a result for interactive display.
  std::string Format(const ExecResult& result) const;

  Executor& executor() { return executor_; }
  access::AccessSystem& access() { return *access_; }
  DataStats& stats() { return executor_.stats(); }
  /// Shared, schema-versioned compile cache keyed by MQL text: sessions
  /// compile every one-shot Execute/Query and every Prepare through it, so
  /// repeated statement texts — every raw network Execute included — get
  /// the parse-once-plan-once fast path without calling Prepare.
  StatementCache& statement_cache() { return statement_cache_; }

  /// Kernel telemetry hub (histograms, slow-query log and its threshold).
  /// Attached by Prima::Open; null for bare embedded rigs — sessions then
  /// trace only EXPLAIN ANALYZE, whose phase table is the statement's own.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  obs::Telemetry* telemetry() const { return telemetry_; }

 private:
  /// The whole molecules a DELETE / MODIFY acts on, drained from a serial
  /// cursor before the statement mutates anything. `own_txn` is the
  /// statement's top-level transaction (0 = none).
  util::Result<MoleculeSet> QualifyTargets(
      const FromClause& from, const Expr* where, const QueryPlan* plan,
      const std::vector<access::Value>& params, uint64_t own_txn);
  util::Result<ExecResult> RunCreateAtomType(const CreateAtomTypeStmt& stmt);
  util::Result<ExecResult> RunDefineMolecule(const DefineMoleculeTypeStmt& stmt);
  util::Result<ExecResult> RunDrop(const DropStmt& stmt);
  util::Result<ExecResult> RunInsert(const InsertStmt& stmt, ExecContext& ctx,
                                     const std::vector<access::Value>& params);
  util::Result<ExecResult> RunDelete(const DeleteStmt& stmt, ExecContext& ctx,
                                     const QueryPlan* plan,
                                     const std::vector<access::Value>& params);
  util::Result<ExecResult> RunModify(const ModifyStmt& stmt, ExecContext& ctx,
                                     const QueryPlan* plan,
                                     const std::vector<access::Value>& params);
  util::Result<ExecResult> RunConnect(const ConnectStmt& stmt,
                                      ExecContext& ctx);

  access::AccessSystem* access_;
  Executor executor_;
  StatementCache statement_cache_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace prima::mql

#endif  // PRIMA_MQL_DATA_SYSTEM_H_
