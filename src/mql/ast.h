#ifndef PRIMA_MQL_AST_H_
#define PRIMA_MQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "access/catalog.h"
#include "access/search_arg.h"
#include "access/value.h"

namespace prima::mql {

/// Attribute path in a condition or projection:
///   [component .] attr [. record-field ...]
/// plus the seed-qualification form `molecule(level).attr` of Table 2.1b.
struct AttrPath {
  std::string component;            ///< component/atom-type name; may be empty
  int level = -1;                   ///< >= 0 for molecule(level) references
  std::vector<std::string> attrs;   ///< attr name, then RECORD field names

  std::string ToString() const {
    std::string s = component;
    if (level >= 0) s += "(" + std::to_string(level) + ")";
    for (const auto& a : attrs) {
      if (!s.empty()) s += ".";
      s += a;
    }
    return s;
  }
};

// --- statement parameters ----------------------------------------------------

/// One declared placeholder of a statement, in placeholder order. Positional
/// placeholders (`?`) each get a fresh slot; named placeholders (`:name`)
/// share one slot per distinct name. The AST stores the slot index at every
/// site the placeholder occurs; execution reads the bound value of that slot
/// there, so a parsed statement is never rewritten.
struct ParamDecl {
  std::string name;  ///< empty for positional (`?`) parameters
};

// --- conditions --------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// WHERE-clause expression tree.
struct Expr {
  enum class Kind {
    kCompare,     ///< path op literal  (or path op path)
    kAnd,
    kOr,
    kNot,
    kQuantifier,  ///< EXISTS / EXISTS_AT_LEAST(n) / FOR_ALL  comp : cond
  };

  Kind kind = Kind::kCompare;

  // kCompare
  AttrPath lhs;
  access::CompareOp op = access::CompareOp::kEq;
  access::Value literal;              ///< rhs literal (EMPTY => kIsEmpty op)
  int param = -1;                     ///< >=0: literal is parameter [param]
  std::optional<AttrPath> rhs_path;   ///< set for path-path comparison

  // kAnd / kOr / kNot
  std::vector<ExprPtr> children;

  // kQuantifier
  enum class Quant { kExists, kExistsAtLeast, kForAll };
  Quant quant = Quant::kExists;
  uint32_t quant_count = 1;
  std::string quant_component;
  ExprPtr quant_body;
};

// --- FROM clause -------------------------------------------------------------

/// One component in the FROM-clause molecule structure. `via_attr` is the
/// optional disambiguating reference attribute written `type.attr`.
struct StructureNode {
  std::string name;       ///< atom type or named molecule type
  std::string via_attr;   ///< association attribute toward the *next* node
  std::vector<std::vector<StructureNode>> branches;  ///< parenthesized fan-out
};

/// A FROM clause: a chain of components (each possibly branching), plus the
/// optional RECURSIVE marker.
struct FromClause {
  std::vector<StructureNode> chain;
  bool recursive = false;
};

// --- SELECT clause -----------------------------------------------------------

struct Query;

/// One projection item.
struct ProjItem {
  enum class Kind {
    kAll,        ///< SELECT ALL
    kComponent,  ///< whole component by name
    kAttr,       ///< single attribute (path)
    kQualified,  ///< name := SELECT attrs FROM name WHERE cond
  };
  Kind kind = Kind::kComponent;
  AttrPath path;                     // kAttr
  std::string component;             // kComponent / kQualified
  std::vector<std::string> attrs;    // kQualified: projected attrs (empty=ALL)
  ExprPtr qualification;             // kQualified
};

struct Query {
  std::vector<ProjItem> select;
  FromClause from;
  ExprPtr where;  ///< optional
};

// --- DDL ---------------------------------------------------------------------

struct CreateAtomTypeStmt {
  std::string name;
  std::vector<access::AttributeDef> attrs;
  std::vector<std::string> keys;
};

struct DefineMoleculeTypeStmt {
  std::string name;
  std::string from_text;  ///< verbatim FROM clause (re-parsed on use)
  bool recursive = false;
};

struct DropStmt {
  enum class What { kAtomType, kMoleculeType };
  What what = What::kAtomType;
  std::string name;
};

// --- DML ---------------------------------------------------------------------

/// One `attr = literal-or-placeholder` assignment of INSERT / MODIFY.
struct AttrAssign {
  std::string attr;
  access::Value value;
  int param = -1;  ///< >=0: value is parameter [param]
};

struct InsertStmt {
  std::string type_name;
  std::vector<AttrAssign> values;
};

struct DeleteStmt {
  /// Components to remove; empty = ALL (the whole molecule).
  std::vector<std::string> components;
  FromClause from;
  ExprPtr where;
};

struct ModifyStmt {
  std::string target;  ///< component whose atoms are modified
  std::vector<AttrAssign> sets;
  FromClause from;     ///< optional; defaults to the bare target type
  ExprPtr where;
};

struct ConnectStmt {
  bool connect = true;
  access::Tid from;
  std::string attr;
  access::Tid to;
};

/// Any parsed MQL statement.
struct Statement {
  enum class Kind {
    kQuery,
    kCreateAtomType,
    kDefineMoleculeType,
    kDrop,
    kInsert,
    kDelete,
    kModify,
    kConnect,
    kBeginWork,   ///< BEGIN WORK  — open a (nested) user transaction
    kCommitWork,  ///< COMMIT WORK — commit the innermost open transaction
    kAbortWork,   ///< ABORT WORK  — roll the innermost open transaction back
  };
  Kind kind = Kind::kQuery;
  /// `BEGIN WORK READ ONLY`: the transaction is a pinned snapshot — every
  /// query in it reads the same consistent view, DML/DDL are refused.
  bool begin_read_only = false;
  /// `EXPLAIN ANALYZE <stmt>`: execute the statement and return its phase
  /// table (per-phase timings and tallies) as a text result instead of the
  /// statement's own result. The flag wraps the inner statement in place —
  /// `kind` and the per-kind members describe the statement being explained.
  bool explain_analyze = false;
  Query query;
  CreateAtomTypeStmt create_atom_type;
  DefineMoleculeTypeStmt define_molecule_type;
  DropStmt drop;
  InsertStmt insert;
  DeleteStmt del;
  ModifyStmt modify;
  ConnectStmt connect;
  /// Declared placeholders (`?` / `:name`), in placeholder order. Only
  /// query / DML statements may carry them; a prepared statement binds a
  /// value per slot before execution.
  std::vector<ParamDecl> params;
};

// --- deep copies -------------------------------------------------------------

/// Clone an expression tree (Expr owns children via unique_ptr, so the
/// implicit copy is deleted). Used by MODIFY/DELETE, whose target query
/// takes a copy of the statement's WHERE.
inline ExprPtr CloneExpr(const Expr* e) {
  if (e == nullptr) return nullptr;
  auto out = std::make_unique<Expr>();
  out->kind = e->kind;
  out->lhs = e->lhs;
  out->op = e->op;
  out->literal = e->literal;
  out->param = e->param;
  out->rhs_path = e->rhs_path;
  out->children.reserve(e->children.size());
  for (const ExprPtr& c : e->children) out->children.push_back(CloneExpr(c.get()));
  out->quant = e->quant;
  out->quant_count = e->quant_count;
  out->quant_component = e->quant_component;
  out->quant_body = CloneExpr(e->quant_body.get());
  return out;
}

}  // namespace prima::mql

#endif  // PRIMA_MQL_AST_H_
