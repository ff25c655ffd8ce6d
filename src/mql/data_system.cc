#include "mql/data_system.h"

#include <memory>
#include <set>

#include "mql/parser.h"

namespace prima::mql {

using access::AtomTypeDef;
using access::AttrValue;
using access::Tid;
using access::Value;
using util::Result;
using util::Status;

namespace {

/// A non-owning shared_ptr, for a cursor that drains before `p` goes away.
template <typename T>
std::shared_ptr<const T> Borrow(const T* p) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), p);
}

}  // namespace

Result<ExecResult> DataSystem::ExecuteStatement(
    const Statement& stmt, ExecContext& ctx, const QueryPlan* plan,
    const std::vector<Value>& params) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateAtomType:
      return RunCreateAtomType(stmt.create_atom_type);
    case Statement::Kind::kDefineMoleculeType:
      return RunDefineMolecule(stmt.define_molecule_type);
    case Statement::Kind::kDrop:
      return RunDrop(stmt.drop);
    case Statement::Kind::kInsert:
      return RunInsert(stmt.insert, ctx, params);
    case Statement::Kind::kDelete:
      return RunDelete(stmt.del, ctx, plan, params);
    case Statement::Kind::kModify:
      return RunModify(stmt.modify, ctx, plan, params);
    case Statement::Kind::kConnect:
      return RunConnect(stmt.connect, ctx);
    case Statement::Kind::kQuery:
    case Statement::Kind::kBeginWork:
    case Statement::Kind::kCommitWork:
    case Statement::Kind::kAbortWork:
      break;
  }
  return Status::InvalidArgument(
      "queries and transaction statements run through a session");
}

std::string DataSystem::Format(const ExecResult& result) const {
  switch (result.kind) {
    case ExecResult::Kind::kMolecules:
      return result.molecules.ToString(access_->catalog());
    case ExecResult::Kind::kTid:
      return "inserted " + result.tid.ToString() + "\n";
    case ExecResult::Kind::kCount:
      return std::to_string(result.count) + " atom(s) affected\n";
    case ExecResult::Kind::kNone:
      return "ok\n";
    case ExecResult::Kind::kText:
      return result.text;
  }
  return "";
}

Result<MoleculeSet> DataSystem::QualifyTargets(
    const FromClause& from, const Expr* where, const QueryPlan* plan,
    const std::vector<Value>& params, uint64_t own_txn) {
  auto q = std::make_shared<Query>();
  q->select.emplace_back().kind = ProjItem::Kind::kAll;
  q->from = from;
  q->where = CloneExpr(where);
  // A serial cursor on this thread, drained whole before the caller's first
  // mutation, so no update can move an atom into the part of the scan still
  // ahead. Its view sees the statement's own transaction's writes.
  PRIMA_ASSIGN_OR_RETURN(
      MoleculeCursor cursor,
      executor_.OpenCursor(std::move(q), Borrow(plan), params,
                           access_->versions().OpenSnapshot(own_txn)));
  return cursor.Drain();
}

Result<ExecResult> DataSystem::RunCreateAtomType(
    const CreateAtomTypeStmt& stmt) {
  PRIMA_ASSIGN_OR_RETURN(
      const access::AtomTypeId ignored,
      access_->CreateAtomType(stmt.name, stmt.attrs, stmt.keys));
  (void)ignored;
  ExecResult r;
  r.kind = ExecResult::Kind::kNone;
  return r;
}

Result<ExecResult> DataSystem::RunDefineMolecule(
    const DefineMoleculeTypeStmt& stmt) {
  // Validate by resolving against the current schema.
  PRIMA_ASSIGN_OR_RETURN(FromClause from, ParseFromText(stmt.from_text));
  SemanticAnalyzer analyzer(&access_->catalog());
  PRIMA_ASSIGN_OR_RETURN(ResolvedStructure ignored, analyzer.Resolve(from));
  (void)ignored;
  access::MoleculeTypeDef def;
  def.name = stmt.name;
  def.from_text = stmt.from_text;
  def.recursive = stmt.recursive;
  PRIMA_RETURN_IF_ERROR(access_->catalog().DefineMoleculeType(std::move(def)));
  ExecResult r;
  r.kind = ExecResult::Kind::kNone;
  return r;
}

Result<ExecResult> DataSystem::RunDrop(const DropStmt& stmt) {
  if (stmt.what == DropStmt::What::kAtomType) {
    PRIMA_RETURN_IF_ERROR(access_->DropAtomType(stmt.name));
  } else {
    PRIMA_RETURN_IF_ERROR(access_->catalog().DropMoleculeType(stmt.name));
  }
  ExecResult r;
  r.kind = ExecResult::Kind::kNone;
  return r;
}

Result<ExecResult> DataSystem::RunInsert(const InsertStmt& stmt,
                                         ExecContext& ctx,
                                         const std::vector<Value>& params) {
  const AtomTypeDef* def = access_->catalog().FindAtomType(stmt.type_name);
  if (def == nullptr) {
    return Status::NotFound("atom type " + stmt.type_name);
  }
  std::vector<AttrValue> values;
  for (const AttrAssign& assign : stmt.values) {
    const access::AttributeDef* attr = def->FindAttr(assign.attr);
    if (attr == nullptr) {
      return Status::InvalidArgument("unknown attribute " + stmt.type_name +
                                     "." + assign.attr);
    }
    PRIMA_ASSIGN_OR_RETURN(const Value* v,
                           SiteValue(assign.param, assign.value, params));
    values.push_back(AttrValue{attr->id, *v});
  }
  ExecResult r;
  r.kind = ExecResult::Kind::kTid;
  PRIMA_ASSIGN_OR_RETURN(r.tid, ctx.InsertAtom(def->id, std::move(values)));
  return r;
}

Result<ExecResult> DataSystem::RunDelete(const DeleteStmt& stmt,
                                         ExecContext& ctx,
                                         const QueryPlan* plan,
                                         const std::vector<Value>& params) {
  PRIMA_ASSIGN_OR_RETURN(
      MoleculeSet set,
      QualifyTargets(stmt.from, stmt.where.get(), plan, params,
                     ctx.own_txn()));
  // Components to delete: named ones, or every component (whole molecules).
  std::set<std::string> which(stmt.components.begin(), stmt.components.end());
  std::set<uint64_t> victims;
  for (const Molecule& m : set.molecules) {
    for (const MoleculeGroup& g : m.groups) {
      if (!which.empty() && which.count(g.component) == 0) continue;
      for (const access::Atom& a : g.atoms) victims.insert(a.tid.Pack());
    }
  }
  ExecResult r;
  r.kind = ExecResult::Kind::kCount;
  for (uint64_t packed : victims) {
    const Tid tid = Tid::Unpack(packed);
    const Status st = ctx.DeleteAtom(tid);
    if (!st.ok() && !st.IsNotFound()) return st;
    if (st.ok()) ++r.count;
  }
  return r;
}

Result<ExecResult> DataSystem::RunModify(const ModifyStmt& stmt,
                                         ExecContext& ctx,
                                         const QueryPlan* plan,
                                         const std::vector<Value>& params) {
  PRIMA_ASSIGN_OR_RETURN(
      MoleculeSet set,
      QualifyTargets(stmt.from, stmt.where.get(), plan, params,
                     ctx.own_txn()));
  const AtomTypeDef* target_def = nullptr;
  ExecResult r;
  r.kind = ExecResult::Kind::kCount;
  std::set<uint64_t> modified;
  for (const Molecule& m : set.molecules) {
    const MoleculeGroup* g = m.FindGroup(stmt.target);
    if (g == nullptr) {
      return Status::InvalidArgument("MODIFY target " + stmt.target +
                                     " is not a component");
    }
    if (target_def == nullptr) {
      target_def = access_->catalog().GetAtomType(g->type);
    }
    std::vector<AttrValue> changes;
    for (const AttrAssign& assign : stmt.sets) {
      const access::AttributeDef* attr = target_def->FindAttr(assign.attr);
      if (attr == nullptr) {
        return Status::InvalidArgument("unknown attribute " + assign.attr);
      }
      PRIMA_ASSIGN_OR_RETURN(const Value* v,
                             SiteValue(assign.param, assign.value, params));
      changes.push_back(AttrValue{attr->id, *v});
    }
    for (const access::Atom& a : g->atoms) {
      if (!modified.insert(a.tid.Pack()).second) continue;
      const Status st = ctx.ModifyAtom(a.tid, changes);
      // A target a writer deleted after the qualifying view was pinned is
      // gone, as in RunDelete.
      if (st.IsNotFound()) continue;
      PRIMA_RETURN_IF_ERROR(st);
      ++r.count;
    }
  }
  return r;
}

Result<ExecResult> DataSystem::RunConnect(const ConnectStmt& stmt,
                                          ExecContext& ctx) {
  const AtomTypeDef* def = access_->catalog().GetAtomType(stmt.from.type);
  if (def == nullptr) {
    return Status::NotFound("atom type of " + stmt.from.ToString());
  }
  const access::AttributeDef* attr = def->FindAttr(stmt.attr);
  if (attr == nullptr) {
    return Status::InvalidArgument("unknown attribute " + def->name + "." +
                                   stmt.attr);
  }
  PRIMA_RETURN_IF_ERROR(stmt.connect
                            ? ctx.Connect(stmt.from, attr->id, stmt.to)
                            : ctx.Disconnect(stmt.from, attr->id, stmt.to));
  ExecResult r;
  r.kind = ExecResult::Kind::kNone;
  return r;
}

}  // namespace prima::mql
