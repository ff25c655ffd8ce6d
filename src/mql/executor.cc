#include "mql/executor.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>

#include "obs/trace.h"

namespace prima::mql {

using access::Atom;
using access::AtomTypeDef;
using access::AtomTypeId;
using access::CompareOp;
using access::SearchArgument;
using access::SimplePredicate;
using access::StructureDef;
using access::StructureKind;
using access::Tid;
using access::Value;
using util::Result;
using util::Status;

namespace {

/// Append the tids of type `type` that association value `v` references.
void AppendRefTargets(const Value& v, AtomTypeId type, std::vector<Tid>* out) {
  const auto take = [&](const Value& e) {
    if (e.kind() == Value::Kind::kTid && !e.AsTid().IsNull() &&
        e.AsTid().type == type) {
      out->push_back(e.AsTid());
    }
  };
  if (v.kind() == Value::Kind::kList) {
    for (const auto& e : v.elems()) take(e);
  } else {
    take(v);
  }
}

/// Number the nodes below `node` (group `index`) in pre-order from `*next`
/// on, recording each parent -> child link.
void CollectLinks(const ResolvedNode& node, size_t index, size_t* next,
                  std::vector<QueryPlan::Link>* links) {
  for (const ResolvedNode& c : node.children) {
    const size_t child = (*next)++;
    links->push_back({index, child, c.via_attr, c.type});
    CollectLinks(c, child, next, links);
  }
}

bool CompareSatisfied(CompareOp op, const Value& v, const Value& operand) {
  switch (op) {
    case CompareOp::kIsEmpty:
      return v.is_null() ||
             (v.kind() == Value::Kind::kList && v.elems().empty());
    case CompareOp::kNotEmpty:
      return v.kind() == Value::Kind::kList && !v.elems().empty();
    case CompareOp::kContains:
      return v.Contains(operand);
    default:
      break;
  }
  if (v.is_null()) return false;
  const int c = v.Compare(operand);
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Resolve attr name + record-field names into ids on an atom type.
Result<std::pair<uint16_t, std::vector<uint16_t>>> ResolveAttrOnType(
    const AtomTypeDef& def, const std::vector<std::string>& attrs) {
  const access::AttributeDef* attr = def.FindAttr(attrs[0]);
  if (attr == nullptr) {
    return Status::InvalidArgument("unknown attribute " + def.name + "." +
                                   attrs[0]);
  }
  std::vector<uint16_t> fields;
  const access::TypeDesc* t = &attr->type;
  for (size_t i = 1; i < attrs.size(); ++i) {
    if (t->kind != access::TypeKind::kRecord) {
      return Status::InvalidArgument("attribute path descends into non-RECORD");
    }
    bool found = false;
    for (size_t f = 0; f < t->fields.size(); ++f) {
      if (t->fields[f].name == attrs[i]) {
        fields.push_back(static_cast<uint16_t>(f));
        t = t->fields[f].type.get();
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown RECORD field " + attrs[i]);
    }
  }
  return std::make_pair(attr->id, std::move(fields));
}

const Value* DescendFields(const Value& v, const std::vector<uint16_t>& fields) {
  const Value* cur = &v;
  for (uint16_t f : fields) {
    if (cur->kind() != Value::Kind::kRecord || f >= cur->elems().size()) {
      return nullptr;
    }
    cur = &cur->elems()[f];
  }
  return cur;
}

/// A root predicate's operand for one open: the literal or the bound
/// value, an INTEGER coerced to REAL when the key attribute is REAL (keys
/// encode by kind, so 3 and 3.0 would reach different index entries).
Result<Value> BoundOperand(const RootPred& p,
                           const std::vector<Value>& params) {
  PRIMA_ASSIGN_OR_RETURN(const Value* v,
                         SiteValue(p.param, p.literal, params));
  if (p.real && v->kind() == Value::Kind::kInt) {
    return Value::Real(static_cast<double>(v->AsInt()));
  }
  return *v;
}

/// Narrow one scan dimension by a root comparison. Predicates apply in
/// WHERE order, so the last bound on a side wins.
void Narrow(CompareOp op, Value v, access::GridDimension* dim) {
  switch (op) {
    case CompareOp::kEq:
      dim->lo = v;
      dim->hi = std::move(v);
      dim->lo_inclusive = dim->hi_inclusive = true;
      break;
    case CompareOp::kGt:
    case CompareOp::kGe:
      dim->lo = std::move(v);
      dim->lo_inclusive = op == CompareOp::kGe;
      break;
    case CompareOp::kLt:
    case CompareOp::kLe:
      dim->hi = std::move(v);
      dim->hi_inclusive = op == CompareOp::kLe;
      break;
    default:
      break;
  }
}

}  // namespace

Result<const Value*> SiteValue(int param, const Value& literal,
                               const std::vector<Value>& params) {
  if (param < 0) return &literal;
  if (static_cast<size_t>(param) >= params.size()) {
    return Status::InvalidArgument("parameter " + std::to_string(param) +
                                   " is unbound");
  }
  return &params[param];
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

Status Executor::ExtractRootPreds(const Expr* where,
                                  const ResolvedStructure& structure,
                                  std::vector<RootPred>* out) const {
  if (where == nullptr) return Status::Ok();
  if (where->kind == Expr::Kind::kAnd) {
    for (const auto& child : where->children) {
      PRIMA_RETURN_IF_ERROR(ExtractRootPreds(child.get(), structure, out));
    }
    return Status::Ok();
  }
  if (where->kind != Expr::Kind::kCompare || where->rhs_path.has_value()) {
    return Status::Ok();
  }
  const AttrPath& path = where->lhs;
  // Root-bound: bare attr, explicit root component, or seed level 0.
  bool root_bound =
      (path.component.empty()) ||
      (path.component == structure.root.name) ||
      (path.component == structure.molecule_name && path.level <= 0);
  std::vector<std::string> attrs = path.attrs;
  const AtomTypeDef* def = access_->catalog().GetAtomType(structure.root.type);
  if (!root_bound && path.level < 0 &&
      structure.FindNode(path.component) == nullptr &&
      def->FindAttr(path.component) != nullptr) {
    // `placement.x_coord`: a RECORD attribute of the root, not a component.
    attrs.insert(attrs.begin(), path.component);
    root_bound = true;
  }
  if (!root_bound || path.level > 0) return Status::Ok();
  auto resolved = ResolveAttrOnType(*def, attrs);
  if (!resolved.ok()) return Status::Ok();  // not a root attribute; skip
  RootPred p;
  p.attr = resolved->first;
  p.fields = std::move(resolved->second);
  p.op = where->op;
  p.literal = where->literal;
  p.param = where->param;
  out->push_back(std::move(p));
  return Status::Ok();
}

Result<QueryPlan> Executor::Prepare(const FromClause& from, const Expr* where) {
  QueryPlan plan;
  PRIMA_ASSIGN_OR_RETURN(plan.structure, analyzer_.Resolve(from));
  size_t next_group = 1;
  CollectLinks(plan.structure.root, 0, &next_group, &plan.links);
  const AtomTypeDef* root_def =
      access_->catalog().GetAtomType(plan.structure.root.type);

  // The access-path choice reads only each predicate's attribute and
  // operator, never its operand: placeholders and literals plan alike.
  std::vector<RootPred> preds;
  PRIMA_RETURN_IF_ERROR(ExtractRootPreds(where, plan.structure, &preds));
  const auto is_real = [&](uint16_t attr) {
    return root_def->attrs[attr].type.kind == access::TypeKind::kReal;
  };
  // Comparisons that bound a scan dimension (see Narrow).
  const auto narrows = [](const RootPred& p) {
    return p.fields.empty() &&
           (p.op == CompareOp::kEq || p.op == CompareOp::kGt ||
            p.op == CompareOp::kGe || p.op == CompareOp::kLt ||
            p.op == CompareOp::kLe);
  };

  // 1. Key lookup: equality predicates covering KEYS_ARE.
  if (!root_def->key_attrs.empty()) {
    std::vector<RootPred> key_preds;
    for (uint16_t k : root_def->key_attrs) {
      const auto it =
          std::find_if(preds.begin(), preds.end(), [&](const RootPred& p) {
            return p.attr == k && p.fields.empty() && p.op == CompareOp::kEq;
          });
      if (it == preds.end()) break;
      key_preds.push_back(*it);
      key_preds.back().real = is_real(k);
    }
    const StructureDef* key_index =
        access_->catalog().FindStructure(root_def->name + "_key");
    if (key_preds.size() == root_def->key_attrs.size() &&
        key_index != nullptr) {
      plan.root_access = RootAccess::kKeyLookup;
      plan.access_structure_id = key_index->id;
      plan.root_preds = std::move(key_preds);
    }
  }

  // 2. Explicit access paths (B*-tree first, then grid).
  if (plan.root_access != RootAccess::kKeyLookup) {
    for (const StructureDef* s :
         access_->catalog().StructuresFor(root_def->id)) {
      if (s->kind == StructureKind::kBTreeAccessPath && !s->attrs.empty()) {
        for (const RootPred& p : preds) {
          if (p.attr != s->attrs[0] || !narrows(p)) continue;
          plan.root_preds.push_back(p);
          plan.root_preds.back().real = is_real(p.attr);
        }
        if (!plan.root_preds.empty()) {
          plan.root_access = RootAccess::kAccessPath;
          plan.access_structure_id = s->id;
          break;
        }
      } else if (s->kind == StructureKind::kGridAccessPath) {
        size_t bounded = 0;
        for (size_t d = 0; d < s->attrs.size(); ++d) {
          bool any = false;
          for (const RootPred& p : preds) {
            if (p.attr != s->attrs[d] || !narrows(p)) continue;
            plan.root_preds.push_back(p);
            plan.root_preds.back().real = is_real(p.attr);
            plan.root_preds.back().dim = d;
            any = true;
          }
          if (any) ++bounded;
        }
        if (bounded >= 2 || (bounded == 1 && s->attrs.size() == 1)) {
          plan.root_access = RootAccess::kGrid;
          plan.access_structure_id = s->id;
          plan.grid_dims = s->attrs.size();
          break;
        }
        plan.root_preds.clear();
      }
    }
  }

  // 3. Fallback: atom-type scan with the predicates as a search argument.
  if (plan.root_access == RootAccess::kAtomTypeScan) {
    plan.root_preds = std::move(preds);
  }

  // Cluster fast path: a cluster whose characteristic type is the root and
  // whose members cover every component type.
  if (!plan.structure.recursive && plan.structure.NodeCount() > 1) {
    std::vector<AtomTypeId> needed = plan.structure.AllTypes();
    needed.erase(needed.begin());
    const StructureDef* cluster =
        access_->FindCoveringCluster(plan.structure.root.type, needed);
    if (cluster != nullptr) {
      plan.use_cluster = true;
      plan.cluster_id = cluster->id;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Root candidates
// ---------------------------------------------------------------------------

Result<std::unique_ptr<RootSource>> Executor::OpenRootSource(
    const QueryPlan& plan, const std::vector<Value>& params) {
  auto source = std::make_unique<RootSource>();
  source->access_ = access_;
  source->root_type_ = plan.structure.root.type;
  switch (plan.root_access) {
    case RootAccess::kKeyLookup: {
      stats_.key_lookups++;
      source->key_lookup_ = true;
      std::string key;
      for (const RootPred& p : plan.root_preds) {
        PRIMA_ASSIGN_OR_RETURN(const Value v, BoundOperand(p, params));
        PRIMA_RETURN_IF_ERROR(v.EncodeKeyInto(&key));
      }
      access::BTree* tree = access_->BTreeFor(plan.access_structure_id);
      if (tree == nullptr) {
        // A cached plan outlived its key index (DDL dropped it between
        // plan time and execution); scans guard the same way in Open().
        return Status::NotFound("key index " +
                                std::to_string(plan.access_structure_id) +
                                " no longer exists - re-plan the query");
      }
      PRIMA_ASSIGN_OR_RETURN(auto found, tree->Get(key));
      if (found) {
        util::Slice v(*found);
        uint64_t packed = 0;
        util::GetFixed64(&v, &packed);
        source->lookup_ = Tid::Unpack(packed);
      }
      return source;
    }
    case RootAccess::kAccessPath: {
      stats_.access_path_scans++;
      access::GridDimension bound;
      for (const RootPred& p : plan.root_preds) {
        PRIMA_ASSIGN_OR_RETURN(Value v, BoundOperand(p, params));
        Narrow(p.op, std::move(v), &bound);
      }
      access::KeyRange range;
      if (bound.lo) range.start = std::vector<Value>{std::move(*bound.lo)};
      if (bound.hi) range.stop = std::vector<Value>{std::move(*bound.hi)};
      range.start_inclusive = bound.lo_inclusive;
      range.stop_inclusive = bound.hi_inclusive;
      source->path_scan_ = std::make_unique<access::BTreeAccessPathScan>(
          access_, plan.access_structure_id, std::move(range));
      PRIMA_RETURN_IF_ERROR(source->path_scan_->Open());
      return source;
    }
    case RootAccess::kGrid: {
      stats_.grid_scans++;
      std::vector<access::GridDimension> dims(plan.grid_dims);
      for (const RootPred& p : plan.root_preds) {
        PRIMA_ASSIGN_OR_RETURN(Value v, BoundOperand(p, params));
        Narrow(p.op, std::move(v), &dims[p.dim]);
      }
      source->grid_scan_ = std::make_unique<access::GridAccessPathScan>(
          access_, plan.access_structure_id, std::move(dims));
      PRIMA_RETURN_IF_ERROR(source->grid_scan_->Open());
      return source;
    }
    case RootAccess::kAtomTypeScan: {
      stats_.atom_type_scans++;
      SearchArgument sarg;
      for (const RootPred& p : plan.root_preds) {
        SimplePredicate sp;
        sp.attr = p.attr;
        sp.field_path = p.fields;
        sp.op = p.op;
        PRIMA_ASSIGN_OR_RETURN(sp.operand, BoundOperand(p, params));
        sarg.conjuncts.push_back(std::move(sp));
      }
      source->type_scan_ = std::make_unique<access::AtomTypeScan>(
          access_, plan.structure.root.type, std::move(sarg));
      PRIMA_RETURN_IF_ERROR(source->type_scan_->Open());
      return source;
    }
  }
  return source;
}

Result<std::optional<Atom>> RootSource::NextCandidate() {
  if (type_scan_ != nullptr) return type_scan_->Next();
  if (path_scan_ != nullptr) return path_scan_->Next();
  if (grid_scan_ != nullptr) return grid_scan_->Next();
  if (!lookup_) return std::optional<Atom>();
  Result<Atom> atom = access_->GetBaseAtom(*lookup_);
  lookup_.reset();
  // Deleted since the index read: the ghost pass rescues it if the view
  // still sees it.
  if (atom.status().IsNotFound()) return std::optional<Atom>();
  PRIMA_RETURN_IF_ERROR(atom.status());
  return std::optional<Atom>(std::move(atom).value());
}

Result<std::optional<Atom>> RootSource::Next() {
  access::VersionStore& versions = access_->versions();
  while (!ghosts_built_) {
    PRIMA_ASSIGN_OR_RETURN(std::optional<Atom> atom, NextCandidate());
    if (!atom) {
      // Scan drained: collect the ghosts — chained atoms the scan never
      // surfaced. Built only now, so every chain entry installed before the
      // scan passed its atom (install happens before the index write that
      // hides it) is already in place.
      ghosts_built_ = true;
      for (uint64_t packed : versions.ChainedTids(root_type_)) {
        if (packed != looked_up_ && yielded_.count(packed) == 0) {
          ghosts_.push_back(packed);
        }
      }
      break;
    }
    // Dedup: a concurrent key change can surface one atom at two index
    // positions; a fixed view owes each atom exactly one yield. A key
    // lookup surfaces at most one atom, so it only remembers it.
    if (key_lookup_) {
      looked_up_ = atom->tid.Pack();
    } else if (!yielded_.insert(atom->tid.Pack()).second) {
      continue;
    }
    access::VersionStore::Resolution res = versions.Resolve(atom->tid, *view_);
    if (res.outcome == access::VersionStore::Outcome::kInvisible) continue;
    if (res.outcome == access::VersionStore::Outcome::kBefore) {
      atom = std::move(*res.before);
    }
    return atom;
  }
  while (ghost_next_ < ghosts_.size()) {
    const Tid tid = Tid::Unpack(ghosts_[ghost_next_++]);
    access::VersionStore::Resolution res = versions.Resolve(tid, *view_);
    // kCurrent: the live record was correctly excluded by the scan on its
    // visible value; kInvisible: born after the view. Only a rescued
    // before-image is a candidate (the WHERE still qualifies it downstream).
    if (res.outcome == access::VersionStore::Outcome::kBefore) {
      return std::optional<Atom>(std::move(*res.before));
    }
  }
  return std::optional<Atom>();
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

namespace {
void InitGroups(const ResolvedNode& node, Molecule* m) {
  MoleculeGroup g;
  g.component = node.name;
  g.type = node.type;
  m->groups.push_back(std::move(g));
  for (const auto& c : node.children) InitGroups(c, m);
}
}  // namespace

Result<Molecule> Executor::AssembleBfs(const QueryPlan& plan,
                                       const Atom& root,
                                       const access::ReadView& view) {
  Molecule m;
  InitGroups(plan.structure.root, &m);
  m.groups[0].atoms.push_back(root);
  stats_.bfs_assemblies++;
  std::vector<Tid> level;
  for (const QueryPlan::Link& link : plan.links) {
    level.clear();
    for (const Atom& parent : m.groups[link.parent].atoms) {
      AppendRefTargets(parent.attrs[link.via_attr], link.type, &level);
    }
    PRIMA_RETURN_IF_ERROR(
        access_->GetAtoms(level, view, &m.groups[link.child].atoms));
  }
  return m;
}

Result<Molecule> Executor::AssembleRecursive(const ResolvedStructure& structure,
                                             const Atom& root,
                                             const access::ReadView& view) {
  Molecule m;
  InitGroups(structure.root, &m);
  stats_.bfs_assemblies++;
  std::vector<Atom>& atoms = m.groups[0].atoms;
  std::set<uint64_t> visited{root.tid.Pack()};
  atoms.push_back(root);
  m.levels.push_back({root.tid});

  // Stepwise evaluation "going from one level to the next subordinate
  // level" (paper §2.2) with cycle protection. The current level is the
  // tail of `atoms` from `level_begin` on.
  size_t level_begin = 0;
  for (;;) {
    std::vector<Tid> next;
    for (size_t i = level_begin; i < atoms.size(); ++i) {
      AppendRefTargets(atoms[i].attrs[structure.rec_attr], structure.root.type,
                       &next);
    }
    size_t unvisited = 0;
    for (size_t i = 0; i < next.size(); ++i) {
      if (visited.insert(next[i].Pack()).second) next[unvisited++] = next[i];
    }
    next.resize(unvisited);
    if (next.empty()) break;
    level_begin = atoms.size();
    Status missing;
    PRIMA_RETURN_IF_ERROR(access_->GetAtoms(next, view, &atoms, {}, &missing));
    PRIMA_RETURN_IF_ERROR(missing);
    m.levels.push_back(std::move(next));
    stats_.recursion_levels++;
  }
  return m;
}

Result<std::optional<Molecule>> Executor::AssembleFromCluster(
    const QueryPlan& plan, const Atom& root, const access::ReadView& view) {
  PRIMA_ASSIGN_OR_RETURN(access::ClusterImage image,
                         access_->ReadCluster(plan.cluster_id, root.tid));
  if (!access_->ImageServesView(image, view)) return std::optional<Molecule>();
  stats_.cluster_assemblies++;
  Molecule m;
  InitGroups(plan.structure.root, &m);
  m.groups[0].atoms.push_back(std::move(image.characteristic));
  for (auto& [type, atoms] : image.groups) {
    for (auto& g : m.groups) {
      if (g.type == type && g.component != plan.structure.root.name) {
        for (Atom& a : atoms) g.atoms.push_back(std::move(a));
        break;
      }
    }
  }
  return std::optional<Molecule>(std::move(m));
}

Result<Molecule> Executor::Assemble(const QueryPlan& plan, const Atom& root,
                                    const access::ReadView& view) {
  stats_.molecules_built++;
  if (plan.structure.recursive) {
    return AssembleRecursive(plan.structure, root, view);
  }
  if (plan.use_cluster) {
    PRIMA_ASSIGN_OR_RETURN(std::optional<Molecule> m,
                           AssembleFromCluster(plan, root, view));
    if (m.has_value()) return std::move(*m);
  }
  return AssembleBfs(plan, root, view);
}

// ---------------------------------------------------------------------------
// Predicate evaluation
// ---------------------------------------------------------------------------

Result<std::vector<Value>> Executor::PathValues(
    const Molecule& molecule, const AttrPath& path,
    const std::map<std::string, const Atom*>& bindings,
    const std::string& default_component) const {
  // Level-indexed (seed) reference: molecule(level).attr
  if (path.level >= 0) {
    std::vector<Value> out;
    if (static_cast<size_t>(path.level) >= molecule.levels.size()) return out;
    const MoleculeGroup& g = molecule.groups[0];
    const AtomTypeDef* def = access_->catalog().GetAtomType(g.type);
    PRIMA_ASSIGN_OR_RETURN(auto resolved,
                           ResolveAttrOnType(*def, path.attrs));
    for (const Tid& t : molecule.levels[path.level]) {
      for (const Atom& a : g.atoms) {
        if (a.tid == t) {
          const Value* v = DescendFields(a.attrs[resolved.first],
                                         resolved.second);
          if (v != nullptr) out.push_back(*v);
          break;
        }
      }
    }
    return out;
  }

  // Find the component group (bare attrs bind to the default component,
  // which is the root unless a qualified projection rescopes them).
  const MoleculeGroup* group = nullptr;
  if (path.component.empty()) {
    group = default_component.empty()
                ? &molecule.groups[0]
                : molecule.FindGroup(default_component);
    if (group == nullptr) group = &molecule.groups[0];
  } else {
    group = molecule.FindGroup(path.component);
    if (group == nullptr) {
      // `placement.x_coord`: what parsed as a component name is actually a
      // RECORD attribute of the default component. Rebind.
      AttrPath rebased;
      rebased.attrs.reserve(path.attrs.size() + 1);
      rebased.attrs.push_back(path.component);
      rebased.attrs.insert(rebased.attrs.end(), path.attrs.begin(),
                           path.attrs.end());
      return PathValues(molecule, rebased, bindings, default_component);
    }
  }
  const AtomTypeDef* def = access_->catalog().GetAtomType(group->type);
  PRIMA_ASSIGN_OR_RETURN(auto resolved, ResolveAttrOnType(*def, path.attrs));

  std::vector<Value> out;
  // A quantifier binding narrows the component to one atom.
  auto bound = bindings.find(group->component);
  if (bound != bindings.end()) {
    const Value* v =
        DescendFields(bound->second->attrs[resolved.first], resolved.second);
    if (v != nullptr) out.push_back(*v);
    return out;
  }
  for (const Atom& a : group->atoms) {
    const Value* v = DescendFields(a.attrs[resolved.first], resolved.second);
    if (v != nullptr) out.push_back(*v);
  }
  return out;
}

Result<bool> Executor::Eval(
    const Molecule& molecule, const Expr& expr,
    const std::vector<Value>& params,
    const std::map<std::string, const Atom*>& bindings,
    const std::string& default_component) const {
  switch (expr.kind) {
    case Expr::Kind::kAnd: {
      for (const auto& c : expr.children) {
        PRIMA_ASSIGN_OR_RETURN(const bool ok,
                               Eval(molecule, *c, params, bindings, default_component));
        if (!ok) return false;
      }
      return true;
    }
    case Expr::Kind::kOr: {
      for (const auto& c : expr.children) {
        PRIMA_ASSIGN_OR_RETURN(const bool ok,
                               Eval(molecule, *c, params, bindings, default_component));
        if (ok) return true;
      }
      return false;
    }
    case Expr::Kind::kNot: {
      PRIMA_ASSIGN_OR_RETURN(
          const bool ok,
          Eval(molecule, *expr.children[0], params, bindings,
               default_component));
      return !ok;
    }
    case Expr::Kind::kQuantifier: {
      const MoleculeGroup* group = molecule.FindGroup(expr.quant_component);
      if (group == nullptr) {
        return Status::InvalidArgument("unknown component " +
                                       expr.quant_component +
                                       " in quantifier");
      }
      uint32_t satisfied = 0;
      for (const Atom& a : group->atoms) {
        auto scoped = bindings;
        scoped[group->component] = &a;
        PRIMA_ASSIGN_OR_RETURN(
            const bool ok,
            Eval(molecule, *expr.quant_body, params, scoped,
                 group->component));
        if (ok) ++satisfied;
      }
      switch (expr.quant) {
        case Expr::Quant::kExists:
          return satisfied >= 1;
        case Expr::Quant::kExistsAtLeast:
          return satisfied >= expr.quant_count;
        case Expr::Quant::kForAll:
          return satisfied == group->atoms.size();
      }
      return false;
    }
    case Expr::Kind::kCompare: {
      PRIMA_ASSIGN_OR_RETURN(
          std::vector<Value> lhs,
          PathValues(molecule, expr.lhs, bindings, default_component));
      if (expr.rhs_path.has_value()) {
        PRIMA_ASSIGN_OR_RETURN(
            std::vector<Value> rhs,
            PathValues(molecule, *expr.rhs_path, bindings, default_component));
        for (const Value& l : lhs) {
          for (const Value& r : rhs) {
            if (CompareSatisfied(expr.op, l, r)) return true;
          }
        }
        return false;
      }
      // EMPTY tests must also hold for attributes that decode to null, and
      // an atom whose repeating group is absent counts as empty.
      PRIMA_ASSIGN_OR_RETURN(const Value* operand,
                             SiteValue(expr.param, expr.literal, params));
      for (const Value& l : lhs) {
        if (CompareSatisfied(expr.op, l, *operand)) return true;
      }
      if (lhs.empty() && expr.op == CompareOp::kIsEmpty) return true;
      return false;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

Result<Molecule> Executor::Project(const Query& query, const QueryPlan& plan,
                                   const std::vector<Value>& params,
                                   Molecule molecule) {
  if (query.select.size() == 1 &&
      query.select[0].kind == ProjItem::Kind::kAll) {
    return molecule;
  }
  struct Directive {
    bool whole = false;
    std::set<uint16_t> attrs;
    const ProjItem* qualified = nullptr;
  };
  std::map<std::string, Directive> directives;

  const AtomTypeDef* root_def =
      access_->catalog().GetAtomType(plan.structure.root.type);
  for (const ProjItem& item : query.select) {
    switch (item.kind) {
      case ProjItem::Kind::kAll:
        for (const auto& g : molecule.groups) directives[g.component].whole = true;
        break;
      case ProjItem::Kind::kComponent: {
        if (molecule.FindGroup(item.component) != nullptr) {
          directives[item.component].whole = true;
        } else {
          // Bare identifier that is actually a root attribute.
          PRIMA_ASSIGN_OR_RETURN(
              auto resolved, ResolveAttrOnType(*root_def, {item.component}));
          directives[molecule.groups[0].component].attrs.insert(resolved.first);
        }
        break;
      }
      case ProjItem::Kind::kAttr: {
        const MoleculeGroup* group =
            item.path.component.empty()
                ? &molecule.groups[0]
                : molecule.FindGroup(item.path.component);
        if (group == nullptr) {
          return Status::InvalidArgument("unknown component " +
                                         item.path.component);
        }
        const AtomTypeDef* def = access_->catalog().GetAtomType(group->type);
        PRIMA_ASSIGN_OR_RETURN(auto resolved,
                               ResolveAttrOnType(*def, {item.path.attrs[0]}));
        directives[group->component].attrs.insert(resolved.first);
        break;
      }
      case ProjItem::Kind::kQualified: {
        if (molecule.FindGroup(item.component) == nullptr) {
          return Status::InvalidArgument("unknown component " + item.component);
        }
        directives[item.component].qualified = &item;
        break;
      }
    }
  }

  Molecule out;
  out.levels = molecule.levels;
  for (MoleculeGroup& g : molecule.groups) {
    auto it = directives.find(g.component);
    if (it == directives.end()) continue;
    const Directive& d = it->second;
    MoleculeGroup ng;
    ng.component = g.component;
    ng.type = g.type;
    const AtomTypeDef* def = access_->catalog().GetAtomType(g.type);
    if (d.qualified != nullptr) {
      // Qualified projection: per-atom qualification + attribute projection.
      std::set<uint16_t> keep;
      for (const std::string& attr_name : d.qualified->attrs) {
        PRIMA_ASSIGN_OR_RETURN(auto resolved,
                               ResolveAttrOnType(*def, {attr_name}));
        keep.insert(resolved.first);
      }
      for (Atom& a : g.atoms) {
        if (d.qualified->qualification != nullptr) {
          std::map<std::string, const Atom*> binding{{g.component, &a}};
          PRIMA_ASSIGN_OR_RETURN(
              const bool ok, Eval(molecule, *d.qualified->qualification,
                                  params, binding, g.component));
          if (!ok) continue;
        }
        Atom projected = a;
        if (!keep.empty()) {
          for (size_t i = 0; i < projected.attrs.size(); ++i) {
            if (keep.count(static_cast<uint16_t>(i)) == 0 &&
                i != def->identifier_attr) {
              projected.attrs[i] = Value::Null();
            }
          }
        }
        ng.atoms.push_back(std::move(projected));
      }
    } else if (d.whole) {
      ng.atoms = std::move(g.atoms);
    } else {
      for (Atom& a : g.atoms) {
        Atom projected = a;
        for (size_t i = 0; i < projected.attrs.size(); ++i) {
          if (d.attrs.count(static_cast<uint16_t>(i)) == 0 &&
              i != def->identifier_attr) {
            projected.attrs[i] = Value::Null();
          }
        }
        ng.atoms.push_back(std::move(projected));
      }
    }
    out.groups.push_back(std::move(ng));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Streaming cursors
// ---------------------------------------------------------------------------

Result<MoleculeCursor> Executor::OpenCursor(
    std::shared_ptr<const Query> query, std::shared_ptr<const QueryPlan> plan,
    std::vector<Value> params, std::shared_ptr<access::VersionStore::Pin> pin,
    std::shared_ptr<const std::atomic<bool>> invalidated) {
  if (plan == nullptr) {
    PRIMA_ASSIGN_OR_RETURN(QueryPlan planned,
                           Prepare(query->from, query->where.get()));
    plan = std::make_shared<const QueryPlan>(std::move(planned));
  }
  MoleculeCursor cursor;
  cursor.exec_ = this;
  cursor.query_ = std::move(query);
  cursor.plan_ = std::move(plan);
  cursor.params_ = std::move(params);
  cursor.pin_ = std::move(pin);
  cursor.invalidated_ = std::move(invalidated);
  // Open only the root source here — roots are pulled incrementally from
  // the scan layer as the cursor drains, never materialized.
  PRIMA_ASSIGN_OR_RETURN(cursor.source_,
                         OpenRootSource(*cursor.plan_, cursor.params_));
  cursor.source_->view_ = &cursor.pin_->view();
  return cursor;
}

Result<std::optional<Molecule>> Executor::DeriveMolecule(
    const Query& query, const QueryPlan& plan, const std::vector<Value>& params,
    const Atom& root, const access::ReadView& view) {
  obs::StatementTrace* trace = obs::CurrentTrace();
  uint64_t t0 = trace ? obs::NowNs() : 0;
  PRIMA_ASSIGN_OR_RETURN(Molecule molecule, Assemble(plan, root, view));
  bool qualified = true;
  if (query.where != nullptr) {
    PRIMA_ASSIGN_OR_RETURN(qualified,
                           Eval(molecule, *query.where, params, {}));
  }
  if (trace != nullptr) trace->Add(obs::Phase::kAssembly, obs::NowNs() - t0);
  if (!qualified) return std::optional<Molecule>();
  t0 = trace ? obs::NowNs() : 0;
  PRIMA_ASSIGN_OR_RETURN(Molecule projected,
                         Project(query, plan, params, std::move(molecule)));
  if (trace != nullptr) {
    trace->Add(obs::Phase::kProject, obs::NowNs() - t0);
    trace->Tally(obs::Phase::kAssembly, 0);  // molecules
  }
  stats_.cursor_molecules++;
  return std::optional<Molecule>(std::move(projected));
}

Result<MoleculeSet> Executor::DeriveInUnits(std::shared_ptr<const Query> query,
                                            util::ThreadPool* pool,
                                            size_t max_units) {
  PRIMA_ASSIGN_OR_RETURN(
      MoleculeCursor cursor,
      OpenCursor(std::move(query), nullptr, {},
                 access_->versions().OpenSnapshot(/*own_txn=*/0)));
  // One unit is the cursor itself, drained on this thread: roots are
  // derived as they are pulled, never collected.
  if (max_units <= 1) return cursor.Drain();
  std::vector<Atom> roots;
  for (;;) {
    PRIMA_ASSIGN_OR_RETURN(std::optional<Atom> root, cursor.source_->Next());
    if (!root) break;
    roots.push_back(std::move(*root));
  }
  if (roots.empty()) return MoleculeSet();
  const size_t units = std::min(max_units, roots.size());
  const Query& q = *cursor.query_;
  const QueryPlan& plan = *cursor.plan_;

  // Unit u derives roots [u*n/units, (u+1)*n/units). Units are read-only
  // and cover disjoint roots, so they cannot conflict (paper §4).
  struct UnitResult {
    Status status;
    std::vector<Molecule> molecules;
  };
  std::vector<UnitResult> results(units);
  const auto run_unit = [&](size_t u) {
    const size_t end = (u + 1) * roots.size() / units;
    for (size_t i = u * roots.size() / units; i < end; ++i) {
      Result<std::optional<Molecule>> m =
          DeriveMolecule(q, plan, {}, roots[i], cursor.pin_->view());
      if (!m.ok()) {
        results[u].status = m.status();
        return;
      }
      if (m->has_value()) results[u].molecules.push_back(std::move(**m));
    }
  };
  // Wait on this call's own units only: ThreadPool::Wait() would also wait
  // for every other caller's work on the shared pool.
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = units - 1;
  for (size_t u = 0; u + 1 < units; ++u) {
    pool->Submit([&, u] {
      run_unit(u);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }
  run_unit(units - 1);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }

  MoleculeSet set;
  for (UnitResult& r : results) {
    PRIMA_RETURN_IF_ERROR(r.status);
    for (Molecule& m : r.molecules) set.molecules.push_back(std::move(m));
  }
  return set;
}

Result<std::optional<Molecule>> MoleculeCursor::Next() {
  if (aborted_ ||
      (source_ != nullptr && invalidated_ != nullptr && invalidated_->load())) {
    aborted_ = true;  // sticky: a truncated stream must keep failing
    Close();
    return Status::Aborted(
        "cursor invalidated: the transaction it was reading under aborted");
  }
  if (source_ == nullptr) return std::optional<Molecule>();  // closed/drained
  obs::StatementTrace* trace = obs::CurrentTrace();
  for (;;) {
    const uint64_t t0 = trace ? obs::NowNs() : 0;
    PRIMA_ASSIGN_OR_RETURN(std::optional<Atom> root, source_->Next());
    if (!root) break;
    if (trace != nullptr) {
      trace->Add(obs::Phase::kRoots, obs::NowNs() - t0);
      trace->Tally(obs::Phase::kRoots, 0);  // roots
    }
    PRIMA_ASSIGN_OR_RETURN(
        std::optional<Molecule> molecule,
        exec_->DeriveMolecule(*query_, *plan_, params_, *root, pin_->view()));
    if (molecule.has_value()) return molecule;
  }
  Close();
  return std::optional<Molecule>();
}

Result<MoleculeSet> MoleculeCursor::Drain() {
  MoleculeSet set;
  for (;;) {
    PRIMA_ASSIGN_OR_RETURN(std::optional<Molecule> m, Next());
    if (!m.has_value()) break;
    set.molecules.push_back(std::move(*m));
  }
  return set;
}

void MoleculeCursor::Close() {
  source_.reset();
  pin_.reset();
  query_.reset();
  plan_.reset();
}

}  // namespace prima::mql
