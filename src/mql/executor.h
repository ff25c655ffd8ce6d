#ifndef PRIMA_MQL_EXECUTOR_H_
#define PRIMA_MQL_EXECUTOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "access/access_system.h"
#include "access/scan.h"
#include "mql/ast.h"
#include "mql/molecule.h"
#include "mql/semantics.h"
#include "obs/counter.h"
#include "util/thread_pool.h"

namespace prima::mql {

/// Counters of the data system (top of the Fig. 3.1 layer pyramid).
struct DataStats {
  obs::Counter queries;  ///< user queries; DML qualification is not one
  obs::Counter molecules_built;
  obs::Counter cluster_assemblies;  ///< served from atom clusters
  obs::Counter bfs_assemblies;      ///< assembled by association chasing
  obs::Counter recursion_levels;
  obs::Counter key_lookups;
  obs::Counter access_path_scans;
  obs::Counter grid_scans;
  obs::Counter atom_type_scans;
  // Session / prepared-statement surface.
  obs::Counter statements_prepared;  ///< Session::Prepare calls
  obs::Counter prepared_executions;  ///< PreparedStatement runs
  obs::Counter prepared_plans;       ///< plans they took: 1 each + DDL recompiles
  obs::Counter cursor_molecules;     ///< query results, DML's too

  void Reset() { *this = DataStats(); }
};

inline constexpr obs::CounterDef<DataStats> kDataCounters[] = {
    {&DataStats::queries, "prima_queries", "user queries (session, prepared, wire, QueryParallel)"},
    {&DataStats::molecules_built, "prima_molecules_built", "molecules assembled"},
    {&DataStats::cluster_assemblies, "prima_cluster_assemblies", "molecules served from atom clusters"},
    {&DataStats::bfs_assemblies, "prima_bfs_assemblies", "molecules assembled by association chasing"},
    {&DataStats::recursion_levels, "prima_recursion_levels", "recursive molecule levels expanded"},
    {&DataStats::key_lookups, "prima_key_lookups", "root sets reached by key lookup"},
    {&DataStats::access_path_scans, "prima_access_path_scans", "root sets reached by an access-path scan"},
    {&DataStats::grid_scans, "prima_grid_scans", "root sets reached by a grid-file scan"},
    {&DataStats::atom_type_scans, "prima_atom_type_scans", "root sets reached by an atom-type scan"},
    {&DataStats::statements_prepared, "prima_statements_prepared", "Session::Prepare calls"},
    {&DataStats::prepared_executions, "prima_prepared_executions", "prepared-statement executions"},
    {&DataStats::prepared_plans, "prima_prepared_plans", "plans prepared statements compiled or took from the statement cache: one per Prepare, plus one per recompile after DDL"},
    {&DataStats::cursor_molecules, "prima_cursor_molecules", "molecules returned by cursor Next() and QueryParallel units, DML target qualification included"},
};

/// The value at an operand site of a statement (a WHERE comparison, an
/// INSERT value, a MODIFY SET): the site's literal, or — when the site is
/// a placeholder — bound parameter [param]. Statements are never rewritten
/// with bound values; every site reads them through here.
util::Result<const access::Value*> SiteValue(
    int param, const access::Value& literal,
    const std::vector<access::Value>& params);

/// How the executor reaches the root atoms of the molecule set.
enum class RootAccess { kKeyLookup, kAccessPath, kGrid, kAtomTypeScan };

/// One root-bound predicate the root access consumes. Its shape (attribute
/// and operator) is fixed at plan time; its operand is a slot — the literal
/// of the statement text, or the statement parameter whose bound value is
/// read when a cursor opens.
struct RootPred {
  uint16_t attr = 0;
  std::vector<uint16_t> fields;
  access::CompareOp op = access::CompareOp::kEq;
  access::Value literal;
  int param = -1;     ///< >= 0: the operand is parameter [param]
  bool real = false;  ///< REAL key attribute: an INTEGER operand is coerced
  size_t dim = 0;     ///< grid dimension the predicate bounds (kGrid)
};

/// The prepared execution plan for one query (paper §3.1 "query
/// preparation"): root access selection with pushed-down qualifications,
/// the resolved hierarchical structure, and the cluster fast path decision.
/// A plan is value-free: access-path choice depends only on the shape of
/// the root predicates, so one plan serves every binding of a prepared
/// statement, and OpenRootSource fills the key, range, grid bounds or
/// search argument from the bound values.
struct QueryPlan {
  ResolvedStructure structure;
  /// One parent -> child link of `structure`, by molecule group index
  /// (groups are numbered in pre-order, root 0): the child group holds the
  /// atoms of `type` that the parent group's atoms reference through
  /// `via_attr`.
  struct Link {
    size_t parent = 0;
    size_t child = 0;
    uint16_t via_attr = 0;
    access::AtomTypeId type = 0;
  };
  /// Every link in an order that fills a parent group before its
  /// children's (association chasing walks them in this order).
  std::vector<Link> links;
  RootAccess root_access = RootAccess::kAtomTypeScan;
  uint32_t access_structure_id = 0;
  /// What the root access reads: the key predicates in KEYS_ARE order
  /// (kKeyLookup), the bounds on the access path's first attribute in WHERE
  /// order (kAccessPath), the per-dimension bounds (kGrid), or the
  /// pushed-down search argument (kAtomTypeScan).
  std::vector<RootPred> root_preds;
  size_t grid_dims = 0;  ///< dimensions of the grid (kGrid)
  bool use_cluster = false;
  uint32_t cluster_id = 0;
};

class Executor;

/// An incremental root-candidate stream: wraps whichever access method the
/// plan chose (atom-type scan, B*-tree access path, grid, key lookup) and
/// yields root atoms one at a time in scan order, as the cursor's view sees
/// them. It is where every cursor gets its roots; the root set is never
/// materialized, so open-latency and memory stay bounded for huge root
/// sets. Not thread-safe — the cursor pulls roots only on the consumer
/// thread.
///
/// The scan layer reads base records as they stand, and every candidate is
/// resolved against the view here: candidates the view predates are
/// dropped, too-new or uncommitted ones are replaced by their before-image
/// (the full WHERE re-evaluates downstream, so a before-image that no
/// longer satisfies the scan's pushed-down predicate is filtered there),
/// and an atom surfaced twice (a concurrent key change) is yielded once.
/// After the scan drains, a ghost pass resolves every chained atom of the
/// root type the scan never surfaced — atoms whose delete, or whose move
/// out of the scanned key range, the view cannot see — in sorted tid
/// order, so the stream is deterministic for a fixed view.
class RootSource {
 public:
  RootSource() = default;

  /// The next root candidate in scan order; nullopt when exhausted.
  util::Result<std::optional<access::Atom>> Next();

 private:
  friend class Executor;

  /// The next base record the plan's scan (or key lookup) surfaces.
  util::Result<std::optional<access::Atom>> NextCandidate();

  // At most one of these is engaged; none for a key lookup, which finds
  // its 0/1 tid at open (the lookup IS the open).
  std::unique_ptr<access::AtomTypeScan> type_scan_;
  std::unique_ptr<access::BTreeAccessPathScan> path_scan_;
  std::unique_ptr<access::GridAccessPathScan> grid_scan_;
  std::optional<access::Tid> lookup_;
  bool key_lookup_ = false;

  access::AccessSystem* access_ = nullptr;
  /// Points into the cursor's pin, which the cursor holds for as long as
  /// it holds this source.
  const access::ReadView* view_ = nullptr;
  access::AtomTypeId root_type_ = 0;
  /// Packed tids the scan surfaced. A key lookup surfaces at most one,
  /// kept in `looked_up_` instead: it needs no dedup set.
  std::set<uint64_t> yielded_;
  std::optional<uint64_t> looked_up_;
  std::vector<uint64_t> ghosts_;
  size_t ghost_next_ = 0;
  bool ghosts_built_ = false;
};

/// A pull-based molecule stream. Root candidates are pulled incrementally
/// from the scan layer (never materialized), and each Next() returns the
/// next qualifying molecule — first-row latency is one assembly, not the
/// whole set, and a consumer that stops early never pays for the molecules
/// it skipped. It is the data system's one molecule-derivation loop:
/// session and prepared queries, the one-shot facade and the wire drain
/// it for their results, and MODIFY/DELETE drain one for their targets.
/// The cursor is serial: each root is assembled, qualified and projected
/// on the thread calling Next() (Executor::DeriveMolecule, the per-root
/// step Prima::QueryParallel's units run as well), so nothing is assembled
/// ahead of the Next() that returns it. Each step records its phase into
/// the trace of the statement running on that thread (obs::CurrentTrace()),
/// so a cursor drained inside a traced statement shows in its report and
/// one drained after it records nothing.
///
/// A cursor shares its compiled query and plan (immutable — typically the
/// statement-cache entry it was compiled into) and owns a copy of its bound
/// values, so the statement or session that spawned it may be re-bound,
/// re-executed, or closed while the cursor drains. It must not outlive the
/// database. It holds the read view pinned when it opened and resolves
/// every atom it reads against it: the committed state as of the open, plus
/// the writes of the view's own transaction. The session layer invalidates
/// a cursor that reads its own transaction's writes (via the `invalidated`
/// token) when an abort rolls them back.
class MoleculeCursor {
 public:
  MoleculeCursor() = default;  ///< a closed cursor

  /// The next qualifying molecule, or nullopt when the set is drained.
  util::Result<std::optional<Molecule>> Next();

  /// Drain the remaining molecules into a set. Every caller that wants a
  /// whole set — Prima::Query, the object buffer's checkout, DML target
  /// qualification — is exactly Open + Drain.
  util::Result<MoleculeSet> Drain();

  /// Drop the remaining molecules; Next() then reports drained. Idempotent.
  void Close();

  bool open() const { return source_ != nullptr; }

 private:
  friend class Executor;

  Executor* exec_ = nullptr;
  std::shared_ptr<const Query> query_;
  std::shared_ptr<const QueryPlan> plan_;
  /// Bound values, indexed by parameter slot (empty for one-shot
  /// statements, whose text carries every operand).
  std::vector<access::Value> params_;
  /// The read view every read of this cursor resolves against.
  std::shared_ptr<access::VersionStore::Pin> pin_;
  std::unique_ptr<RootSource> source_;  ///< null: closed or drained
  /// Set by the owning session when a transaction abort invalidates the
  /// atoms this cursor streams; Next() then fails with Aborted.
  std::shared_ptr<const std::atomic<bool>> invalidated_;
  /// Sticky: once invalidation fired, EVERY later Next()/Drain() keeps
  /// failing — a truncated stream must never read as a completed one.
  bool aborted_ = false;
};

/// The molecule management of the data system (paper §3.1): derives whole
/// molecule sets via a molecule-type scan, assembling each molecule either
/// by association chasing or from a covering atom cluster.
class Executor {
 public:
  explicit Executor(access::AccessSystem* access)
      : access_(access), analyzer_(&access->catalog()) {}

  /// Plan a query (exposed so tests and benches can inspect decisions).
  /// Placeholders in `where` stay slots in the plan; no value is read.
  util::Result<QueryPlan> Prepare(const FromClause& from, const Expr* where);

  /// Open a streaming cursor over `query`, reading through `plan` (null:
  /// plan the query now) under the read view of `pin`. The cursor shares
  /// the query, plan and pin, and takes `params`, the bound values indexed
  /// by parameter slot (empty when the query has no placeholders). Opening
  /// a cursor counts nothing in stats(): callers serving a user query count
  /// it there (DataStats::queries).
  util::Result<MoleculeCursor> OpenCursor(
      std::shared_ptr<const Query> query, std::shared_ptr<const QueryPlan> plan,
      std::vector<access::Value> params,
      std::shared_ptr<access::VersionStore::Pin> pin,
      std::shared_ptr<const std::atomic<bool>> invalidated = nullptr);

  /// Derive the molecule set of a placeholder-free query by semantic
  /// parallelism (paper §4) under one view pinned for the call: the roots
  /// are pulled on the calling thread and
  /// split into at most `max_units` contiguous units; all but the last run
  /// on `pool` while the caller runs the last itself. Each unit runs every
  /// root of its range through the cursor's per-root step, so the result —
  /// the units' molecules concatenated in root order — equals a drained
  /// cursor's. If units fail, the error of the earliest one in root order
  /// is returned. With `max_units` <= 1 this is the cursor, drained on the
  /// calling thread.
  util::Result<MoleculeSet> DeriveInUnits(std::shared_ptr<const Query> query,
                                          util::ThreadPool* pool,
                                          size_t max_units);

  /// Always 1: cursors assemble serially. Kept only for the benchmark's
  /// config block (perfbench/src/main.cc), which prints it.
  size_t assembly_threads() const { return 1; }

  DataStats& stats() { return stats_; }
  access::AccessSystem* access() { return access_; }

 private:
  // The cursor's steps, in order: pull roots, then derive each one
  // (assemble, qualify, project). Private so MoleculeCursor and
  // DeriveInUnits stay the only loops that run them.
  friend class MoleculeCursor;

  /// The per-root step: assemble the molecule rooted at `root`, qualify it
  /// against the WHERE and project the SELECT; nullopt when it does not
  /// qualify. Every read resolves against `view`.
  util::Result<std::optional<Molecule>> DeriveMolecule(
      const Query& query, const QueryPlan& plan,
      const std::vector<access::Value>& params, const access::Atom& root,
      const access::ReadView& view);

  /// Open the incremental root-candidate stream for the plan, filling its
  /// key, range, grid bounds or search argument from `params`.
  util::Result<std::unique_ptr<RootSource>> OpenRootSource(
      const QueryPlan& plan, const std::vector<access::Value>& params);

  /// Assemble the molecule rooted at `root` as `view` sees it.
  util::Result<Molecule> Assemble(const QueryPlan& plan,
                                  const access::Atom& root,
                                  const access::ReadView& view);

  /// Evaluate a WHERE expression on a molecule; placeholder sites read
  /// `params`. `default_component` rebinds bare attribute names (empty =
  /// the root component); qualified projections evaluate their conditions
  /// in the projected component's scope.
  util::Result<bool> Eval(const Molecule& molecule, const Expr& expr,
                          const std::vector<access::Value>& params,
                          const std::map<std::string, const access::Atom*>&
                              bindings,
                          const std::string& default_component = "") const;

  /// Apply the SELECT clause to one qualified molecule.
  util::Result<Molecule> Project(const Query& query, const QueryPlan& plan,
                                 const std::vector<access::Value>& params,
                                 Molecule molecule);

  struct PathRef {
    const MoleculeGroup* group = nullptr;
    uint16_t attr = 0;
    std::vector<uint16_t> fields;
    int level = -1;
  };

  util::Result<PathRef> ResolvePath(const Molecule& molecule,
                                    const AttrPath& path) const;
  util::Result<std::vector<access::Value>> PathValues(
      const Molecule& molecule, const AttrPath& path,
      const std::map<std::string, const access::Atom*>& bindings,
      const std::string& default_component) const;

  /// Root-bound simple predicates from the top-level conjunction.
  util::Status ExtractRootPreds(const Expr* where,
                                const ResolvedStructure& structure,
                                std::vector<RootPred>* out) const;

  // Association chasing reads one molecule level per
  // AccessSystem::GetAtoms call: the references of the atoms assembled so
  // far name the level, and GetAtoms reads it as a set (each page fixed
  // once, a target named twice read once).
  //
  // AssembleBfs fills the child group of each plan link from its parent
  // group; a target the view does not see is left out. AssembleRecursive
  // expands the root type level by level over `rec_attr`, each atom once
  // (cycle protection); a target the view does not see fails the query
  // with NotFound.
  util::Result<Molecule> AssembleBfs(const QueryPlan& plan,
                                     const access::Atom& root,
                                     const access::ReadView& view);
  util::Result<Molecule> AssembleRecursive(const ResolvedStructure& structure,
                                           const access::Atom& root,
                                           const access::ReadView& view);
  /// The molecule from the root's cluster image, or nullopt when some atom
  /// of the image resolves to anything but its current record under
  /// `view` (the image carries no versions; the caller then chases
  /// associations level by level).
  util::Result<std::optional<Molecule>> AssembleFromCluster(
      const QueryPlan& plan, const access::Atom& root,
      const access::ReadView& view);

  access::AccessSystem* access_;
  SemanticAnalyzer analyzer_;
  DataStats stats_;
};

}  // namespace prima::mql

#endif  // PRIMA_MQL_EXECUTOR_H_
