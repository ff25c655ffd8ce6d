#ifndef PRIMA_ACCESS_SCAN_H_
#define PRIMA_ACCESS_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "access/access_system.h"
#include "access/btree.h"
#include "access/search_arg.h"

namespace prima::access {

/// Scans are "a concept to control a dynamically defined set of atoms, to
/// hold a current position in such a set, and to successively accept single
/// atoms (NEXT/PRIOR) for further processing" (paper §3.2). All five scan
/// types of the paper are implemented:
///   1. atom-type scan          — system-defined (physical) order
///   2. sort scan               — user-defined order, with/without sort order
///   3. access-path scan        — B*-tree and grid file, start/stop/direction
///   4. atom-cluster-type scan  — all characteristic atoms of a cluster type
///   5. atom-cluster scan       — atoms of one type within one cluster
///
/// Scans read base records as they stand, uncommitted writes included; a
/// molecule cursor resolves every atom it pulls from one against its
/// pinned read view (mql::RootSource).

// ---------------------------------------------------------------------------
// 1. Atom-type scan
// ---------------------------------------------------------------------------

/// Reads all atoms of one atom type in system-defined order, optionally
/// restricted by a simple search argument ("corresponds to the relation
/// scan of the RSS").
class AtomTypeScan {
 public:
  AtomTypeScan(AccessSystem* access, AtomTypeId type, SearchArgument sarg = {});

  util::Status Open();
  /// Advance and return the next qualifying atom; nullopt at end.
  util::Result<std::optional<Atom>> Next();
  /// Step back and return the previous qualifying atom; nullopt at begin.
  util::Result<std::optional<Atom>> Prior();

 private:
  util::Result<std::optional<Atom>> DecodeAt(const RecordId& rid);

  AccessSystem* access_;
  AtomTypeId type_;
  SearchArgument sarg_;
  RecordFile* file_ = nullptr;
  std::optional<RecordId> position_;
  bool before_first_ = true;
  bool after_last_ = false;
};

// ---------------------------------------------------------------------------
// 2. Sort scan
// ---------------------------------------------------------------------------

/// Bound on the sort criterion: a prefix of criterion values.
struct SortBound {
  std::vector<Value> values;
  bool inclusive = true;
};

/// Reads all atoms of one type in user-defined order. Uses a matching
/// redundant sort order if installed; otherwise engages a matching B*-tree
/// access path; otherwise performs the sort explicitly, creating a
/// temporary in-memory sort order (exactly the paper's three-way fallback).
class SortScan {
 public:
  SortScan(AccessSystem* access, AtomTypeId type,
           std::vector<uint16_t> criterion, std::vector<bool> asc,
           SearchArgument sarg = {}, std::optional<SortBound> start = {},
           std::optional<SortBound> stop = {});

  util::Status Open();
  util::Result<std::optional<Atom>> Next();
  util::Result<std::optional<Atom>> Prior();

  /// Which mechanism Open() selected (observable for tests/benches).
  enum class Mode { kSortOrder, kAccessPath, kExplicitSort };
  Mode mode() const { return mode_; }

 private:
  // Lexicographic comparison of `atom` against a bound on the criterion.
  int CompareBound(const Atom& atom, const std::vector<Value>& bound) const;
  bool PastStop(const Atom& atom) const;
  bool BeforeStart(const Atom& atom) const;
  util::Result<std::optional<Atom>> DecodeCurrent();
  util::Status SeekIteratorToStart();

  AccessSystem* access_;
  AtomTypeId type_;
  std::vector<uint16_t> criterion_;
  std::vector<bool> asc_;
  SearchArgument sarg_;
  std::optional<SortBound> start_;
  std::optional<SortBound> stop_;

  Mode mode_ = Mode::kExplicitSort;
  const StructureDef* structure_ = nullptr;  // sort order or access path
  std::unique_ptr<BTree::Iterator> iter_;
  bool iter_opened_ = false;

  // Explicit sort fallback.
  std::vector<Atom> sorted_;
  size_t index_ = 0;
  bool before_first_ = true;
};

// ---------------------------------------------------------------------------
// 3a. Access-path scan (B*-tree)
// ---------------------------------------------------------------------------

/// Key range over the access path's attribute list (a prefix of values).
struct KeyRange {
  std::optional<std::vector<Value>> start;
  bool start_inclusive = true;
  std::optional<std::vector<Value>> stop;
  bool stop_inclusive = true;
};

class BTreeAccessPathScan {
 public:
  /// `forward` = false traverses PRIOR-wise from the stop end.
  BTreeAccessPathScan(AccessSystem* access, uint32_t structure_id,
                      KeyRange range, bool forward = true,
                      SearchArgument sarg = {});

  util::Status Open();
  /// Next qualifying atom (fetched from its base record).
  util::Result<std::optional<Atom>> Next();
  /// Index-only variant.
  util::Result<std::optional<Tid>> NextTid();

 private:
  util::Result<std::optional<Tid>> Advance();

  AccessSystem* access_;
  uint32_t structure_id_;
  KeyRange range_;
  bool forward_;
  SearchArgument sarg_;
  const StructureDef* def_ = nullptr;
  std::unique_ptr<BTree::Iterator> iter_;
  std::string start_key_, stop_key_;
  bool open_ = false;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// 3b. Access-path scan (grid file)
// ---------------------------------------------------------------------------

/// Per-dimension condition: start/stop and direction individually for every
/// key involved in the scan (paper §3.2).
struct GridDimension {
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  bool asc = true;
};

class GridAccessPathScan {
 public:
  GridAccessPathScan(AccessSystem* access, uint32_t structure_id,
                     std::vector<GridDimension> dims,
                     std::vector<size_t> dim_priority = {},
                     SearchArgument sarg = {});

  util::Status Open();
  util::Result<std::optional<Atom>> Next();
  util::Result<std::optional<Atom>> Prior();

 private:
  AccessSystem* access_;
  uint32_t structure_id_;
  std::vector<GridDimension> dims_;
  std::vector<size_t> dim_priority_;
  SearchArgument sarg_;
  std::vector<Tid> matches_;
  size_t index_ = 0;
  bool before_first_ = true;
};

// ---------------------------------------------------------------------------
// 4. Atom-cluster-type scan
// ---------------------------------------------------------------------------

/// Reads all characteristic atoms of an atom-cluster type in system-defined
/// order, restricted by a search argument decidable in one pass through a
/// single atom cluster; each position gives direct access to the whole
/// cluster.
class AtomClusterTypeScan {
 public:
  AtomClusterTypeScan(AccessSystem* access, uint32_t cluster_structure_id,
                      SearchArgument char_sarg = {});

  util::Status Open();
  /// Next cluster (characteristic atom qualifies); nullopt at end.
  util::Result<std::optional<ClusterImage>> Next();

 private:
  AccessSystem* access_;
  uint32_t structure_id_;
  SearchArgument sarg_;
  const StructureDef* def_ = nullptr;
  std::unique_ptr<AtomTypeScan> char_scan_;
};

// ---------------------------------------------------------------------------
// 5. Atom-cluster scan
// ---------------------------------------------------------------------------

/// Reads all atoms of a certain atom type within one single atom cluster in
/// system-defined order, with optional search-argument restriction.
class AtomClusterScan {
 public:
  AtomClusterScan(AccessSystem* access, uint32_t cluster_structure_id,
                  Tid characteristic, AtomTypeId member_type,
                  SearchArgument sarg = {});

  util::Status Open();
  util::Result<std::optional<Atom>> Next();
  util::Result<std::optional<Atom>> Prior();

 private:
  AccessSystem* access_;
  uint32_t structure_id_;
  Tid characteristic_;
  AtomTypeId member_type_;
  SearchArgument sarg_;
  std::vector<Atom> atoms_;
  size_t index_ = 0;
  bool before_first_ = true;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_SCAN_H_
