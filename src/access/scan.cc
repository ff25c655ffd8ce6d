#include "access/scan.h"

#include <algorithm>

#include "util/coding.h"

namespace prima::access {

using util::Result;
using util::Slice;
using util::Status;

// ---------------------------------------------------------------------------
// AtomTypeScan
// ---------------------------------------------------------------------------

AtomTypeScan::AtomTypeScan(AccessSystem* access, AtomTypeId type,
                           SearchArgument sarg)
    : access_(access), type_(type), sarg_(std::move(sarg)) {}

Status AtomTypeScan::Open() {
  file_ = access_->BaseFile(type_);
  if (file_ == nullptr) {
    return Status::NotFound("atom type id " + std::to_string(type_));
  }
  position_.reset();
  before_first_ = true;
  after_last_ = false;
  return Status::Ok();
}

Result<std::optional<Atom>> AtomTypeScan::DecodeAt(const RecordId& rid) {
  Result<PinnedRecord> record = file_->Read(rid);
  // Deleted by a concurrent writer after the scan found its slot: skipped,
  // as if the scan had come later (a cursor's ghost pass rescues the atom
  // when its view still sees it).
  if (record.status().IsNotFound()) return std::optional<Atom>();
  PRIMA_RETURN_IF_ERROR(record.status());
  PRIMA_ASSIGN_OR_RETURN(Atom atom,
                         access_->DecodeAtom(type_, record->bytes()));
  access_->stats().atoms_read++;
  if (!sarg_.Matches(atom)) return std::optional<Atom>();
  return std::optional<Atom>(std::move(atom));
}

Result<std::optional<Atom>> AtomTypeScan::Next() {
  for (;;) {
    std::optional<RecordId> next;
    if (before_first_) {
      PRIMA_ASSIGN_OR_RETURN(next, file_->First());
      before_first_ = false;
    } else if (after_last_) {
      return std::optional<Atom>();
    } else if (position_) {
      PRIMA_ASSIGN_OR_RETURN(next, file_->Next(*position_));
    } else {
      return std::optional<Atom>();
    }
    if (!next) {
      after_last_ = true;
      position_.reset();
      return std::optional<Atom>();
    }
    position_ = next;
    PRIMA_ASSIGN_OR_RETURN(auto atom, DecodeAt(*next));
    if (atom) return atom;
  }
}

Result<std::optional<Atom>> AtomTypeScan::Prior() {
  for (;;) {
    std::optional<RecordId> prev;
    if (after_last_) {
      PRIMA_ASSIGN_OR_RETURN(prev, file_->Last());
      after_last_ = false;
    } else if (before_first_) {
      return std::optional<Atom>();
    } else if (position_) {
      PRIMA_ASSIGN_OR_RETURN(prev, file_->Prev(*position_));
    } else {
      return std::optional<Atom>();
    }
    if (!prev) {
      before_first_ = true;
      position_.reset();
      return std::optional<Atom>();
    }
    position_ = prev;
    PRIMA_ASSIGN_OR_RETURN(auto atom, DecodeAt(*prev));
    if (atom) return atom;
  }
}

// ---------------------------------------------------------------------------
// SortScan
// ---------------------------------------------------------------------------

SortScan::SortScan(AccessSystem* access, AtomTypeId type,
                   std::vector<uint16_t> criterion, std::vector<bool> asc,
                   SearchArgument sarg, std::optional<SortBound> start,
                   std::optional<SortBound> stop)
    : access_(access),
      type_(type),
      criterion_(std::move(criterion)),
      asc_(std::move(asc)),
      sarg_(std::move(sarg)),
      start_(std::move(start)),
      stop_(std::move(stop)) {
  if (asc_.empty()) asc_.assign(criterion_.size(), true);
}

int SortScan::CompareBound(const Atom& atom,
                           const std::vector<Value>& bound) const {
  for (size_t i = 0; i < bound.size() && i < criterion_.size(); ++i) {
    int c = atom.attrs[criterion_[i]].Compare(bound[i]);
    if (!asc_[i]) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

bool SortScan::PastStop(const Atom& atom) const {
  if (!stop_) return false;
  const int c = CompareBound(atom, stop_->values);
  return stop_->inclusive ? c > 0 : c >= 0;
}

bool SortScan::BeforeStart(const Atom& atom) const {
  if (!start_) return false;
  const int c = CompareBound(atom, start_->values);
  return start_->inclusive ? c < 0 : c <= 0;
}

Status SortScan::Open() {
  // 1. A redundant sort order with the same criterion?
  for (const StructureDef* s : access_->catalog().StructuresFor(type_)) {
    if (s->kind == StructureKind::kSortOrder && s->attrs == criterion_ &&
        std::vector<bool>(s->asc.begin(), s->asc.end()) == asc_) {
      PRIMA_RETURN_IF_ERROR(access_->DrainStructure(s->id));
      structure_ = s;
      mode_ = Mode::kSortOrder;
      iter_ = std::make_unique<BTree::Iterator>(
          access_->BTreeFor(s->id)->NewIterator());
      iter_opened_ = false;
      return Status::Ok();
    }
  }
  // 2. An ascending B*-tree access path on the same attributes? (Access
  //    paths are always stored ascending; a descending criterion still
  //    works because the leaf chain supports PRIOR traversal.)
  const bool uniform =
      std::all_of(asc_.begin(), asc_.end(), [&](bool b) { return b == asc_[0]; });
  if (uniform) {
    for (const StructureDef* s : access_->catalog().StructuresFor(type_)) {
      if (s->kind == StructureKind::kBTreeAccessPath && s->attrs == criterion_) {
        structure_ = s;
        mode_ = Mode::kAccessPath;
        iter_ = std::make_unique<BTree::Iterator>(
            access_->BTreeFor(s->id)->NewIterator());
        iter_opened_ = false;
        return Status::Ok();
      }
    }
  }
  // 3. Explicit sort: materialize and order (a temporary sort order).
  mode_ = Mode::kExplicitSort;
  sorted_.clear();
  for (const Tid& tid : access_->AllAtoms(type_)) {
    PRIMA_ASSIGN_OR_RETURN(Atom atom, access_->GetBaseAtom(tid));
    if (sarg_.Matches(atom)) sorted_.push_back(std::move(atom));
  }
  std::sort(sorted_.begin(), sorted_.end(), [this](const Atom& a, const Atom& b) {
    for (size_t i = 0; i < criterion_.size(); ++i) {
      int c = a.attrs[criterion_[i]].Compare(b.attrs[criterion_[i]]);
      if (!asc_[i]) c = -c;
      if (c != 0) return c < 0;
    }
    return a.tid.Pack() < b.tid.Pack();
  });
  index_ = 0;
  before_first_ = true;
  return Status::Ok();
}

Result<std::optional<Atom>> SortScan::DecodeCurrent() {
  if (mode_ == Mode::kSortOrder) {
    Slice bytes(iter_->value());
    PRIMA_ASSIGN_OR_RETURN(Atom atom, access_->DecodeAtom(type_, bytes));
    access_->stats().atoms_read++;
    return std::optional<Atom>(std::move(atom));
  }
  // Access-path mode: value is the surrogate; fetch the atom.
  Slice v(iter_->value());
  uint64_t packed = 0;
  util::GetFixed64(&v, &packed);
  PRIMA_ASSIGN_OR_RETURN(Atom atom,
                         access_->GetBaseAtom(Tid::Unpack(packed)));
  return std::optional<Atom>(std::move(atom));
}

Status SortScan::SeekIteratorToStart() {
  iter_opened_ = true;
  // Descending criterion on an ascending index: start from the top.
  const bool reversed = mode_ == Mode::kAccessPath && !asc_.empty() && !asc_[0];
  if (reversed) return iter_->SeekToLast();
  return iter_->SeekToFirst();
}

Result<std::optional<Atom>> SortScan::Next() {
  if (mode_ == Mode::kExplicitSort) {
    while (true) {
      if (before_first_) {
        index_ = 0;
        before_first_ = false;
      } else if (index_ < sorted_.size()) {
        ++index_;
      }
      if (index_ >= sorted_.size()) return std::optional<Atom>();
      const Atom& atom = sorted_[index_];
      if (BeforeStart(atom)) continue;
      if (PastStop(atom)) return std::optional<Atom>();
      return std::optional<Atom>(atom);
    }
  }
  const bool reversed = mode_ == Mode::kAccessPath && !asc_.empty() && !asc_[0];
  for (;;) {
    if (!iter_opened_) {
      PRIMA_RETURN_IF_ERROR(SeekIteratorToStart());
    } else if (iter_->Valid()) {
      PRIMA_RETURN_IF_ERROR(reversed ? iter_->Prev() : iter_->Next());
    }
    if (!iter_->Valid()) return std::optional<Atom>();
    PRIMA_ASSIGN_OR_RETURN(auto atom, DecodeCurrent());
    if (!atom) continue;
    if (BeforeStart(*atom)) continue;
    if (PastStop(*atom)) return std::optional<Atom>();
    if (!sarg_.Matches(*atom)) continue;
    return atom;
  }
}

Result<std::optional<Atom>> SortScan::Prior() {
  if (mode_ == Mode::kExplicitSort) {
    while (true) {
      if (before_first_) return std::optional<Atom>();
      if (index_ == 0) {
        before_first_ = true;
        return std::optional<Atom>();
      }
      --index_;
      const Atom& atom = sorted_[index_];
      if (PastStop(atom)) continue;
      if (BeforeStart(atom)) return std::optional<Atom>();
      return std::optional<Atom>(atom);
    }
  }
  const bool reversed = mode_ == Mode::kAccessPath && !asc_.empty() && !asc_[0];
  for (;;) {
    if (!iter_opened_) return std::optional<Atom>();
    if (iter_->Valid()) {
      PRIMA_RETURN_IF_ERROR(reversed ? iter_->Next() : iter_->Prev());
    }
    if (!iter_->Valid()) return std::optional<Atom>();
    PRIMA_ASSIGN_OR_RETURN(auto atom, DecodeCurrent());
    if (!atom) continue;
    if (PastStop(*atom)) continue;
    if (BeforeStart(*atom)) return std::optional<Atom>();
    if (!sarg_.Matches(*atom)) continue;
    return atom;
  }
}

// ---------------------------------------------------------------------------
// BTreeAccessPathScan
// ---------------------------------------------------------------------------

namespace {
Result<std::string> EncodeBoundKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    PRIMA_RETURN_IF_ERROR(v.EncodeKeyInto(&key));
  }
  return key;
}
}  // namespace

BTreeAccessPathScan::BTreeAccessPathScan(AccessSystem* access,
                                         uint32_t structure_id, KeyRange range,
                                         bool forward, SearchArgument sarg)
    : access_(access),
      structure_id_(structure_id),
      range_(std::move(range)),
      forward_(forward),
      sarg_(std::move(sarg)) {}

Status BTreeAccessPathScan::Open() {
  def_ = access_->catalog().GetStructure(structure_id_);
  if (def_ == nullptr || def_->kind != StructureKind::kBTreeAccessPath) {
    return Status::NotFound("B*-tree access path " +
                            std::to_string(structure_id_));
  }
  BTree* tree = access_->BTreeFor(structure_id_);
  if (tree == nullptr) return Status::Corruption("detached access path");
  iter_ = std::make_unique<BTree::Iterator>(tree->NewIterator());
  if (range_.start) {
    PRIMA_ASSIGN_OR_RETURN(start_key_, EncodeBoundKey(*range_.start));
  }
  if (range_.stop) {
    PRIMA_ASSIGN_OR_RETURN(stop_key_, EncodeBoundKey(*range_.stop));
  }
  open_ = false;
  done_ = false;
  return Status::Ok();
}

Result<std::optional<Tid>> BTreeAccessPathScan::Advance() {
  if (done_) return std::optional<Tid>();
  for (;;) {
    if (!open_) {
      open_ = true;
      if (forward_) {
        if (range_.start) {
          PRIMA_RETURN_IF_ERROR(iter_->Seek(start_key_));
        } else {
          PRIMA_RETURN_IF_ERROR(iter_->SeekToFirst());
        }
      } else {
        if (range_.stop) {
          // Position at the last key <= stop prefix. Because keys extend the
          // prefix (tid suffix), seek past the prefix then step back.
          std::string probe = stop_key_;
          probe.push_back('\xFF');
          PRIMA_RETURN_IF_ERROR(iter_->SeekForPrev(probe));
        } else {
          PRIMA_RETURN_IF_ERROR(iter_->SeekToLast());
        }
      }
    } else if (iter_->Valid()) {
      PRIMA_RETURN_IF_ERROR(forward_ ? iter_->Next() : iter_->Prev());
    }
    if (!iter_->Valid()) {
      done_ = true;
      return std::optional<Tid>();
    }
    const Slice key(iter_->key());
    // Bound checks on the encoded prefix.
    if (forward_) {
      if (range_.start && !range_.start_inclusive &&
          key.StartsWith(start_key_)) {
        continue;  // skip keys equal to the excluded start prefix
      }
      if (range_.stop) {
        if (range_.stop_inclusive) {
          if (!key.StartsWith(stop_key_) && key.Compare(stop_key_) > 0) {
            done_ = true;
            return std::optional<Tid>();
          }
        } else if (key.StartsWith(stop_key_) || key.Compare(stop_key_) >= 0) {
          done_ = true;
          return std::optional<Tid>();
        }
      }
    } else {
      if (range_.stop && !range_.stop_inclusive && key.StartsWith(stop_key_)) {
        continue;
      }
      if (range_.start) {
        if (range_.start_inclusive) {
          if (!key.StartsWith(start_key_) && key.Compare(start_key_) < 0) {
            done_ = true;
            return std::optional<Tid>();
          }
        } else if (key.StartsWith(start_key_) ||
                   key.Compare(start_key_) <= 0) {
          done_ = true;
          return std::optional<Tid>();
        }
      }
    }
    Slice v(iter_->value());
    uint64_t packed = 0;
    util::GetFixed64(&v, &packed);
    return std::optional<Tid>(Tid::Unpack(packed));
  }
}

Result<std::optional<Tid>> BTreeAccessPathScan::NextTid() { return Advance(); }

Result<std::optional<Atom>> BTreeAccessPathScan::Next() {
  for (;;) {
    PRIMA_ASSIGN_OR_RETURN(auto tid, Advance());
    if (!tid) return std::optional<Atom>();
    Result<Atom> atom = access_->GetBaseAtom(*tid);
    if (atom.status().IsNotFound()) continue;  // deleted since the index read
    PRIMA_RETURN_IF_ERROR(atom.status());
    if (!sarg_.Matches(*atom)) continue;
    return std::optional<Atom>(std::move(atom).value());
  }
}

// ---------------------------------------------------------------------------
// GridAccessPathScan
// ---------------------------------------------------------------------------

GridAccessPathScan::GridAccessPathScan(AccessSystem* access,
                                       uint32_t structure_id,
                                       std::vector<GridDimension> dims,
                                       std::vector<size_t> dim_priority,
                                       SearchArgument sarg)
    : access_(access),
      structure_id_(structure_id),
      dims_(std::move(dims)),
      dim_priority_(std::move(dim_priority)),
      sarg_(std::move(sarg)) {}

Status GridAccessPathScan::Open() {
  const StructureDef* def = access_->catalog().GetStructure(structure_id_);
  if (def == nullptr || def->kind != StructureKind::kGridAccessPath) {
    return Status::NotFound("grid access path " + std::to_string(structure_id_));
  }
  GridFile* grid = access_->GridFor(structure_id_);
  if (grid == nullptr) return Status::Corruption("detached grid file");
  if (dims_.size() != def->attrs.size()) {
    return Status::InvalidArgument("grid scan dimension mismatch");
  }
  std::vector<GridFile::QueryRange> ranges(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (dims_[d].lo) {
      std::string k;
      PRIMA_RETURN_IF_ERROR(dims_[d].lo->EncodeKeyInto(&k));
      ranges[d].lo = std::move(k);
      ranges[d].lo_inclusive = dims_[d].lo_inclusive;
    }
    if (dims_[d].hi) {
      std::string k;
      PRIMA_RETURN_IF_ERROR(dims_[d].hi->EncodeKeyInto(&k));
      ranges[d].hi = std::move(k);
      ranges[d].hi_inclusive = dims_[d].hi_inclusive;
    }
    ranges[d].asc = dims_[d].asc;
  }
  PRIMA_ASSIGN_OR_RETURN(auto matches, grid->Query(ranges, dim_priority_));
  matches_.clear();
  matches_.reserve(matches.size());
  for (const auto& m : matches) matches_.push_back(m.tid);
  index_ = 0;
  before_first_ = true;
  return Status::Ok();
}

Result<std::optional<Atom>> GridAccessPathScan::Next() {
  for (;;) {
    if (before_first_) {
      index_ = 0;
      before_first_ = false;
    } else if (index_ < matches_.size()) {
      ++index_;
    }
    if (index_ >= matches_.size()) return std::optional<Atom>();
    Result<Atom> atom = access_->GetBaseAtom(matches_[index_]);
    if (atom.status().IsNotFound()) continue;  // deleted since the grid read
    PRIMA_RETURN_IF_ERROR(atom.status());
    if (!sarg_.Matches(*atom)) continue;
    return std::optional<Atom>(std::move(atom).value());
  }
}

Result<std::optional<Atom>> GridAccessPathScan::Prior() {
  for (;;) {
    if (before_first_) return std::optional<Atom>();
    if (index_ == 0) {
      before_first_ = true;
      return std::optional<Atom>();
    }
    --index_;
    Result<Atom> atom = access_->GetBaseAtom(matches_[index_]);
    if (atom.status().IsNotFound()) continue;  // deleted since the grid read
    PRIMA_RETURN_IF_ERROR(atom.status());
    if (!sarg_.Matches(*atom)) continue;
    return std::optional<Atom>(std::move(atom).value());
  }
}

// ---------------------------------------------------------------------------
// AtomClusterTypeScan
// ---------------------------------------------------------------------------

AtomClusterTypeScan::AtomClusterTypeScan(AccessSystem* access,
                                         uint32_t cluster_structure_id,
                                         SearchArgument char_sarg)
    : access_(access),
      structure_id_(cluster_structure_id),
      sarg_(std::move(char_sarg)) {}

Status AtomClusterTypeScan::Open() {
  def_ = access_->catalog().GetStructure(structure_id_);
  if (def_ == nullptr || def_->kind != StructureKind::kAtomCluster) {
    return Status::NotFound("atom-cluster type " + std::to_string(structure_id_));
  }
  PRIMA_RETURN_IF_ERROR(access_->DrainStructure(structure_id_));
  char_scan_ = std::make_unique<AtomTypeScan>(access_, def_->atom_type, sarg_);
  return char_scan_->Open();
}

Result<std::optional<ClusterImage>> AtomClusterTypeScan::Next() {
  PRIMA_ASSIGN_OR_RETURN(auto char_atom, char_scan_->Next());
  if (!char_atom) return std::optional<ClusterImage>();
  PRIMA_ASSIGN_OR_RETURN(ClusterImage image,
                         access_->ReadCluster(structure_id_, char_atom->tid));
  return std::optional<ClusterImage>(std::move(image));
}

// ---------------------------------------------------------------------------
// AtomClusterScan
// ---------------------------------------------------------------------------

AtomClusterScan::AtomClusterScan(AccessSystem* access,
                                 uint32_t cluster_structure_id,
                                 Tid characteristic, AtomTypeId member_type,
                                 SearchArgument sarg)
    : access_(access),
      structure_id_(cluster_structure_id),
      characteristic_(characteristic),
      member_type_(member_type),
      sarg_(std::move(sarg)) {}

Status AtomClusterScan::Open() {
  PRIMA_ASSIGN_OR_RETURN(ClusterImage image,
                         access_->ReadCluster(structure_id_, characteristic_));
  atoms_.clear();
  if (member_type_ == characteristic_.type) {
    atoms_.push_back(image.characteristic);
  }
  for (auto& [type, atoms] : image.groups) {
    if (type == member_type_) {
      for (auto& a : atoms) atoms_.push_back(std::move(a));
    }
  }
  index_ = 0;
  before_first_ = true;
  return Status::Ok();
}

Result<std::optional<Atom>> AtomClusterScan::Next() {
  for (;;) {
    if (before_first_) {
      index_ = 0;
      before_first_ = false;
    } else if (index_ < atoms_.size()) {
      ++index_;
    }
    if (index_ >= atoms_.size()) return std::optional<Atom>();
    if (!sarg_.Matches(atoms_[index_])) continue;
    return std::optional<Atom>(atoms_[index_]);
  }
}

Result<std::optional<Atom>> AtomClusterScan::Prior() {
  for (;;) {
    if (before_first_) return std::optional<Atom>();
    if (index_ == 0) {
      before_first_ = true;
      return std::optional<Atom>();
    }
    --index_;
    if (!sarg_.Matches(atoms_[index_])) continue;
    return std::optional<Atom>(atoms_[index_]);
  }
}

}  // namespace prima::access
