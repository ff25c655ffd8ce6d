#include "access/access_system.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

#include "recovery/wal_writer.h"
#include "util/coding.h"

namespace prima::access {

using storage::PageSize;
using storage::SegmentId;
using util::Result;
using util::Slice;
using util::Status;

namespace {
/// Reserved segments: 1 = catalog blob, 2 = address table blob.
constexpr SegmentId kCatalogSegment = 1;
constexpr SegmentId kAddressSegment = 2;
/// Both blobs live in the segment's first allocated page sequence, whose
/// header is always page 1 (first allocation in a fresh segment).
constexpr uint32_t kBlobHeaderPage = 1;

/// Flip bytes for descending key components (memcmp order reversal).
void FlipBytes(std::string* s, size_t from) {
  for (size_t i = from; i < s->size(); ++i) {
    (*s)[i] = static_cast<char>(~static_cast<unsigned char>((*s)[i]));
  }
}

void AppendTidKey(std::string* out, const Tid& tid) {
  const uint64_t p = tid.Pack();
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((p >> (8 * i)) & 0xFF));
  }
}

std::string PackedTidValue(const Tid& tid) {
  std::string v;
  util::PutFixed64(&v, tid.Pack());
  return v;
}
}  // namespace

AccessSystem::AccessSystem(storage::StorageSystem* storage,
                           AccessOptions options)
    : storage_(storage), options_(options) {}

// ---------------------------------------------------------------------------
// Write-ahead logging of atom operations
// ---------------------------------------------------------------------------

namespace {
recovery::AtomOp ToAtomOp(UndoRecord::Kind kind) {
  switch (kind) {
    case UndoRecord::Kind::kInsert:
      return recovery::AtomOp::kInsert;
    case UndoRecord::Kind::kModify:
      return recovery::AtomOp::kModify;
    case UndoRecord::Kind::kDelete:
      return recovery::AtomOp::kDelete;
  }
  return recovery::AtomOp::kModify;
}
}  // namespace

void AccessSystem::LogAtomOp(const WriteTxn& txn, UndoRecord::Kind kind,
                             const Tid& tid, const Atom* before, bool clr) {
  uint64_t lsn = 0;
  if (wal_ != nullptr) {
    recovery::LogRecord rec;
    rec.type = recovery::LogRecordType::kAtomUndo;
    rec.txn_id = txn.id;
    rec.op = ToAtomOp(kind);
    rec.clr = clr;
    rec.tid = tid.Pack();
    auto rid_or = addresses_.Lookup(tid, kBaseStructure);
    rec.rid = rid_or.ok() ? *rid_or : 0;
    if (before != nullptr) before->EncodeInto(&rec.before);
    lsn = wal_->Append(rec);
  }
  if (txn.undo != nullptr) {
    txn.undo->push_back(
        UndoRecord{kind, tid, before != nullptr ? *before : Atom{}, lsn});
  }
}

void AccessSystem::NoteStructureRoot(uint32_t structure_id,
                                     uint32_t root_page) {
  (void)catalog_.SetStructureRoot(structure_id, root_page);
  if (wal_ != nullptr) {
    // Buffered with the split's page redos; durable at the latest with the
    // owning transaction's commit force. (A write-back force that lands
    // exactly between the split pages and this record, followed by a
    // crash before any commit, could still lose the re-point — closing
    // that sliver needs the root inside a logged tree meta page; see
    // ROADMAP "log catalog/DDL operations".)
    wal_->Append(recovery::LogRecord::StructRoot(structure_id, root_page));
  }
}

Status AccessSystem::RecoverStructureRoot(uint32_t structure_id,
                                          uint32_t root_page) {
  const StructureDef* def = catalog_.GetStructure(structure_id);
  if (def == nullptr) return Status::Ok();  // structure post-dates the ckpt
  if (def->root_page == root_page) return Status::Ok();
  PRIMA_RETURN_IF_ERROR(catalog_.SetStructureRoot(structure_id, root_page));
  auto bt = btrees_.find(structure_id);
  if (bt != btrees_.end()) {
    bt->second->SetRoot(root_page);
    return Status::Ok();
  }
  auto g = grids_.find(structure_id);
  if (g != grids_.end()) {
    // The grid caches its scales/directory from the meta page at Open;
    // rebuild it on the recovered meta.
    auto grid = std::make_unique<GridFile>(
        storage_, def->segment, def->attrs.size(), root_page,
        [this, structure_id](uint32_t meta) {
          NoteStructureRoot(structure_id, meta);
        });
    PRIMA_RETURN_IF_ERROR(grid->Open());
    grids_[structure_id] = std::move(grid);
  }
  return Status::Ok();
}

AccessSystem::~AccessSystem() = default;

// ---------------------------------------------------------------------------
// Open / Flush / persistence
// ---------------------------------------------------------------------------

Status AccessSystem::Open() {
  if (!storage_->SegmentExists(kCatalogSegment)) {
    PRIMA_RETURN_IF_ERROR(
        storage_->CreateSegment(kCatalogSegment, PageSize::k8K));
    PRIMA_RETURN_IF_ERROR(
        storage_->CreateSegment(kAddressSegment, PageSize::k8K));
    return Status::Ok();
  }
  PRIMA_ASSIGN_OR_RETURN(const uint32_t cat_pages,
                         storage_->PageCount(kCatalogSegment));
  if (cat_pages > 1) {
    PRIMA_ASSIGN_OR_RETURN(
        std::string blob,
        storage_->ReadSequence(kCatalogSegment, kBlobHeaderPage));
    PRIMA_RETURN_IF_ERROR(catalog_.DecodeFrom(blob));
  }
  PRIMA_ASSIGN_OR_RETURN(const uint32_t addr_pages,
                         storage_->PageCount(kAddressSegment));
  if (addr_pages > 1) {
    PRIMA_ASSIGN_OR_RETURN(
        std::string blob,
        storage_->ReadSequence(kAddressSegment, kBlobHeaderPage));
    PRIMA_RETURN_IF_ERROR(addresses_.DecodeFrom(blob));
  }
  return AttachStructures();
}

Status AccessSystem::AttachStructures() {
  for (const AtomTypeDef* def : catalog_.ListAtomTypes()) {
    auto file = std::make_unique<RecordFile>(storage_, def->base_segment);
    PRIMA_RETURN_IF_ERROR(file->Open());
    base_files_[def->id] = std::move(file);
  }
  for (const StructureDef* def : catalog_.ListStructures()) {
    const uint32_t id = def->id;
    switch (def->kind) {
      case StructureKind::kBTreeAccessPath:
      case StructureKind::kSortOrder:
        btrees_[id] = std::make_unique<BTree>(
            storage_, def->segment, def->root_page,
            [this, id](uint32_t root) { NoteStructureRoot(id, root); });
        break;
      case StructureKind::kGridAccessPath: {
        auto grid = std::make_unique<GridFile>(
            storage_, def->segment, def->attrs.size(), def->root_page,
            [this, id](uint32_t meta) { NoteStructureRoot(id, meta); });
        PRIMA_RETURN_IF_ERROR(grid->Open());
        grids_[id] = std::move(grid);
        break;
      }
      case StructureKind::kPartition: {
        auto file = std::make_unique<RecordFile>(storage_, def->segment);
        PRIMA_RETURN_IF_ERROR(file->Open());
        partition_files_[id] = std::move(file);
        break;
      }
      case StructureKind::kAtomCluster:
        break;  // clusters need no in-memory object
    }
  }
  return Status::Ok();
}

Status AccessSystem::PersistMetadata() {
  const std::string cat = catalog_.Encode();
  PRIMA_ASSIGN_OR_RETURN(const uint32_t cat_pages,
                         storage_->PageCount(kCatalogSegment));
  if (cat_pages <= 1) {
    PRIMA_ASSIGN_OR_RETURN(const uint32_t header,
                           storage_->CreateSequence(kCatalogSegment, cat));
    if (header != kBlobHeaderPage) {
      return Status::Corruption("catalog blob not at expected page");
    }
  } else {
    PRIMA_RETURN_IF_ERROR(
        storage_->RewriteSequence(kCatalogSegment, kBlobHeaderPage, cat));
  }
  const std::string addr = addresses_.Encode();
  PRIMA_ASSIGN_OR_RETURN(const uint32_t addr_pages,
                         storage_->PageCount(kAddressSegment));
  if (addr_pages <= 1) {
    PRIMA_ASSIGN_OR_RETURN(const uint32_t header,
                           storage_->CreateSequence(kAddressSegment, addr));
    if (header != kBlobHeaderPage) {
      return Status::Corruption("address blob not at expected page");
    }
  } else {
    PRIMA_RETURN_IF_ERROR(
        storage_->RewriteSequence(kAddressSegment, kBlobHeaderPage, addr));
  }
  return Status::Ok();
}

Status AccessSystem::Flush() {
  PRIMA_RETURN_IF_ERROR(DrainAll());
  for (auto& [id, grid] : grids_) {
    PRIMA_RETURN_IF_ERROR(grid->Save());
  }
  if (storage_->SegmentExists(kCatalogSegment)) {
    PRIMA_RETURN_IF_ERROR(PersistMetadata());
  }
  return storage_->Flush();
}

Result<SegmentId> AccessSystem::NewSegment(PageSize size) {
  const SegmentId id = std::max<SegmentId>(storage_->NextFreeSegmentId(),
                                           kAddressSegment + 1);
  PRIMA_RETURN_IF_ERROR(storage_->CreateSegment(id, size));
  return id;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<AtomTypeId> AccessSystem::CreateAtomType(
    const std::string& name, std::vector<AttributeDef> attrs,
    const std::vector<std::string>& keys) {
  AtomTypeDef def;
  def.name = name;
  def.attrs = std::move(attrs);
  for (const std::string& key : keys) {
    const AttributeDef* a = nullptr;
    for (const auto& cand : def.attrs) {
      if (cand.name == key) {
        a = &cand;
        break;
      }
    }
    if (a == nullptr) {
      return Status::InvalidArgument("KEYS_ARE names unknown attribute " + key);
    }
    def.key_attrs.push_back(
        static_cast<uint16_t>(a - def.attrs.data()));
  }
  PRIMA_ASSIGN_OR_RETURN(def.base_segment,
                         NewSegment(options_.base_page_size));
  PRIMA_ASSIGN_OR_RETURN(const AtomTypeId id, catalog_.AddAtomType(def));
  auto file = std::make_unique<RecordFile>(storage_, def.base_segment);
  PRIMA_RETURN_IF_ERROR(file->Open());
  base_files_[id] = std::move(file);
  PRIMA_RETURN_IF_ERROR(catalog_.ResolveReferences());
  if (!keys.empty()) {
    // Implicit unique access path enforcing KEYS_ARE.
    PRIMA_ASSIGN_OR_RETURN(
        const uint32_t ignored,
        CreateBTreeAccessPath(name + "_key", name, keys, /*unique=*/true));
    (void)ignored;
  }
  return id;
}

Status AccessSystem::DropAtomType(const std::string& name) {
  const AtomTypeDef* def = catalog_.FindAtomType(name);
  if (def == nullptr) return Status::NotFound("atom type " + name);
  const AtomTypeId id = def->id;
  const SegmentId base_segment = def->base_segment;
  // Drop dependent structures first.
  for (const StructureDef* s : catalog_.StructuresFor(id)) {
    PRIMA_RETURN_IF_ERROR(DropStructure(s->name));
  }
  base_files_.erase(id);
  PRIMA_RETURN_IF_ERROR(storage_->DropSegment(base_segment));
  addresses_.RemoveType(id);
  return catalog_.DropAtomType(id);
}

// ---------------------------------------------------------------------------
// LDL structures
// ---------------------------------------------------------------------------

namespace {
Result<std::vector<uint16_t>> ResolveAttrs(const AtomTypeDef& type,
                                           const std::vector<std::string>& names,
                                           bool require_scalar) {
  std::vector<uint16_t> out;
  for (const auto& n : names) {
    const AttributeDef* a = type.FindAttr(n);
    if (a == nullptr) {
      return Status::InvalidArgument("unknown attribute " + type.name + "." + n);
    }
    if (require_scalar && !a->type.IsScalar()) {
      return Status::InvalidArgument("attribute " + n + " is not scalar");
    }
    out.push_back(a->id);
  }
  return out;
}
}  // namespace

Result<uint32_t> AccessSystem::CreateBTreeAccessPath(
    const std::string& name, const std::string& atom_type,
    const std::vector<std::string>& attrs, bool unique) {
  const AtomTypeDef* type = catalog_.FindAtomType(atom_type);
  if (type == nullptr) return Status::NotFound("atom type " + atom_type);
  StructureDef def;
  def.kind = StructureKind::kBTreeAccessPath;
  def.name = name;
  def.atom_type = type->id;
  PRIMA_ASSIGN_OR_RETURN(def.attrs, ResolveAttrs(*type, attrs, true));
  def.unique = unique;
  PRIMA_ASSIGN_OR_RETURN(def.segment, NewSegment(options_.index_page_size));
  PRIMA_ASSIGN_OR_RETURN(def.root_page, BTree::Create(storage_, def.segment));
  PRIMA_ASSIGN_OR_RETURN(const uint32_t id, catalog_.AddStructure(def));
  btrees_[id] = std::make_unique<BTree>(
      storage_, def.segment, def.root_page,
      [this, id](uint32_t root) { NoteStructureRoot(id, root); });
  const Status st = BackfillStructure(*catalog_.GetStructure(id));
  if (!st.ok()) {
    (void)DropStructure(name);
    return st;
  }
  return id;
}

Result<uint32_t> AccessSystem::CreateGridAccessPath(
    const std::string& name, const std::string& atom_type,
    const std::vector<std::string>& attrs) {
  const AtomTypeDef* type = catalog_.FindAtomType(atom_type);
  if (type == nullptr) return Status::NotFound("atom type " + atom_type);
  StructureDef def;
  def.kind = StructureKind::kGridAccessPath;
  def.name = name;
  def.atom_type = type->id;
  PRIMA_ASSIGN_OR_RETURN(def.attrs, ResolveAttrs(*type, attrs, true));
  PRIMA_ASSIGN_OR_RETURN(def.segment, NewSegment(options_.index_page_size));
  def.root_page = 0;  // grid meta created on first Save
  PRIMA_ASSIGN_OR_RETURN(const uint32_t id, catalog_.AddStructure(def));
  auto grid = std::make_unique<GridFile>(
      storage_, def.segment, def.attrs.size(), 0,
      [this, id](uint32_t meta) { NoteStructureRoot(id, meta); });
  PRIMA_RETURN_IF_ERROR(grid->Open());
  grids_[id] = std::move(grid);
  const Status st = BackfillStructure(*catalog_.GetStructure(id));
  if (!st.ok()) {
    (void)DropStructure(name);
    return st;
  }
  return id;
}

Result<uint32_t> AccessSystem::CreateSortOrder(
    const std::string& name, const std::string& atom_type,
    const std::vector<std::string>& attrs, const std::vector<bool>& asc) {
  const AtomTypeDef* type = catalog_.FindAtomType(atom_type);
  if (type == nullptr) return Status::NotFound("atom type " + atom_type);
  StructureDef def;
  def.kind = StructureKind::kSortOrder;
  def.name = name;
  def.atom_type = type->id;
  PRIMA_ASSIGN_OR_RETURN(def.attrs, ResolveAttrs(*type, attrs, true));
  def.asc = asc.empty() ? std::vector<bool>(def.attrs.size(), true) : asc;
  if (def.asc.size() != def.attrs.size()) {
    return Status::InvalidArgument("asc flags do not match attributes");
  }
  PRIMA_ASSIGN_OR_RETURN(def.segment, NewSegment(options_.index_page_size));
  PRIMA_ASSIGN_OR_RETURN(def.root_page, BTree::Create(storage_, def.segment));
  PRIMA_ASSIGN_OR_RETURN(const uint32_t id, catalog_.AddStructure(def));
  btrees_[id] = std::make_unique<BTree>(
      storage_, def.segment, def.root_page,
      [this, id](uint32_t root) { NoteStructureRoot(id, root); });
  const Status st = BackfillStructure(*catalog_.GetStructure(id));
  if (!st.ok()) {
    (void)DropStructure(name);
    return st;
  }
  return id;
}

Result<uint32_t> AccessSystem::CreatePartition(
    const std::string& name, const std::string& atom_type,
    const std::vector<std::string>& attrs) {
  const AtomTypeDef* type = catalog_.FindAtomType(atom_type);
  if (type == nullptr) return Status::NotFound("atom type " + atom_type);
  StructureDef def;
  def.kind = StructureKind::kPartition;
  def.name = name;
  def.atom_type = type->id;
  PRIMA_ASSIGN_OR_RETURN(def.attrs, ResolveAttrs(*type, attrs, false));
  PRIMA_ASSIGN_OR_RETURN(def.segment,
                         NewSegment(options_.partition_page_size));
  PRIMA_ASSIGN_OR_RETURN(const uint32_t id, catalog_.AddStructure(def));
  auto file = std::make_unique<RecordFile>(storage_, def.segment);
  PRIMA_RETURN_IF_ERROR(file->Open());
  partition_files_[id] = std::move(file);
  const Status st = BackfillStructure(*catalog_.GetStructure(id));
  if (!st.ok()) {
    (void)DropStructure(name);
    return st;
  }
  return id;
}

Result<uint32_t> AccessSystem::CreateAtomClusterType(
    const std::string& name, const std::string& char_type,
    const std::vector<std::string>& ref_attrs) {
  const AtomTypeDef* type = catalog_.FindAtomType(char_type);
  if (type == nullptr) return Status::NotFound("atom type " + char_type);
  StructureDef def;
  def.kind = StructureKind::kAtomCluster;
  def.name = name;
  def.atom_type = type->id;
  for (const auto& n : ref_attrs) {
    const AttributeDef* a = type->FindAttr(n);
    if (a == nullptr) {
      return Status::InvalidArgument("unknown attribute " + char_type + "." + n);
    }
    if (!a->type.IsAssociation()) {
      return Status::InvalidArgument("cluster attribute " + n +
                                     " is not a REFERENCE attribute");
    }
    def.attrs.push_back(a->id);
  }
  PRIMA_ASSIGN_OR_RETURN(def.segment, NewSegment(options_.cluster_page_size));
  PRIMA_ASSIGN_OR_RETURN(const uint32_t id, catalog_.AddStructure(def));
  const Status st = BackfillStructure(*catalog_.GetStructure(id));
  if (!st.ok()) {
    (void)DropStructure(name);
    return st;
  }
  return id;
}

Status AccessSystem::DropStructure(const std::string& name) {
  const StructureDef* def = catalog_.FindStructure(name);
  if (def == nullptr) return Status::NotFound("structure " + name);
  const uint32_t id = def->id;
  const SegmentId segment = def->segment;
  // Purge pending ops addressed to this structure.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [id](const Pending& p) {
                                    return p.structure_id == id;
                                  }),
                   pending_.end());
  }
  // Remove per-atom address entries pointing into the structure.
  addresses_.UnregisterStructure(def->atom_type, id);
  btrees_.erase(id);
  grids_.erase(id);
  partition_files_.erase(id);
  PRIMA_RETURN_IF_ERROR(storage_->DropSegment(segment));
  return catalog_.DropStructure(id);
}

Status AccessSystem::BackfillStructure(const StructureDef& def) {
  for (const Tid& tid : addresses_.AllOfType(def.atom_type)) {
    if (def.kind == StructureKind::kAtomCluster) {
      PRIMA_RETURN_IF_ERROR(MaterializeCluster(def, tid));
      continue;
    }
    PRIMA_ASSIGN_OR_RETURN(Atom atom, ReadBaseAtom(tid));
    switch (def.kind) {
      case StructureKind::kBTreeAccessPath: {
        PRIMA_ASSIGN_OR_RETURN(
            std::string key,
            BuildKey(atom, def.attrs, {}, /*with_tid=*/!def.unique));
        PRIMA_RETURN_IF_ERROR(
            btrees_[def.id]->Insert(key, PackedTidValue(tid)));
        break;
      }
      case StructureKind::kGridAccessPath: {
        PRIMA_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                               EncodeGridKeys(def, atom));
        PRIMA_RETURN_IF_ERROR(grids_[def.id]->Insert(keys, tid));
        break;
      }
      case StructureKind::kSortOrder: {
        PRIMA_ASSIGN_OR_RETURN(std::string key, EncodeSortKey(def, atom));
        std::string image;
        atom.EncodeInto(&image);
        PRIMA_RETURN_IF_ERROR(btrees_[def.id]->Insert(key, image));
        break;
      }
      case StructureKind::kPartition: {
        Atom part = atom;
        std::set<uint16_t> keep(def.attrs.begin(), def.attrs.end());
        const AtomTypeDef* type = catalog_.GetAtomType(def.atom_type);
        keep.insert(type->identifier_attr);
        for (size_t i = 0; i < part.attrs.size(); ++i) {
          if (keep.count(static_cast<uint16_t>(i)) == 0) {
            part.attrs[i] = Value::Null();
          }
        }
        std::string image;
        part.EncodeInto(&image);
        PRIMA_ASSIGN_OR_RETURN(const RecordId rid,
                               partition_files_[def.id]->Insert(image));
        PRIMA_RETURN_IF_ERROR(addresses_.Register(tid, def.id, rid.Pack()));
        break;
      }
      case StructureKind::kAtomCluster:
        break;  // handled above
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Key building
// ---------------------------------------------------------------------------

Result<std::string> AccessSystem::BuildKey(const Atom& atom,
                                           const std::vector<uint16_t>& attrs,
                                           const std::vector<bool>& asc,
                                           bool with_tid) const {
  std::string key;
  for (size_t i = 0; i < attrs.size(); ++i) {
    const size_t start = key.size();
    if (attrs[i] >= atom.attrs.size()) {
      return Status::InvalidArgument("key attribute out of range");
    }
    PRIMA_RETURN_IF_ERROR(atom.attrs[attrs[i]].EncodeKeyInto(&key));
    if (!asc.empty() && !asc[i]) FlipBytes(&key, start);
  }
  if (with_tid) AppendTidKey(&key, atom.tid);
  return key;
}

Result<std::string> AccessSystem::EncodeSortKey(const StructureDef& def,
                                                const Atom& atom) const {
  return BuildKey(atom, def.attrs, def.asc, /*with_tid=*/true);
}

Result<std::vector<std::string>> AccessSystem::EncodeGridKeys(
    const StructureDef& def, const Atom& atom) const {
  std::vector<std::string> keys;
  keys.reserve(def.attrs.size());
  for (uint16_t a : def.attrs) {
    std::string k;
    PRIMA_RETURN_IF_ERROR(atom.attrs[a].EncodeKeyInto(&k));
    keys.push_back(std::move(k));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Base records
// ---------------------------------------------------------------------------

Result<Atom> AccessSystem::DecodeAtom(AtomTypeId type, Slice bytes) const {
  const AtomTypeDef* def = catalog_.GetAtomType(type);
  if (def == nullptr) {
    return Status::NotFound("atom type id " + std::to_string(type));
  }
  return Atom::Decode(&bytes, def->attrs.size());
}

Result<Atom> AccessSystem::ReadBaseAtom(const Tid& tid,
                                        const AtomTypeDef* def) {
  if (def == nullptr) def = catalog_.GetAtomType(tid.type);
  auto it = base_files_.find(tid.type);
  if (def == nullptr || it == base_files_.end()) {
    return Status::NotFound("atom type id " + std::to_string(tid.type));
  }
  PRIMA_ASSIGN_OR_RETURN(const uint64_t rid,
                         addresses_.Lookup(tid, kBaseStructure));
  PRIMA_ASSIGN_OR_RETURN(const PinnedRecord record,
                         it->second->Read(RecordId::Unpack(rid)));
  Slice bytes = record.bytes();
  PRIMA_ASSIGN_OR_RETURN(Atom atom, Atom::Decode(&bytes, def->attrs.size()));
  if (atom.tid != tid) {
    // The slot was freed by a relocation and reused (see GetBaseAtom).
    return Status::NotFound("record " + std::to_string(rid) +
                            " no longer holds atom " + tid.ToString());
  }
  return atom;
}

Status AccessSystem::WriteBaseAtom(const Tid& tid, const Atom& atom,
                                   bool is_new) {
  std::string bytes;
  atom.EncodeInto(&bytes);
  RecordFile* file = base_files_.at(tid.type).get();
  if (is_new) {
    PRIMA_ASSIGN_OR_RETURN(const RecordId rid, file->Insert(bytes));
    return addresses_.Register(tid, kBaseStructure, rid.Pack());
  }
  PRIMA_ASSIGN_OR_RETURN(const uint64_t old_rid,
                         addresses_.Lookup(tid, kBaseStructure));
  PRIMA_ASSIGN_OR_RETURN(const RecordId new_rid,
                         file->Update(RecordId::Unpack(old_rid), bytes));
  if (new_rid.Pack() != old_rid) {
    PRIMA_RETURN_IF_ERROR(
        addresses_.UpdateEntry(tid, kBaseStructure, new_rid.Pack()));
  }
  return Status::Ok();
}

void AccessSystem::InstallVersion(const WriteTxn& txn, const Tid& tid,
                                  const Atom* before) {
  // Id 0 is a system write with no transaction to stamp — those publish
  // immediately and never need a chain. The Raw* compensation ops bypass
  // this function entirely, on purpose: rollback restores exactly the
  // before-images the chain already carries.
  if (txn.id != 0) versions_.Install(txn.id, tid, before);
}

// ---------------------------------------------------------------------------
// Referential integrity (back-reference maintenance)
// ---------------------------------------------------------------------------

Status AccessSystem::AddBackRef(const Tid& atom_tid, uint16_t attr,
                                const Tid& target, const WriteTxn& txn) {
  const AtomTypeDef* def = catalog_.GetAtomType(atom_tid.type);
  if (def == nullptr || attr >= def->attrs.size()) {
    return Status::Corruption("back-reference attribute missing");
  }
  PRIMA_ASSIGN_OR_RETURN(Atom atom, ReadBaseAtom(atom_tid, def));
  const Atom old_atom = atom;
  const TypeDesc& t = def->attrs[attr].type;
  Value& v = atom.attrs[attr];
  if (t.kind == TypeKind::kReference) {
    if (!v.is_null() && !v.AsTid().IsNull() && v.AsTid() != target) {
      return Status::Constraint(
          def->name + "." + def->attrs[attr].name +
          " already references another atom (cardinality 1 exceeded)");
    }
    v = Value::Ref(target);
  } else {
    if (v.is_null()) v = Value::EmptyList();
    if (!v.Contains(Value::Ref(target))) {
      v.mutable_elems()->push_back(Value::Ref(target));
    }
    if (!t.card.var_max && t.card.max != 0 &&
        v.elems().size() > t.card.max) {
      return Status::Constraint(def->name + "." + def->attrs[attr].name +
                                " exceeds max cardinality");
    }
  }
  InstallVersion(txn, atom_tid, &old_atom);
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(atom_tid, atom, /*is_new=*/false));
  stats_.backref_maintenance++;
  LogAtomOp(txn, UndoRecord::Kind::kModify, atom_tid, &old_atom,
            /*clr=*/false);
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &old_atom, &atom, atom_tid));
  return EnqueueClusterMaintenance(*def, &old_atom, &atom, atom_tid);
}

Status AccessSystem::RemoveBackRef(const Tid& atom_tid, uint16_t attr,
                                   const Tid& target, const WriteTxn& txn) {
  const AtomTypeDef* def = catalog_.GetAtomType(atom_tid.type);
  if (def == nullptr || attr >= def->attrs.size()) {
    return Status::Corruption("back-reference attribute missing");
  }
  auto atom_or = ReadBaseAtom(atom_tid, def);
  if (!atom_or.ok()) {
    // Target already gone (e.g. bulk delete); nothing to unhook.
    return atom_or.status().IsNotFound() ? Status::Ok() : atom_or.status();
  }
  Atom atom = std::move(atom_or).value();
  const Atom old_atom = atom;
  const TypeDesc& t = def->attrs[attr].type;
  Value& v = atom.attrs[attr];
  if (t.kind == TypeKind::kReference) {
    if (!v.is_null() && v.AsTid() == target) v = Value::Null();
  } else if (v.kind() == Value::Kind::kList) {
    auto* elems = v.mutable_elems();
    elems->erase(std::remove_if(elems->begin(), elems->end(),
                                [&](const Value& e) {
                                  return e.kind() == Value::Kind::kTid &&
                                         e.AsTid() == target;
                                }),
                 elems->end());
  }
  InstallVersion(txn, atom_tid, &old_atom);
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(atom_tid, atom, /*is_new=*/false));
  stats_.backref_maintenance++;
  LogAtomOp(txn, UndoRecord::Kind::kModify, atom_tid, &old_atom,
            /*clr=*/false);
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &old_atom, &atom, atom_tid));
  return EnqueueClusterMaintenance(*def, &old_atom, &atom, atom_tid);
}

namespace {
/// Tids referenced by an association attribute value.
std::vector<Tid> RefTargets(const Value& v) {
  std::vector<Tid> out;
  if (v.kind() == Value::Kind::kTid) {
    if (!v.AsTid().IsNull()) out.push_back(v.AsTid());
  } else if (v.kind() == Value::Kind::kList) {
    for (const auto& e : v.elems()) {
      if (e.kind() == Value::Kind::kTid && !e.AsTid().IsNull()) {
        out.push_back(e.AsTid());
      }
    }
  }
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Atom operations
// ---------------------------------------------------------------------------

Result<Tid> AccessSystem::InsertAtom(AtomTypeId type,
                                     std::vector<AttrValue> values,
                                     WriteTxn txn) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(type);
  if (def == nullptr) {
    return Status::NotFound("atom type id " + std::to_string(type));
  }
  Atom atom;
  atom.attrs.assign(def->attrs.size(), Value::Null());
  for (auto& av : values) {
    if (av.attr >= def->attrs.size()) {
      return Status::InvalidArgument("attribute id out of range");
    }
    const AttributeDef& attr = def->attrs[av.attr];
    if (attr.type.kind == TypeKind::kIdentifier) {
      return Status::InvalidArgument(
          "IDENTIFIER is system-assigned and cannot be supplied");
    }
    // Numeric coercion: INTEGER literal into REAL attribute.
    if (attr.type.kind == TypeKind::kReal &&
        av.value.kind() == Value::Kind::kInt) {
      av.value = Value::Real(static_cast<double>(av.value.AsInt()));
    }
    if (attr.type.IsAssociation() &&
        attr.type.ReferenceDesc()->ref_type_id == 0) {
      PRIMA_RETURN_IF_ERROR(catalog_.ResolveReferences());
      if (attr.type.IsAssociation() &&
          def->attrs[av.attr].type.ReferenceDesc()->ref_type_id == 0 &&
          !av.value.is_null()) {
        return Status::Constraint("association " + def->name + "." +
                                  attr.name + " references undeclared type");
      }
    }
    PRIMA_RETURN_IF_ERROR(TypeCheckValue(av.value, attr.type));
    if (!attr.type.card.var_max && attr.type.card.max != 0 &&
        av.value.kind() == Value::Kind::kList &&
        av.value.elems().size() > attr.type.card.max) {
      return Status::Constraint("attribute " + attr.name +
                                " exceeds max cardinality");
    }
    atom.attrs[av.attr] = std::move(av.value);
  }

  const Tid tid = addresses_.NewTid(type);
  atom.tid = tid;
  atom.attrs[def->identifier_attr] = Value::Ref(tid);

  // Uniqueness via every unique access path (the implicit KEYS_ARE index
  // and LDL-created UNIQUE paths), checked before any physical write so a
  // rejected insert leaves no partial state.
  for (const StructureDef* s : catalog_.StructuresFor(type)) {
    if (s->kind != StructureKind::kBTreeAccessPath || !s->unique) continue;
    PRIMA_ASSIGN_OR_RETURN(std::string key, BuildKey(atom, s->attrs, {}, false));
    PRIMA_ASSIGN_OR_RETURN(auto existing, btrees_[s->id]->Get(key));
    if (existing.has_value()) {
      return Status::Constraint("duplicate value for unique access path " +
                                s->name);
    }
  }

  // Referential integrity: every referenced atom gets its back-reference.
  std::vector<std::pair<Tid, uint16_t>> installed;  // target, back-attr (undo)
  for (size_t i = 0; i < atom.attrs.size(); ++i) {
    const AttributeDef& attr = def->attrs[i];
    if (!attr.type.IsAssociation()) continue;
    if (static_cast<uint16_t>(i) == def->identifier_attr) continue;
    const TypeDesc* ref = attr.type.ReferenceDesc();
    for (const Tid& target : RefTargets(atom.attrs[i])) {
      if (!addresses_.Exists(target)) {
        for (const auto& [t, a] : installed) {
          (void)RemoveBackRef(t, a, tid, txn);
        }
        return Status::Constraint("referenced atom " + target.ToString() +
                                  " does not exist");
      }
      const Status st = AddBackRef(target, ref->ref_attr_id, tid, txn);
      if (!st.ok()) {
        for (const auto& [t, a] : installed) {
          (void)RemoveBackRef(t, a, tid, txn);
        }
        return st;
      }
      installed.push_back({target, ref->ref_attr_id});
    }
  }

  InstallVersion(txn, tid, /*before=*/nullptr);
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(tid, atom, /*is_new=*/true));
  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, nullptr, &atom, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, nullptr, &atom, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueClusterMaintenance(*def, nullptr, &atom, tid));
  stats_.atoms_inserted++;
  LogAtomOp(txn, UndoRecord::Kind::kInsert, tid, nullptr, /*clr=*/false);
  return tid;
}

Result<Atom> AccessSystem::GetBaseAtom(const Tid& tid,
                                       const AtomTypeDef* def) {
  stats_.atoms_read++;
  Result<Atom> base = ReadBaseAtom(tid, def);
  if (base.status().IsNotFound() && addresses_.Exists(tid)) {
    // A write that relocates a grown record frees the old slot before it
    // re-points the address table, so a read that looked the address up in
    // between finds the slot dead or reused. Wait out the write (writes
    // hold write_mu_; readers never do) and look again.
    { std::lock_guard<std::mutex> settled(write_mu_); }
    base = ReadBaseAtom(tid, def);
  }
  return base;
}

namespace {
/// Null every attribute outside `projection` (and the IDENTIFIER).
void ProjectAtom(const std::vector<uint16_t>& projection,
                 uint16_t identifier_attr, Atom* atom) {
  if (projection.empty()) return;
  for (size_t i = 0; i < atom->attrs.size(); ++i) {
    const auto a = static_cast<uint16_t>(i);
    if (a != identifier_attr &&
        std::find(projection.begin(), projection.end(), a) ==
            projection.end()) {
      atom->attrs[i] = Value::Null();
    }
  }
}

/// One distinct atom of a GetAtoms call and what reading it found.
struct Fetch {
  explicit Fetch(const Tid& t) : tid(t) {}
  Tid tid;
  const AtomTypeDef* def = nullptr;  ///< null: unknown type
  RecordFile* file = nullptr;        ///< the type's base file
  RecordId rid;                      ///< base rid, when read by page
  bool from_partition = false;
  util::Status status;  ///< of reading the current record
  Atom current;
};

/// `tids` without repeats, each kept where it first occurs.
std::vector<Fetch> DistinctFetches(const std::vector<Tid>& tids) {
  std::vector<Fetch> fetches;
  fetches.reserve(tids.size());
  if (tids.size() == 1) {
    fetches.emplace_back(tids[0]);
    return fetches;
  }
  // Sorting (packed tid, position) puts each repeat right after the first
  // occurrence of its tid.
  std::vector<std::pair<uint64_t, uint32_t>> order(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    order[i] = {tids[i].Pack(), static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end());
  std::vector<bool> repeat(tids.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    if (order[i].first == order[i - 1].first) repeat[order[i].second] = true;
  }
  for (size_t i = 0; i < tids.size(); ++i) {
    if (!repeat[i]) fetches.emplace_back(tids[i]);
  }
  return fetches;
}
}  // namespace

Result<std::optional<Atom>> AccessSystem::ReadPartitionCopy(
    const Tid& tid, const AtomTypeDef& def,
    const std::vector<uint16_t>& projection) {
  if (projection.empty()) return std::optional<Atom>();
  for (const StructureDef* s : catalog_.StructuresFor(tid.type)) {
    if (s->kind != StructureKind::kPartition) continue;
    std::set<uint16_t> have(s->attrs.begin(), s->attrs.end());
    have.insert(def.identifier_attr);
    bool covers = true;
    for (uint16_t p : projection) {
      if (have.count(p) == 0) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    PRIMA_RETURN_IF_ERROR(DrainStructure(s->id));
    auto rid_or = addresses_.Lookup(tid, s->id);
    if (!rid_or.ok()) continue;
    auto record_or = partition_files_[s->id]->Read(RecordId::Unpack(*rid_or));
    if (!record_or.ok()) continue;
    Slice bytes = record_or->bytes();
    PRIMA_ASSIGN_OR_RETURN(Atom atom, Atom::Decode(&bytes, def.attrs.size()));
    return std::optional<Atom>(std::move(atom));
  }
  return std::optional<Atom>();
}

Status AccessSystem::GetAtoms(const std::vector<Tid>& tids,
                              const ReadView& view, std::vector<Atom>* out,
                              const std::vector<uint16_t>& projection,
                              Status* missing) {
  const auto miss = [&](const auto& make_status) {
    if (missing != nullptr && missing->ok()) *missing = make_status();
  };
  std::vector<Fetch> fetches = DistinctFetches(tids);

  // 1. Where each atom lives: a partition copy covering the projection, a
  //    short base record (read by page below), or neither (read alone).
  std::vector<size_t> by_page;
  std::vector<size_t> alone;
  AtomTypeId type = 0;
  const AtomTypeDef* def = nullptr;
  RecordFile* file = nullptr;
  for (size_t i = 0; i < fetches.size(); ++i) {
    Fetch& f = fetches[i];
    if (i == 0 || f.tid.type != type) {
      type = f.tid.type;
      def = catalog_.GetAtomType(type);
      const auto it = base_files_.find(type);
      file = it == base_files_.end() ? nullptr : it->second.get();
    }
    f.def = def;
    f.file = file;
    if (def == nullptr) continue;
    if (!projection.empty()) {
      PRIMA_ASSIGN_OR_RETURN(std::optional<Atom> copy,
                             ReadPartitionCopy(f.tid, *def, projection));
      if (copy.has_value()) {
        f.current = std::move(*copy);
        f.from_partition = true;
        stats_.atoms_read++;
        continue;
      }
    }
    if (file != nullptr) {
      const Result<uint64_t> rid = addresses_.Lookup(f.tid, kBaseStructure);
      if (rid.ok() && !RecordId::Unpack(*rid).IsLong()) {
        f.rid = RecordId::Unpack(*rid);
        by_page.push_back(i);
        continue;
      }
    }
    alone.push_back(i);
  }

  // 2. Fix each page once and decode every wanted slot on it. A slot that
  //    is dead, or holds another atom, was freed by a relocating write
  //    between the address lookup and the fix: that atom is read alone.
  std::sort(by_page.begin(), by_page.end(), [&](size_t a, size_t b) {
    const Fetch& x = fetches[a];
    const Fetch& y = fetches[b];
    return std::tie(x.tid.type, x.rid.page, x.rid.slot) <
           std::tie(y.tid.type, y.rid.page, y.rid.slot);
  });
  for (size_t b = 0; b < by_page.size();) {
    const Fetch& first = fetches[by_page[b]];
    const Result<storage::PageGuard> page =
        first.file->FixForRead(first.rid.page);
    for (; b < by_page.size(); ++b) {
      Fetch& f = fetches[by_page[b]];
      if (f.tid.type != first.tid.type || f.rid.page != first.rid.page) break;
      Result<Slice> bytes =
          page.ok() ? f.file->SlotBytes(*page, f.rid.slot) : page.status();
      Result<Atom> atom = bytes.ok()
                              ? Atom::Decode(&*bytes, f.def->attrs.size())
                              : Result<Atom>(bytes.status());
      if (!bytes.ok() || (atom.ok() && atom->tid != f.tid)) {
        alone.push_back(by_page[b]);
        continue;
      }
      stats_.atoms_read++;
      f.status = atom.status();
      if (atom.ok()) f.current = std::move(atom).value();
    }
  }

  // 3. The rest go through the one-record read, which waits out a
  //    relocating write.
  stats_.fetch_fallbacks += alone.size();
  for (size_t i : alone) {
    Fetch& f = fetches[i];
    Result<Atom> base = GetBaseAtom(f.tid, f.def);
    f.status = base.status();
    if (base.ok()) f.current = std::move(base).value();
  }

  // 4. Resolve each atom against the view, in reference order. Every record
  //    was read above, before its chain is consulted here: writers install
  //    the chain entry before the base record (and, after it, the partition
  //    copy) changes, and an abort publishes its entries only after
  //    restoring the base, so a reader that saw a too-new or aborted value
  //    is guaranteed to find the entry that rescues the old one. The
  //    reverse order would race.
  for (Fetch& f : fetches) {
    if (f.def == nullptr) {
      miss([&] {
        return Status::NotFound("atom type id " + std::to_string(f.tid.type));
      });
      continue;
    }
    VersionStore::Resolution res = versions_.Resolve(f.tid, view);
    if (res.outcome == VersionStore::Outcome::kInvisible) {
      miss([&] {
        return Status::NotFound("atom " + f.tid.ToString() +
                                " is not visible in this snapshot");
      });
      continue;
    }
    if (res.outcome == VersionStore::Outcome::kCurrent) {
      if (!f.status.ok()) {
        if (!f.status.IsNotFound()) return f.status;
        miss([&] { return f.status; });
        continue;
      }
      if (f.from_partition) {
        stats_.partition_reads++;
        out->push_back(std::move(f.current));
        continue;
      }
    }
    out->push_back(res.outcome == VersionStore::Outcome::kBefore
                       ? std::move(*res.before)  // rescues deleted atoms too
                       : std::move(f.current));
    ProjectAtom(projection, f.def->identifier_attr, &out->back());
  }
  return Status::Ok();
}

Result<Atom> AccessSystem::GetAtom(const Tid& tid, const ReadView& view,
                                   const std::vector<uint16_t>& projection) {
  std::vector<Atom> out;
  Status missing;
  PRIMA_RETURN_IF_ERROR(GetAtoms({tid}, view, &out, projection, &missing));
  if (out.empty()) return missing;
  return std::move(out[0]);
}

Result<Atom> AccessSystem::GetAtom(const Tid& tid,
                                   const std::vector<uint16_t>& projection) {
  const std::shared_ptr<VersionStore::Pin> pin = versions_.OpenSnapshot(0);
  return GetAtom(tid, pin->view(), projection);
}

Status AccessSystem::ModifyAtom(const Tid& tid, std::vector<AttrValue> changes,
                                WriteTxn txn) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(tid.type);
  if (def == nullptr) {
    return Status::NotFound("atom type id " + std::to_string(tid.type));
  }
  PRIMA_ASSIGN_OR_RETURN(const Atom old_atom, ReadBaseAtom(tid, def));
  Atom atom = old_atom;
  std::set<uint16_t> changed;
  for (auto& av : changes) {
    if (av.attr >= def->attrs.size()) {
      return Status::InvalidArgument("attribute id out of range");
    }
    const AttributeDef& attr = def->attrs[av.attr];
    if (attr.type.kind == TypeKind::kIdentifier) {
      return Status::InvalidArgument("the IDENTIFIER attribute is immutable");
    }
    if (attr.type.kind == TypeKind::kReal &&
        av.value.kind() == Value::Kind::kInt) {
      av.value = Value::Real(static_cast<double>(av.value.AsInt()));
    }
    PRIMA_RETURN_IF_ERROR(TypeCheckValue(av.value, attr.type));
    if (!attr.type.card.var_max && attr.type.card.max != 0 &&
        av.value.kind() == Value::Kind::kList &&
        av.value.elems().size() > attr.type.card.max) {
      return Status::Constraint("attribute " + attr.name +
                                " exceeds max cardinality");
    }
    atom.attrs[av.attr] = std::move(av.value);
    changed.insert(av.attr);
  }

  // Unique-path changes: enforce uniqueness on every affected unique access
  // path before any physical write.
  for (const StructureDef* s : catalog_.StructuresFor(tid.type)) {
    if (s->kind != StructureKind::kBTreeAccessPath || !s->unique) continue;
    bool touched = false;
    for (uint16_t a : s->attrs) {
      if (changed.count(a) != 0 && !old_atom.attrs[a].Equals(atom.attrs[a])) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    PRIMA_ASSIGN_OR_RETURN(std::string key, BuildKey(atom, s->attrs, {}, false));
    PRIMA_ASSIGN_OR_RETURN(auto existing, btrees_[s->id]->Get(key));
    if (existing.has_value()) {
      return Status::Constraint("duplicate value for unique access path " +
                                s->name);
    }
  }

  // Association diffs -> implicit back-reference updates.
  for (uint16_t a : changed) {
    const AttributeDef& attr = def->attrs[a];
    if (!attr.type.IsAssociation()) continue;
    const TypeDesc* ref = attr.type.ReferenceDesc();
    const std::vector<Tid> old_targets = RefTargets(old_atom.attrs[a]);
    const std::vector<Tid> new_targets = RefTargets(atom.attrs[a]);
    for (const Tid& t : old_targets) {
      if (std::find(new_targets.begin(), new_targets.end(), t) ==
          new_targets.end()) {
        PRIMA_RETURN_IF_ERROR(RemoveBackRef(t, ref->ref_attr_id, tid, txn));
      }
    }
    for (const Tid& t : new_targets) {
      if (std::find(old_targets.begin(), old_targets.end(), t) ==
          old_targets.end()) {
        if (!addresses_.Exists(t)) {
          return Status::Constraint("referenced atom " + t.ToString() +
                                    " does not exist");
        }
        PRIMA_RETURN_IF_ERROR(AddBackRef(t, ref->ref_attr_id, tid, txn));
      }
    }
  }

  InstallVersion(txn, tid, &old_atom);
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(tid, atom, /*is_new=*/false));
  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, &old_atom, &atom, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &old_atom, &atom, tid));
  PRIMA_RETURN_IF_ERROR(
      EnqueueClusterMaintenance(*def, &old_atom, &atom, tid));
  stats_.atoms_modified++;
  LogAtomOp(txn, UndoRecord::Kind::kModify, tid, &old_atom, /*clr=*/false);
  return Status::Ok();
}

Status AccessSystem::DeleteAtom(const Tid& tid, WriteTxn txn) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(tid.type);
  if (def == nullptr) {
    return Status::NotFound("atom type id " + std::to_string(tid.type));
  }
  PRIMA_ASSIGN_OR_RETURN(const Atom atom, ReadBaseAtom(tid, def));
  // Install at the TOP — before the index entries go, so a snapshot scan's
  // ghost pass can still find this atom by its chain after the delete.
  InstallVersion(txn, tid, &atom);

  // Disconnect every association (symmetry: all relationships touching this
  // atom appear in its own attributes, forward or back).
  for (size_t i = 0; i < atom.attrs.size(); ++i) {
    const AttributeDef& attr = def->attrs[i];
    if (!attr.type.IsAssociation()) continue;
    const TypeDesc* ref = attr.type.ReferenceDesc();
    for (const Tid& target : RefTargets(atom.attrs[i])) {
      PRIMA_RETURN_IF_ERROR(RemoveBackRef(target, ref->ref_attr_id, tid, txn));
    }
  }

  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, &atom, nullptr, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &atom, nullptr, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueClusterMaintenance(*def, &atom, nullptr, tid));

  PRIMA_ASSIGN_OR_RETURN(const uint64_t rid,
                         addresses_.Lookup(tid, kBaseStructure));
  PRIMA_RETURN_IF_ERROR(
      base_files_.at(tid.type)->Delete(RecordId::Unpack(rid)));
  PRIMA_RETURN_IF_ERROR(addresses_.Remove(tid));
  stats_.atoms_deleted++;
  // At this point every association has been disconnected (and logged);
  // the before image recorded here restores the record + redundancy, and
  // the logged back-reference writes restore symmetry.
  LogAtomOp(txn, UndoRecord::Kind::kDelete, tid, &atom, /*clr=*/false);
  return Status::Ok();
}

Status AccessSystem::Connect(const Tid& from, uint16_t attr, const Tid& to,
                             WriteTxn txn) {
  const AtomTypeDef* def = catalog_.GetAtomType(from.type);
  if (def == nullptr || attr >= def->attrs.size()) {
    return Status::InvalidArgument("unknown attribute");
  }
  const TypeDesc& t = def->attrs[attr].type;
  if (!t.IsAssociation()) {
    return Status::InvalidArgument("attribute is not an association");
  }
  PRIMA_ASSIGN_OR_RETURN(Atom atom, GetBaseAtom(from, def));
  Value v = atom.attrs[attr];
  if (t.kind == TypeKind::kReference) {
    v = Value::Ref(to);
  } else {
    if (v.is_null()) v = Value::EmptyList();
    if (v.Contains(Value::Ref(to))) return Status::Ok();
    v.mutable_elems()->push_back(Value::Ref(to));
  }
  return ModifyAtom(from, {AttrValue{attr, std::move(v)}}, txn);
}

Status AccessSystem::Disconnect(const Tid& from, uint16_t attr, const Tid& to,
                                WriteTxn txn) {
  const AtomTypeDef* def = catalog_.GetAtomType(from.type);
  if (def == nullptr || attr >= def->attrs.size()) {
    return Status::InvalidArgument("unknown attribute");
  }
  const TypeDesc& t = def->attrs[attr].type;
  if (!t.IsAssociation()) {
    return Status::InvalidArgument("attribute is not an association");
  }
  PRIMA_ASSIGN_OR_RETURN(Atom atom, GetBaseAtom(from, def));
  Value v = atom.attrs[attr];
  if (t.kind == TypeKind::kReference) {
    if (v.is_null() || v.AsTid() != to) {
      return Status::NotFound("association not present");
    }
    v = Value::Null();
  } else {
    if (!v.Contains(Value::Ref(to))) {
      return Status::NotFound("association not present");
    }
    auto* elems = v.mutable_elems();
    elems->erase(std::remove_if(elems->begin(), elems->end(),
                                [&](const Value& e) {
                                  return e.kind() == Value::Kind::kTid &&
                                         e.AsTid() == to;
                                }),
                 elems->end());
  }
  return ModifyAtom(from, {AttrValue{attr, std::move(v)}}, txn);
}

Status AccessSystem::CheckIntegrity(const Tid& tid) {
  const AtomTypeDef* def = catalog_.GetAtomType(tid.type);
  if (def == nullptr) return Status::NotFound("atom type");
  PRIMA_ASSIGN_OR_RETURN(const Atom atom, ReadBaseAtom(tid, def));
  for (size_t i = 0; i < def->attrs.size(); ++i) {
    PRIMA_RETURN_IF_ERROR(CheckCardinality(atom.attrs[i], def->attrs[i].type,
                                           def->name + "." + def->attrs[i].name));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Access path maintenance (immediate) and redundancy (deferred)
// ---------------------------------------------------------------------------

Status AccessSystem::MaintainAccessPaths(const AtomTypeDef& def,
                                         const Atom* old_atom,
                                         const Atom* new_atom, const Tid& tid) {
  for (const StructureDef* s : catalog_.StructuresFor(def.id)) {
    if (s->kind == StructureKind::kBTreeAccessPath) {
      std::string old_key, new_key;
      if (old_atom != nullptr) {
        PRIMA_ASSIGN_OR_RETURN(old_key,
                               BuildKey(*old_atom, s->attrs, {}, !s->unique));
      }
      if (new_atom != nullptr) {
        PRIMA_ASSIGN_OR_RETURN(new_key,
                               BuildKey(*new_atom, s->attrs, {}, !s->unique));
      }
      if (old_atom != nullptr && new_atom != nullptr && old_key == new_key) {
        continue;
      }
      if (old_atom != nullptr) {
        const Status st = btrees_[s->id]->Delete(old_key);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      if (new_atom != nullptr) {
        PRIMA_RETURN_IF_ERROR(
            btrees_[s->id]->Insert(new_key, PackedTidValue(tid)));
      }
    } else if (s->kind == StructureKind::kGridAccessPath) {
      std::vector<std::string> old_keys, new_keys;
      if (old_atom != nullptr) {
        PRIMA_ASSIGN_OR_RETURN(old_keys, EncodeGridKeys(*s, *old_atom));
      }
      if (new_atom != nullptr) {
        PRIMA_ASSIGN_OR_RETURN(new_keys, EncodeGridKeys(*s, *new_atom));
      }
      if (old_atom != nullptr && new_atom != nullptr && old_keys == new_keys) {
        continue;
      }
      if (old_atom != nullptr) {
        const Status st = grids_[s->id]->Delete(old_keys, tid);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      if (new_atom != nullptr) {
        PRIMA_RETURN_IF_ERROR(grids_[s->id]->Insert(new_keys, tid));
      }
    }
  }
  return Status::Ok();
}

void AccessSystem::EnqueuePending(Pending p) {
  stats_.deferred_enqueued++;
  if (!options_.defer_updates) {
    (void)ApplyPending(p);
    return;
  }
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(std::move(p));
}

Status AccessSystem::EnqueueRedundancy(const AtomTypeDef& def,
                                       const Atom* old_atom,
                                       const Atom* new_atom, const Tid& tid) {
  for (const StructureDef* s : catalog_.StructuresFor(def.id)) {
    if (s->kind == StructureKind::kSortOrder) {
      if (new_atom != nullptr) {
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kUpsert;
        p.tid = tid;
        if (old_atom != nullptr) {
          PRIMA_ASSIGN_OR_RETURN(p.aux, EncodeSortKey(*s, *old_atom));
        }
        EnqueuePending(std::move(p));
      } else {
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kRemove;
        p.tid = tid;
        PRIMA_ASSIGN_OR_RETURN(p.aux, EncodeSortKey(*s, *old_atom));
        EnqueuePending(std::move(p));
      }
    } else if (s->kind == StructureKind::kPartition) {
      if (new_atom != nullptr) {
        // Skip when no stored attribute changed.
        if (old_atom != nullptr) {
          bool touched = false;
          for (uint16_t a : s->attrs) {
            if (!old_atom->attrs[a].Equals(new_atom->attrs[a])) {
              touched = true;
              break;
            }
          }
          if (!touched) continue;
        }
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kUpsert;
        p.tid = tid;
        EnqueuePending(std::move(p));
      } else {
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kRemove;
        p.tid = tid;
        auto rid_or = addresses_.Lookup(tid, s->id);
        if (rid_or.ok()) util::PutFixed64(&p.aux, *rid_or);
        EnqueuePending(std::move(p));
      }
    }
  }
  return Status::Ok();
}

Status AccessSystem::EnqueueClusterMaintenance(const AtomTypeDef& def,
                                               const Atom* old_atom,
                                               const Atom* new_atom,
                                               const Tid& tid) {
  for (const StructureDef* s : catalog_.ListStructures()) {
    if (s->kind != StructureKind::kAtomCluster) continue;
    if (s->atom_type == def.id) {
      // This atom is a characteristic atom of the cluster type.
      if (new_atom != nullptr) {
        // Rebuild only when a clustered reference attribute changed.
        if (old_atom != nullptr) {
          bool touched = false;
          for (uint16_t a : s->attrs) {
            if (!old_atom->attrs[a].Equals(new_atom->attrs[a])) {
              touched = true;
              break;
            }
          }
          if (!touched) continue;
        }
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kClusterRebuild;
        p.tid = tid;
        EnqueuePending(std::move(p));
      } else {
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kClusterRemove;
        p.tid = tid;
        auto rid_or = addresses_.Lookup(tid, s->id);
        if (rid_or.ok()) util::PutFixed64(&p.aux, *rid_or);
        EnqueuePending(std::move(p));
      }
      continue;
    }
    // Member maintenance: a clustered char atom references this atom iff one
    // of this atom's back-reference attrs mirrors a clustered ref attr.
    const AtomTypeDef* char_def = catalog_.GetAtomType(s->atom_type);
    if (char_def == nullptr) continue;
    for (uint16_t ca : s->attrs) {
      const TypeDesc* ref = char_def->attrs[ca].type.ReferenceDesc();
      if (ref == nullptr || ref->ref_type_id != def.id) continue;
      const uint16_t back_attr = ref->ref_attr_id;
      std::set<uint64_t> owners;
      if (old_atom != nullptr) {
        for (const Tid& t : RefTargets(old_atom->attrs[back_attr])) {
          owners.insert(t.Pack());
        }
      }
      if (new_atom != nullptr) {
        for (const Tid& t : RefTargets(new_atom->attrs[back_attr])) {
          owners.insert(t.Pack());
        }
      }
      for (uint64_t packed : owners) {
        Pending p;
        p.structure_id = s->id;
        p.kind = Pending::Kind::kClusterRebuild;
        p.tid = Tid::Unpack(packed);
        EnqueuePending(std::move(p));
      }
    }
  }
  (void)tid;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Deferred update application
// ---------------------------------------------------------------------------

Status AccessSystem::ApplyPending(const Pending& p) {
  stats_.deferred_applied++;
  const StructureDef* s = catalog_.GetStructure(p.structure_id);
  if (s == nullptr) return Status::Ok();  // structure dropped meanwhile
  switch (p.kind) {
    case Pending::Kind::kUpsert: {
      auto atom_or = ReadBaseAtom(p.tid);
      if (!atom_or.ok()) {
        return atom_or.status().IsNotFound() ? Status::Ok() : atom_or.status();
      }
      const Atom& atom = *atom_or;
      if (s->kind == StructureKind::kSortOrder) {
        PRIMA_ASSIGN_OR_RETURN(std::string key, EncodeSortKey(*s, atom));
        if (!p.aux.empty() && p.aux != key) {
          const Status st = btrees_[s->id]->Delete(p.aux);
          if (!st.ok() && !st.IsNotFound()) return st;
        }
        std::string image;
        atom.EncodeInto(&image);
        return btrees_[s->id]->Put(key, image);
      }
      if (s->kind == StructureKind::kPartition) {
        Atom part = atom;
        std::set<uint16_t> keep(s->attrs.begin(), s->attrs.end());
        const AtomTypeDef* type = catalog_.GetAtomType(s->atom_type);
        keep.insert(type->identifier_attr);
        for (size_t i = 0; i < part.attrs.size(); ++i) {
          if (keep.count(static_cast<uint16_t>(i)) == 0) {
            part.attrs[i] = Value::Null();
          }
        }
        std::string image;
        part.EncodeInto(&image);
        auto rid_or = addresses_.Lookup(p.tid, s->id);
        if (rid_or.ok()) {
          PRIMA_ASSIGN_OR_RETURN(
              const RecordId new_rid,
              partition_files_[s->id]->Update(RecordId::Unpack(*rid_or),
                                              image));
          if (new_rid.Pack() != *rid_or) {
            PRIMA_RETURN_IF_ERROR(
                addresses_.UpdateEntry(p.tid, s->id, new_rid.Pack()));
          }
          return Status::Ok();
        }
        PRIMA_ASSIGN_OR_RETURN(const RecordId rid,
                               partition_files_[s->id]->Insert(image));
        return addresses_.Register(p.tid, s->id, rid.Pack());
      }
      return Status::Ok();
    }
    case Pending::Kind::kRemove: {
      if (s->kind == StructureKind::kSortOrder) {
        const Status st = btrees_[s->id]->Delete(p.aux);
        return st.IsNotFound() ? Status::Ok() : st;
      }
      if (s->kind == StructureKind::kPartition) {
        if (p.aux.size() != 8) return Status::Ok();  // never materialized
        Slice aux(p.aux);
        uint64_t rid = 0;
        util::GetFixed64(&aux, &rid);
        const Status st = partition_files_[s->id]->Delete(RecordId::Unpack(rid));
        return st.IsNotFound() ? Status::Ok() : st;
      }
      return Status::Ok();
    }
    case Pending::Kind::kClusterRebuild: {
      if (!addresses_.Exists(p.tid)) return Status::Ok();  // deleted later
      return MaterializeCluster(*s, p.tid);
    }
    case Pending::Kind::kClusterRemove: {
      if (p.aux.size() != 8) return Status::Ok();
      Slice aux(p.aux);
      uint64_t header = 0;
      util::GetFixed64(&aux, &header);
      const Status st =
          storage_->DropSequence(s->segment, static_cast<uint32_t>(header));
      return st.IsNotFound() ? Status::Ok() : st;
    }
  }
  return Status::Ok();
}

Status AccessSystem::DrainStructure(uint32_t structure_id) {
  std::vector<Pending> todo;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->structure_id == structure_id) {
        todo.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const Pending& p : todo) {
    PRIMA_RETURN_IF_ERROR(ApplyPending(p));
  }
  return Status::Ok();
}

Status AccessSystem::DrainAll() {
  std::deque<Pending> todo;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    todo.swap(pending_);
  }
  for (const Pending& p : todo) {
    PRIMA_RETURN_IF_ERROR(ApplyPending(p));
  }
  return Status::Ok();
}

size_t AccessSystem::PendingCount() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

// ---------------------------------------------------------------------------
// Atom clusters
// ---------------------------------------------------------------------------

std::vector<AtomTypeId> AccessSystem::ClusterMemberTypes(
    const StructureDef& def) const {
  std::vector<AtomTypeId> out;
  const AtomTypeDef* char_def = catalog_.GetAtomType(def.atom_type);
  if (char_def == nullptr) return out;
  for (uint16_t a : def.attrs) {
    const TypeDesc* ref = char_def->attrs[a].type.ReferenceDesc();
    if (ref != nullptr && ref->ref_type_id != 0) {
      out.push_back(ref->ref_type_id);
    }
  }
  return out;
}

const StructureDef* AccessSystem::FindCoveringCluster(
    AtomTypeId char_type, const std::vector<AtomTypeId>& needed) const {
  for (const StructureDef* s : catalog_.StructuresFor(char_type)) {
    if (s->kind != StructureKind::kAtomCluster) continue;
    std::set<AtomTypeId> members;
    members.insert(char_type);
    for (AtomTypeId t : ClusterMemberTypes(*s)) members.insert(t);
    bool covers = true;
    for (AtomTypeId t : needed) {
      if (members.count(t) == 0) {
        covers = false;
        break;
      }
    }
    if (covers) return s;
  }
  return nullptr;
}

Status AccessSystem::MaterializeCluster(const StructureDef& def,
                                        const Tid& char_tid) {
  const AtomTypeDef* char_def = catalog_.GetAtomType(def.atom_type);
  if (char_def == nullptr) return Status::Corruption("cluster without type");
  PRIMA_ASSIGN_OR_RETURN(Atom char_atom, ReadBaseAtom(char_tid, char_def));
  ClusterImage image;
  image.characteristic = char_atom;
  std::map<AtomTypeId, std::vector<Atom>> groups;
  for (uint16_t a : def.attrs) {
    for (const Tid& member : RefTargets(char_atom.attrs[a])) {
      auto atom_or = ReadBaseAtom(member);
      if (!atom_or.ok()) {
        if (atom_or.status().IsNotFound()) continue;
        return atom_or.status();
      }
      groups[member.type].push_back(std::move(*atom_or));
    }
  }
  for (auto& [type, atoms] : groups) {
    image.groups.emplace_back(type, std::move(atoms));
  }
  std::string bytes;
  image.EncodeInto(&bytes);
  auto existing = addresses_.Lookup(char_tid, def.id);
  if (existing.ok()) {
    return storage_->RewriteSequence(def.segment,
                                     static_cast<uint32_t>(*existing), bytes);
  }
  PRIMA_ASSIGN_OR_RETURN(const uint32_t header,
                         storage_->CreateSequence(def.segment, bytes));
  return addresses_.Register(char_tid, def.id, header);
}

Status AccessSystem::RemoveClusterImage(const StructureDef& def,
                                        const Tid& char_tid) {
  auto existing = addresses_.Lookup(char_tid, def.id);
  if (!existing.ok()) return Status::Ok();
  PRIMA_RETURN_IF_ERROR(storage_->DropSequence(
      def.segment, static_cast<uint32_t>(*existing)));
  return addresses_.Unregister(char_tid, def.id);
}

Result<ClusterImage> AccessSystem::ReadCluster(uint32_t cluster_id,
                                               const Tid& char_tid) {
  const StructureDef* def = catalog_.GetStructure(cluster_id);
  if (def == nullptr || def->kind != StructureKind::kAtomCluster) {
    return Status::NotFound("atom-cluster structure " +
                            std::to_string(cluster_id));
  }
  PRIMA_RETURN_IF_ERROR(DrainStructure(cluster_id));
  PRIMA_ASSIGN_OR_RETURN(const uint64_t header,
                         addresses_.Lookup(char_tid, cluster_id));
  PRIMA_ASSIGN_OR_RETURN(
      std::string bytes,
      storage_->ReadSequence(def->segment, static_cast<uint32_t>(header)));
  stats_.cluster_reads++;
  return ClusterImage::Decode(bytes, def->atom_type,
                              [this](AtomTypeId t) {
                                const AtomTypeDef* d = catalog_.GetAtomType(t);
                                return d == nullptr ? 0 : d->attrs.size();
                              });
}

bool AccessSystem::ImageServesView(const ClusterImage& image,
                                   const ReadView& view) {
  const auto current = [&](const Atom& a) {
    return versions_.Resolve(a.tid, view).outcome ==
           VersionStore::Outcome::kCurrent;
  };
  if (!current(image.characteristic)) return false;
  for (const auto& [type, atoms] : image.groups) {
    if (!std::all_of(atoms.begin(), atoms.end(), current)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Recovery interface
// ---------------------------------------------------------------------------

Status AccessSystem::RawDeleteAtom(const Tid& tid, uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(tid.type);
  if (def == nullptr) return Status::NotFound("atom type");
  PRIMA_ASSIGN_OR_RETURN(const Atom old_atom, ReadBaseAtom(tid, def));
  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, &old_atom, nullptr, tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &old_atom, nullptr, tid));
  PRIMA_RETURN_IF_ERROR(
      EnqueueClusterMaintenance(*def, &old_atom, nullptr, tid));
  PRIMA_ASSIGN_OR_RETURN(const uint64_t rid,
                         addresses_.Lookup(tid, kBaseStructure));
  PRIMA_RETURN_IF_ERROR(base_files_.at(tid.type)->Delete(RecordId::Unpack(rid)));
  PRIMA_RETURN_IF_ERROR(addresses_.Remove(tid));
  LogAtomOp({txn_id}, UndoRecord::Kind::kDelete, tid, &old_atom,
            /*clr=*/true);
  return Status::Ok();
}

Status AccessSystem::RawRestoreAtom(const Atom& atom, uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(atom.tid.type);
  if (def == nullptr) return Status::NotFound("atom type");
  if (addresses_.Exists(atom.tid)) {
    return Status::AlreadyExists("atom " + atom.tid.ToString());
  }
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(atom.tid, atom, /*is_new=*/true));
  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, nullptr, &atom, atom.tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, nullptr, &atom, atom.tid));
  PRIMA_RETURN_IF_ERROR(EnqueueClusterMaintenance(*def, nullptr, &atom, atom.tid));
  LogAtomOp({txn_id}, UndoRecord::Kind::kInsert, atom.tid, nullptr,
            /*clr=*/true);
  return Status::Ok();
}

Status AccessSystem::RawOverwriteAtom(const Atom& before, uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const AtomTypeDef* def = catalog_.GetAtomType(before.tid.type);
  if (def == nullptr) return Status::NotFound("atom type");
  PRIMA_ASSIGN_OR_RETURN(const Atom current, ReadBaseAtom(before.tid, def));
  PRIMA_RETURN_IF_ERROR(WriteBaseAtom(before.tid, before, /*is_new=*/false));
  PRIMA_RETURN_IF_ERROR(MaintainAccessPaths(*def, &current, &before, before.tid));
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, &current, &before, before.tid));
  PRIMA_RETURN_IF_ERROR(EnqueueClusterMaintenance(*def, &current, &before, before.tid));
  LogAtomOp({txn_id}, UndoRecord::Kind::kModify, before.tid, &current,
            /*clr=*/true);
  return Status::Ok();
}

Status AccessSystem::RecoverAtomFixup(recovery::AtomOp op, const Tid& tid,
                                      uint64_t rid) {
  // Repeating history for the memory-resident address table: the page-level
  // redo pass already restored the record bytes; this reinstates (or
  // removes) the tid -> rid mapping the crash wiped out. Every branch is
  // idempotent — fixups replay from before the checkpoint and recovery
  // itself may crash and rerun.
  switch (op) {
    case recovery::AtomOp::kInsert:
    case recovery::AtomOp::kModify: {
      auto existing = addresses_.Lookup(tid, kBaseStructure);
      if (existing.ok()) {
        if (*existing != rid) {
          PRIMA_RETURN_IF_ERROR(
              addresses_.UpdateEntry(tid, kBaseStructure, rid));
        }
        return Status::Ok();
      }
      return addresses_.Register(tid, kBaseStructure, rid);
    }
    case recovery::AtomOp::kDelete: {
      const Status st = addresses_.Remove(tid);
      return st.IsNotFound() ? Status::Ok() : st;
    }
  }
  return Status::Ok();
}

Status AccessSystem::ReattachPartitionCopies(const AtomTypeDef& def,
                                             const Tid& tid) {
  // A partition upsert drained before the crash inserted the copy into the
  // partition record file (page-resident, repeated by redo) but its
  // address-table registration was memory-resident and died with the
  // process. Re-draining the re-enqueued upsert would then miss the
  // existing copy and insert a second one — an orphan record the file
  // carries forever. Recover the mapping first: the copy's image starts
  // with its packed tid, so a physical scan of the partition file finds it.
  for (const StructureDef* s : catalog_.StructuresFor(def.id)) {
    if (s->kind != StructureKind::kPartition) continue;
    if (addresses_.Lookup(tid, s->id).ok()) continue;  // already registered
    RecordFile* file = PartitionFile(s->id);
    if (file == nullptr) continue;
    PRIMA_ASSIGN_OR_RETURN(std::optional<RecordId> rid, file->First());
    while (rid.has_value()) {
      bool match = false;
      {  // unpin before the next page is fixed
        PRIMA_ASSIGN_OR_RETURN(const PinnedRecord record, file->Read(*rid));
        const Slice bytes = record.bytes();
        match = bytes.size() >= 8 &&
                util::DecodeFixed64(bytes.data()) == tid.Pack();
      }
      if (match) {
        PRIMA_RETURN_IF_ERROR(addresses_.Register(tid, s->id, rid->Pack()));
        break;
      }
      PRIMA_ASSIGN_OR_RETURN(rid, file->Next(*rid));
    }
  }
  return Status::Ok();
}

Status AccessSystem::RecoverRedundancy(const Tid& tid,
                                       const Atom* ckpt_before) {
  const AtomTypeDef* def = catalog_.GetAtomType(tid.type);
  if (def == nullptr) return Status::Ok();  // type dropped since
  // Dedupe the re-enqueued work against copies that were already
  // materialized before the crash (drained but unregistered): reattaching
  // the mapping turns the coming upsert into an in-place update — and lets
  // a removal find the record at all — instead of leaking an orphan.
  PRIMA_RETURN_IF_ERROR(ReattachPartitionCopies(*def, tid));
  auto current_or = ReadBaseAtom(tid, def);
  if (current_or.ok()) {
    // Atom survived (committed work, or a loser change already rolled
    // back): refresh every redundant structure. The checkpoint image keys
    // the removal of stale sort-order entries.
    PRIMA_RETURN_IF_ERROR(
        EnqueueRedundancy(*def, ckpt_before, &*current_or, tid));
    return EnqueueClusterMaintenance(*def, ckpt_before, &*current_or, tid);
  }
  if (!current_or.status().IsNotFound()) return current_or.status();
  if (ckpt_before == nullptr) return Status::Ok();  // never checkpointed
  PRIMA_RETURN_IF_ERROR(EnqueueRedundancy(*def, ckpt_before, nullptr, tid));
  return EnqueueClusterMaintenance(*def, ckpt_before, nullptr, tid);
}

// ---------------------------------------------------------------------------
// Scan-layer accessors
// ---------------------------------------------------------------------------

RecordFile* AccessSystem::BaseFile(AtomTypeId type) {
  auto it = base_files_.find(type);
  return it == base_files_.end() ? nullptr : it->second.get();
}

BTree* AccessSystem::BTreeFor(uint32_t structure_id) {
  auto it = btrees_.find(structure_id);
  return it == btrees_.end() ? nullptr : it->second.get();
}

GridFile* AccessSystem::GridFor(uint32_t structure_id) {
  auto it = grids_.find(structure_id);
  return it == grids_.end() ? nullptr : it->second.get();
}

RecordFile* AccessSystem::PartitionFile(uint32_t structure_id) {
  auto it = partition_files_.find(structure_id);
  return it == partition_files_.end() ? nullptr : it->second.get();
}

}  // namespace prima::access
