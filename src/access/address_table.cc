#include "access/address_table.h"

#include <algorithm>
#include <utility>

#include "util/coding.h"

namespace prima::access {

using util::Result;
using util::Slice;
using util::Status;

namespace {

constexpr unsigned kChunkBits = 10;   // slots per chunk: 1024 (8 KiB)
constexpr unsigned kFanoutBits = 10;  // links per directory node: 1024
constexpr uint64_t kChunkSlots = uint64_t{1} << kChunkBits;
constexpr uint64_t kFanout = uint64_t{1} << kFanoutBits;
/// The slot value of an atom without a base entry. RecordId::Pack() uses
/// 48 bits, so no base record has it.
constexpr uint64_t kAbsent = ~uint64_t{0};

/// Sequence bits a directory of `height` levels covers (4 cover all 48).
constexpr unsigned SpanBits(unsigned height) {
  return kChunkBits + kFanoutBits * height;
}

/// The link index of `seq` in a node of `height` (1 = links to chunks).
constexpr size_t LinkIndex(uint64_t seq, unsigned height) {
  return static_cast<size_t>((seq >> SpanBits(height - 1)) & (kFanout - 1));
}

constexpr size_t SlotIndex(uint64_t seq) {
  return static_cast<size_t>(seq & (kChunkSlots - 1));
}

}  // namespace

/// A leaf of the directory: the base rids of kChunkSlots consecutive
/// sequence numbers of one type.
struct AddressTable::Chunk {
  Chunk() {
    for (auto& slot : slots) slot.store(kAbsent, std::memory_order_relaxed);
  }
  /// Which attachment this is (a value of attachments_). A lock-free reader
  /// compares it before and after its slot load.
  std::atomic<uint64_t> attachment{0};
  uint64_t live = 0;  ///< slots not absent (writers only)
  std::atomic<uint64_t> slots[kChunkSlots];
};

/// An inner node of one type's directory. Its links point to Nodes of
/// height - 1, or to Chunks at height 1. A node is never freed while the
/// table lives, so a reader's walk down the directory never meets freed
/// memory.
struct AddressTable::Node {
  explicit Node(unsigned h) : height(h) {}
  const unsigned height;
  std::atomic<void*> links[kFanout] = {};
};

struct AddressTable::TypePage {
  std::atomic<Node*> roots[256] = {};
  uint64_t live[256] = {};  ///< atoms with a base entry, per type (writers)
  SideMap side[256];        ///< non-base entries, per type (mu_)
};

template <typename Fn>
void AddressTable::ForEachChunkLink(Node* node, uint64_t first_seq,
                                    const Fn& fn) {
  for (size_t i = 0; i < kFanout; ++i) {
    void* below = node->links[i].load(std::memory_order_relaxed);
    if (below == nullptr) continue;
    const uint64_t seq =
        first_seq + (uint64_t{i} << SpanBits(node->height - 1));
    if (node->height == 1) {
      fn(&node->links[i], static_cast<Chunk*>(below), seq);
    } else {
      ForEachChunkLink(static_cast<Node*>(below), seq, fn);
    }
  }
}

void AddressTable::FreeNodes(Node* node) {
  if (node->height > 1) {
    for (auto& link : node->links) {
      void* below = link.load(std::memory_order_relaxed);
      if (below != nullptr) FreeNodes(static_cast<Node*>(below));
    }
  }
  delete node;
}

AddressTable::~AddressTable() {
  for (auto& slot : pages_) {
    TypePage* page = slot.load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (auto& root_link : page->roots) {
      Node* root = root_link.load(std::memory_order_relaxed);
      if (root == nullptr) continue;
      ForEachChunkLink(root, 0, [](std::atomic<void*>*, Chunk* chunk,
                                   uint64_t) { delete chunk; });
      FreeNodes(root);
    }
    delete page;
  }
  for (Chunk* chunk : spare_) delete chunk;
}

// ---------------------------------------------------------------------------
// Lock-free base reads
// ---------------------------------------------------------------------------

AddressTable::TypePage* AddressTable::PageOf(AtomTypeId type) const {
  return pages_[type >> 8].load(std::memory_order_acquire);
}

const std::atomic<void*>* AddressTable::ChunkLink(const Tid& tid) const {
  const TypePage* page = PageOf(tid.type);
  if (page == nullptr) return nullptr;
  const Node* node =
      page->roots[tid.type & 0xFF].load(std::memory_order_acquire);
  if (node == nullptr || (tid.seq >> SpanBits(node->height)) != 0) {
    return nullptr;
  }
  while (node->height > 1) {
    const auto& link = node->links[LinkIndex(tid.seq, node->height)];
    node = static_cast<const Node*>(link.load(std::memory_order_acquire));
    if (node == nullptr) return nullptr;
  }
  return &node->links[LinkIndex(tid.seq, 1)];
}

uint64_t AddressTable::BaseRid(const Tid& tid) const {
  const std::atomic<void*>* link = ChunkLink(tid);
  if (link == nullptr) return kAbsent;
  for (;;) {
    const auto* chunk =
        static_cast<const Chunk*>(link->load(std::memory_order_acquire));
    if (chunk == nullptr) return kAbsent;
    const uint64_t attachment =
        chunk->attachment.load(std::memory_order_acquire);
    const uint64_t rid =
        chunk->slots[SlotIndex(tid.seq)].load(std::memory_order_acquire);
    // An absent slot needs no check: if the chunk was detached after we
    // loaded it, every slot of its range was absent at that moment.
    if (rid == kAbsent) return kAbsent;
    // A detached chunk may already serve another range. The rid is ours
    // only if the chunk still hangs on our link in the attachment whose
    // number we read before the slot (reattaching renumbers it, and a
    // chunk is attached with every slot absent).
    if (link->load(std::memory_order_acquire) == chunk &&
        chunk->attachment.load(std::memory_order_relaxed) == attachment) {
      return rid;
    }
  }
}

bool AddressTable::Exists(const Tid& tid) const {
  return BaseRid(tid) != kAbsent;
}

Result<uint64_t> AddressTable::Lookup(const Tid& tid,
                                      uint32_t structure) const {
  if (structure == kBaseStructure) {
    const uint64_t rid = BaseRid(tid);
    if (rid == kAbsent) return Status::NotFound("atom " + tid.ToString());
    return rid;
  }
  std::lock_guard lock(mu_);
  if (const SideEntries* side = FindSide(tid)) {
    for (const auto& e : side->entries) {
      if (e.structure_id == structure) return e.rid;
    }
  }
  return Missing(tid, structure);
}

// ---------------------------------------------------------------------------
// Writers (mu_ held)
// ---------------------------------------------------------------------------

AddressTable::SideMap* AddressTable::SideOf(AtomTypeId type) const {
  TypePage* page = PageOf(type);
  return page == nullptr ? nullptr : &page->side[type & 0xFF];
}

AddressTable::SideEntries* AddressTable::FindSide(const Tid& tid) const {
  SideMap* sides = SideOf(tid.type);
  if (sides == nullptr || sides->empty()) return nullptr;
  auto it = sides->find(tid.seq);
  return it == sides->end() ? nullptr : &it->second;
}

bool AddressTable::EraseEntry(SideEntries* side, uint32_t structure) {
  for (size_t i = 0; i < side->entries.size(); ++i) {
    if (side->entries[i].structure_id != structure) continue;
    side->entries.erase(side->entries.begin() + static_cast<ptrdiff_t>(i));
    if (i < side->base_pos) --side->base_pos;
    return true;
  }
  return false;
}

Status AddressTable::Missing(const Tid& tid, uint32_t structure) const {
  if (BaseRid(tid) == kAbsent && FindSide(tid) == nullptr) {
    return Status::NotFound("atom " + tid.ToString());
  }
  return Status::NotFound("no entry for structure " + std::to_string(structure));
}

AddressTable::Chunk* AddressTable::TakeChunk() {
  Chunk* chunk;
  if (spare_.empty()) {
    chunk = new Chunk();
  } else {
    chunk = spare_.back();
    spare_.pop_back();
  }
  // Released before the caller publishes the chunk, so a reader that reads
  // this number also sees every slot absent.
  chunk->attachment.store(++attachments_, std::memory_order_release);
  ++chunks_in_use_;
  return chunk;
}

void AddressTable::ReleaseChunk(std::atomic<void*>* link) {
  auto* chunk = static_cast<Chunk*>(link->load(std::memory_order_relaxed));
  if (chunk->live != 0) {  // a whole type goes: absent while still linked
    for (auto& slot : chunk->slots) {
      slot.store(kAbsent, std::memory_order_release);
    }
    chunk->live = 0;
  }
  link->store(nullptr, std::memory_order_release);
  spare_.push_back(chunk);
  --chunks_in_use_;
}

AddressTable::TypePage& AddressTable::PageFor(AtomTypeId type) {
  std::atomic<TypePage*>& page_link = pages_[type >> 8];
  TypePage* page = page_link.load(std::memory_order_relaxed);
  if (page == nullptr) {
    page = new TypePage();
    page_link.store(page, std::memory_order_release);
  }
  return *page;
}

std::atomic<void*>& AddressTable::GrowTo(const Tid& tid) {
  std::atomic<Node*>& root_link = PageFor(tid.type).roots[tid.type & 0xFF];
  Node* node = root_link.load(std::memory_order_relaxed);
  unsigned height = 1;
  while ((tid.seq >> SpanBits(height)) != 0) ++height;
  if (node == nullptr) {
    node = new Node(height);
    root_link.store(node, std::memory_order_release);
  }
  // A far sequence grows the directory at the top: the old root becomes
  // the first link of a taller one, so no existing link moves.
  while (node->height < height) {
    Node* taller = new Node(node->height + 1);
    taller->links[0].store(node, std::memory_order_relaxed);
    root_link.store(taller, std::memory_order_release);
    node = taller;
  }
  while (node->height > 1) {
    std::atomic<void*>& link = node->links[LinkIndex(tid.seq, node->height)];
    auto* below = static_cast<Node*>(link.load(std::memory_order_relaxed));
    if (below == nullptr) {
      below = new Node(node->height - 1);
      link.store(below, std::memory_order_release);
    }
    node = below;
  }
  return node->links[LinkIndex(tid.seq, 1)];
}

Status AddressTable::SetBase(const Tid& tid, uint64_t rid) {
  if (rid == kAbsent) {
    return Status::InvalidArgument("rid " + std::to_string(rid) +
                                   " is the absent slot value");
  }
  std::atomic<void*>& link = GrowTo(tid);
  auto* chunk = static_cast<Chunk*>(link.load(std::memory_order_relaxed));
  if (chunk == nullptr) {
    chunk = TakeChunk();
    link.store(chunk, std::memory_order_release);
  }
  std::atomic<uint64_t>& slot = chunk->slots[SlotIndex(tid.seq)];
  if (slot.load(std::memory_order_relaxed) != kAbsent) {
    return Status::AlreadyExists("structure already materializes atom " +
                                 tid.ToString());
  }
  slot.store(rid, std::memory_order_release);
  ++chunk->live;
  ++PageOf(tid.type)->live[tid.type & 0xFF];
  if (SideEntries* side = FindSide(tid)) side->base_pos = side->entries.size();
  return Status::Ok();
}

void AddressTable::ClearBase(const Tid& tid) {
  // Only called for an atom that has a base entry, so the path exists.
  auto* link = const_cast<std::atomic<void*>*>(ChunkLink(tid));
  auto* chunk = static_cast<Chunk*>(link->load(std::memory_order_relaxed));
  chunk->slots[SlotIndex(tid.seq)].store(kAbsent, std::memory_order_release);
  --PageOf(tid.type)->live[tid.type & 0xFF];
  if (--chunk->live == 0) ReleaseChunk(link);
}

void AddressTable::ReleaseType(AtomTypeId type) {
  TypePage* page = PageOf(type);
  if (page == nullptr) return;
  Node* root = page->roots[type & 0xFF].load(std::memory_order_relaxed);
  if (root != nullptr) {
    ForEachChunkLink(root, 0, [this](std::atomic<void*>* link, Chunk*,
                                     uint64_t) { ReleaseChunk(link); });
  }
  page->live[type & 0xFF] = 0;
  page->side[type & 0xFF] = SideMap();
}

Tid AddressTable::NewTid(AtomTypeId type) {
  std::lock_guard lock(mu_);
  uint64_t& next = next_seq_[type];
  ++next;
  return Tid(type, next);
}

Status AddressTable::Register(const Tid& tid, uint32_t structure,
                              uint64_t rid) {
  std::lock_guard lock(mu_);
  if (structure == kBaseStructure) {
    PRIMA_RETURN_IF_ERROR(SetBase(tid, rid));
  } else {
    auto& list = PageFor(tid.type).side[tid.type & 0xFF][tid.seq].entries;
    for (const auto& e : list) {
      if (e.structure_id == structure) {
        return Status::AlreadyExists("structure already materializes atom " +
                                     tid.ToString());
      }
    }
    list.push_back(AddressEntry{structure, rid});
  }
  // Keep the surrogate generator ahead of every registered surrogate —
  // crash recovery re-registers atoms whose NewTid call was lost with the
  // in-memory counters, and a reissued tid would corrupt the address space.
  uint64_t& next = next_seq_[tid.type];
  if (tid.seq > next) next = tid.seq;
  return Status::Ok();
}

Status AddressTable::Unregister(const Tid& tid, uint32_t structure) {
  if (structure == kBaseStructure) {
    return Status::InvalidArgument("the base entry of atom " +
                                   tid.ToString() + " goes with the atom");
  }
  std::lock_guard lock(mu_);
  SideMap* sides = SideOf(tid.type);
  auto it = sides == nullptr ? SideMap::iterator() : sides->find(tid.seq);
  if (sides == nullptr || it == sides->end() ||
      !EraseEntry(&it->second, structure)) {
    return Missing(tid, structure);
  }
  // An atom without a base entry stays listed, as it was registered.
  if (it->second.entries.empty() && BaseRid(tid) != kAbsent) sides->erase(it);
  return Status::Ok();
}

void AddressTable::UnregisterStructure(AtomTypeId type, uint32_t structure) {
  std::lock_guard lock(mu_);
  SideMap* sides = SideOf(type);
  if (sides == nullptr) return;
  for (auto it = sides->begin(); it != sides->end();) {
    if (EraseEntry(&it->second, structure) && it->second.entries.empty() &&
        BaseRid(Tid(type, it->first)) != kAbsent) {
      it = sides->erase(it);
    } else {
      ++it;
    }
  }
}

Status AddressTable::UpdateEntry(const Tid& tid, uint32_t structure,
                                 uint64_t rid) {
  std::lock_guard lock(mu_);
  if (structure == kBaseStructure) {
    if (rid == kAbsent) {
      return Status::InvalidArgument("rid " + std::to_string(rid) +
                                     " is the absent slot value");
    }
    if (BaseRid(tid) == kAbsent) return Missing(tid, structure);
    auto* chunk =
        static_cast<Chunk*>(ChunkLink(tid)->load(std::memory_order_relaxed));
    chunk->slots[SlotIndex(tid.seq)].store(rid, std::memory_order_release);
    return Status::Ok();
  }
  if (SideEntries* side = FindSide(tid)) {
    for (auto& e : side->entries) {
      if (e.structure_id == structure) {
        e.rid = rid;
        return Status::Ok();
      }
    }
  }
  return Missing(tid, structure);
}

Status AddressTable::Remove(const Tid& tid) {
  std::lock_guard lock(mu_);
  const bool has_base = BaseRid(tid) != kAbsent;
  SideMap* sides = SideOf(tid.type);
  const bool had_side = sides != nullptr && sides->erase(tid.seq) != 0;
  if (!has_base && !had_side) {
    return Status::NotFound("atom " + tid.ToString());
  }
  if (has_base) ClearBase(tid);
  return Status::Ok();
}

std::vector<AddressEntry> AddressTable::EntriesFor(const Tid& tid) const {
  std::lock_guard lock(mu_);
  std::vector<AddressEntry> out;
  const SideEntries* side = FindSide(tid);
  if (side != nullptr) out = side->entries;
  const uint64_t rid = BaseRid(tid);
  if (rid != kAbsent) {
    const size_t pos = side == nullptr ? 0 : side->base_pos;
    out.insert(out.begin() + static_cast<ptrdiff_t>(pos),
               AddressEntry{kBaseStructure, rid});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-type queries
// ---------------------------------------------------------------------------

std::vector<Tid> AddressTable::AllOfType(AtomTypeId type) const {
  std::lock_guard lock(mu_);
  std::vector<Tid> out;
  TypePage* page = PageOf(type);
  Node* root = page == nullptr
                   ? nullptr
                   : page->roots[type & 0xFF].load(std::memory_order_relaxed);
  if (root == nullptr) return out;
  out.reserve(page->live[type & 0xFF]);
  ForEachChunkLink(root, 0, [&](std::atomic<void*>*, Chunk* chunk,
                                uint64_t first_seq) {
    for (size_t i = 0; i < kChunkSlots; ++i) {
      if (chunk->slots[i].load(std::memory_order_relaxed) != kAbsent) {
        out.emplace_back(type, first_seq + i);
      }
    }
  });
  return out;
}

uint64_t AddressTable::CountOfType(AtomTypeId type) const {
  std::lock_guard lock(mu_);
  const TypePage* page = PageOf(type);
  return page == nullptr ? 0 : page->live[type & 0xFF];
}

void AddressTable::RemoveType(AtomTypeId type) {
  std::lock_guard lock(mu_);
  ReleaseType(type);
  next_seq_.erase(type);
}

size_t AddressTable::ChunksInUse() const {
  std::lock_guard lock(mu_);
  return chunks_in_use_;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

std::string AddressTable::Encode() const {
  std::lock_guard lock(mu_);
  std::string out;
  util::PutVarint64(&out, next_seq_.size());
  for (const auto& [type, next] : next_seq_) {
    util::PutVarint64(&out, type);
    util::PutVarint64(&out, next);
  }

  // Atoms with side entries but no base entry, per type, sorted: the only
  // atoms the chunk walk below does not visit.
  std::vector<std::pair<AtomTypeId, std::vector<uint64_t>>> side_only;
  uint64_t atoms = 0;
  for (size_t p = 0; p < 256; ++p) {
    const TypePage* page = pages_[p].load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (size_t t = 0; t < 256; ++t) {
      atoms += page->live[t];
      const auto type = static_cast<AtomTypeId>(p << 8 | t);
      std::vector<uint64_t> seqs;
      for (const auto& entry : page->side[t]) {
        if (BaseRid(Tid(type, entry.first)) == kAbsent) {
          seqs.push_back(entry.first);
        }
      }
      if (seqs.empty()) continue;
      std::sort(seqs.begin(), seqs.end());
      atoms += seqs.size();
      side_only.emplace_back(type, std::move(seqs));
    }
  }
  util::PutVarint64(&out, atoms);

  const auto put_entry = [&out](uint32_t structure, uint64_t rid) {
    util::PutVarint64(&out, structure);
    util::PutFixed64(&out, rid);
  };
  const auto put_atom = [&](const Tid& tid, uint64_t base_rid,
                            const SideMap& sides) {
    const SideEntries* side = nullptr;
    if (!sides.empty()) {
      auto it = sides.find(tid.seq);
      if (it != sides.end()) side = &it->second;
    }
    const size_t n = side == nullptr ? 0 : side->entries.size();
    const size_t base_pos = side == nullptr ? 0 : side->base_pos;
    const bool has_base = base_rid != kAbsent;
    util::PutFixed64(&out, tid.Pack());
    util::PutVarint64(&out, n + (has_base ? 1 : 0));
    for (size_t i = 0; i < n; ++i) {
      if (has_base && i == base_pos) put_entry(kBaseStructure, base_rid);
      put_entry(side->entries[i].structure_id, side->entries[i].rid);
    }
    if (has_base && base_pos == n) put_entry(kBaseStructure, base_rid);
  };
  // Types and each type's chunks are walked in ascending order, so the
  // atoms come out sorted; side-only atoms are merged in by sequence.
  const std::vector<uint64_t> none;
  auto next_side_only = side_only.begin();
  for (size_t p = 0; p < 256; ++p) {
    const TypePage* page = pages_[p].load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (size_t t = 0; t < 256; ++t) {
      const auto type = static_cast<AtomTypeId>(p << 8 | t);
      const SideMap& sides = page->side[t];
      const bool has_side_only =
          next_side_only != side_only.end() && next_side_only->first == type;
      const std::vector<uint64_t>& orphans =
          has_side_only ? (next_side_only++)->second : none;
      size_t next_orphan = 0;
      const auto put_orphans_below = [&](uint64_t seq) {
        for (; next_orphan < orphans.size() && orphans[next_orphan] < seq;
             ++next_orphan) {
          put_atom(Tid(type, orphans[next_orphan]), kAbsent, sides);
        }
      };
      Node* root = page->roots[t].load(std::memory_order_relaxed);
      if (root != nullptr) {
        ForEachChunkLink(root, 0, [&](std::atomic<void*>*, Chunk* chunk,
                                      uint64_t first_seq) {
          for (size_t i = 0; i < kChunkSlots; ++i) {
            const uint64_t rid =
                chunk->slots[i].load(std::memory_order_relaxed);
            if (rid == kAbsent) continue;
            put_orphans_below(first_seq + i);
            put_atom(Tid(type, first_seq + i), rid, sides);
          }
        });
      }
      put_orphans_below(~uint64_t{0});
    }
  }
  return out;
}

Status AddressTable::DecodeFrom(Slice in) {
  std::lock_guard lock(mu_);
  for (uint32_t type = 0; type <= 0xFFFF; ++type) {
    ReleaseType(static_cast<AtomTypeId>(type));
  }
  next_seq_.clear();
  uint64_t n_types;
  if (!util::GetVarint64(&in, &n_types)) {
    return Status::Corruption("address table header");
  }
  for (uint64_t i = 0; i < n_types; ++i) {
    uint64_t type, next;
    if (!util::GetVarint64(&in, &type) || !util::GetVarint64(&in, &next)) {
      return Status::Corruption("address table counters");
    }
    next_seq_[static_cast<AtomTypeId>(type)] = next;
  }
  uint64_t n_atoms;
  if (!util::GetVarint64(&in, &n_atoms)) {
    return Status::Corruption("address table size");
  }
  for (uint64_t i = 0; i < n_atoms; ++i) {
    uint64_t packed, n_entries;
    if (!util::GetFixed64(&in, &packed) ||
        !util::GetVarint64(&in, &n_entries)) {
      return Status::Corruption("address table entry");
    }
    const Tid tid = Tid::Unpack(packed);
    SideMap& sides = PageFor(tid.type).side[tid.type & 0xFF];
    if (n_entries == 0) sides.try_emplace(tid.seq);  // listed with no entry
    for (uint64_t j = 0; j < n_entries; ++j) {
      uint64_t sid, rid;
      if (!util::GetVarint64(&in, &sid) || !util::GetFixed64(&in, &rid)) {
        return Status::Corruption("address table entry body");
      }
      if (sid != kBaseStructure) {
        sides[tid.seq].entries.push_back(
            AddressEntry{static_cast<uint32_t>(sid), rid});
      } else if (!SetBase(tid, rid).ok()) {
        return Status::Corruption("address table base entry of atom " +
                                  tid.ToString());
      }
    }
  }
  return Status::Ok();
}

}  // namespace prima::access
