#ifndef PRIMA_ACCESS_ADDRESS_TABLE_H_
#define PRIMA_ACCESS_ADDRESS_TABLE_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "access/tid.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::access {

/// Structure id 0 denotes the base storage (the atom type's primary record
/// file); other ids are LDL-created structures from the catalog.
inline constexpr uint32_t kBaseStructure = 0;

/// One materialization of an atom: which structure holds it and where.
struct AddressEntry {
  uint32_t structure_id = kBaseStructure;
  uint64_t rid = 0;  ///< RecordId::Pack() or structure-specific locator
};

/// "A sophisticated addressing structure is required to manage such n:m
/// relationships" (paper §3.2): each atom maps to the *set* of physical
/// records that materialize it (base copy, sort-order copies, partition
/// parts, cluster copies), and each physical record may hold many atoms.
/// This table is the atom side of that mapping; it also issues surrogates.
///
/// Memory-resident with wholesale persistence into the address segment at
/// flush time (rebuildable from the base records if absent).
///
/// NewTid issues each type's sequence numbers densely and never reissues
/// one, so the base record id of every atom lives inline in a per-type
/// array indexed by sequence: a radix directory over the 48-bit sequence
/// whose leaves are chunks of 1,024 64-bit slots. A dense type's directory
/// is one level deep; a far sequence (a surrogate re-registered by recovery)
/// grows the directory in height and allocates only its own chunk. The
/// other materializations sit in a per-type hash map keyed by sequence.
/// Sort copies and cluster headers put entries on some atoms, but a
/// partition puts one on every atom of its type, and a covered projection
/// looks it up on each read: that lookup is one hash find under the mutex.
///
/// Concurrency: Lookup of the base structure and Exists take no lock; they
/// index the directory and load the slot. Every other call takes one plain
/// mutex, which base readers therefore cannot starve. A chunk whose slots all
/// become absent is detached and kept for reuse by the next chunk any type
/// needs, never freed while the table lives: a lock-free reader may still
/// hold it, and re-checks after its load that the chunk still hangs where
/// it found it, in the same attachment.
///
/// Memory: a chunk (8 KiB) stays attached while any of its slots is live.
/// A dense type costs 8 B per sequence issued, but a type whose surviving
/// atoms are spread one per 1,024 sequences keeps a whole chunk for each
/// survivor, and the table then holds the peak number of chunks it ever
/// had attached (detached ones wait on the spare list).
///
/// An atom exists while it has a base entry; the type queries (AllOfType,
/// CountOfType) count those. Encode writes every atom with an entry in
/// ascending packed-surrogate order, each atom's entries in the order they
/// were registered.
class AddressTable {
 public:
  AddressTable() = default;
  ~AddressTable();
  AddressTable(const AddressTable&) = delete;
  AddressTable& operator=(const AddressTable&) = delete;

  /// Generate the next surrogate for an atom type (insert path).
  Tid NewTid(AtomTypeId type);

  /// Record that `structure` materializes `tid` at `rid`.
  util::Status Register(const Tid& tid, uint32_t structure, uint64_t rid);
  /// Remove a single non-base materialization. The base entry goes only
  /// with the atom (Remove); asking for it here is InvalidArgument.
  util::Status Unregister(const Tid& tid, uint32_t structure);
  /// Remove `structure`'s entry from every atom of `type` (DropStructure).
  void UnregisterStructure(AtomTypeId type, uint32_t structure);
  /// Move a materialization (physical record relocated).
  util::Status UpdateEntry(const Tid& tid, uint32_t structure, uint64_t rid);
  /// Drop every materialization (atom deletion releases the surrogate).
  util::Status Remove(const Tid& tid);

  bool Exists(const Tid& tid) const;
  util::Result<uint64_t> Lookup(const Tid& tid, uint32_t structure) const;
  std::vector<AddressEntry> EntriesFor(const Tid& tid) const;

  /// All live surrogates of a type in ascending sequence order (the
  /// "system-defined order" of the atom-type scan).
  std::vector<Tid> AllOfType(AtomTypeId type) const;
  uint64_t CountOfType(AtomTypeId type) const;

  /// Forget everything about an atom type (DropAtomType).
  void RemoveType(AtomTypeId type);

  std::string Encode() const;
  util::Status DecodeFrom(util::Slice in);

  /// Chunks of base slots attached to some type's directory.
  size_t ChunksInUse() const;

 private:
  struct Chunk;
  struct Node;
  struct TypePage;
  /// The non-base materializations of one atom, in registration order.
  struct SideEntries {
    std::vector<AddressEntry> entries;
    /// How many of `entries` precede the base entry in Encode's order
    /// (they were registered before it).
    size_t base_pos = 0;
  };
  /// One type's SideEntries, keyed by sequence.
  using SideMap = std::unordered_map<uint64_t, SideEntries>;

  TypePage* PageOf(AtomTypeId type) const;
  /// The side map of `type`, or nullptr when the type has no page yet.
  SideMap* SideOf(AtomTypeId type) const;
  SideEntries* FindSide(const Tid& tid) const;
  /// Erases `structure`'s entry from `side`; false if it has none.
  static bool EraseEntry(SideEntries* side, uint32_t structure);
  /// The base rid of `tid`, or kAbsent. Takes no lock.
  uint64_t BaseRid(const Tid& tid) const;
  /// The directory link that holds (or would hold) the chunk of `tid`'s
  /// sequence, or nullptr when the directory has no path to it.
  const std::atomic<void*>* ChunkLink(const Tid& tid) const;

  /// Calls fn(link, chunk, first_seq) for every chunk below `node`, in
  /// ascending sequence order. Callers hold mu_ (or own the table alone).
  template <typename Fn>
  static void ForEachChunkLink(Node* node, uint64_t first_seq, const Fn& fn);
  static void FreeNodes(Node* node);

  // The rest are called with mu_ held.
  TypePage& PageFor(AtomTypeId type);
  std::atomic<void*>& GrowTo(const Tid& tid);
  util::Status SetBase(const Tid& tid, uint64_t rid);
  void ClearBase(const Tid& tid);
  Chunk* TakeChunk();
  void ReleaseChunk(std::atomic<void*>* link);
  void ReleaseType(AtomTypeId type);
  util::Status Missing(const Tid& tid, uint32_t structure) const;

  /// Directory pages of 256 types each, indexed by the type's high byte;
  /// a page also holds its types' side maps.
  std::atomic<TypePage*> pages_[256] = {};

  /// A plain mutex, not a reader-writer lock: glibc's rwlock prefers
  /// readers, so lookups that never pause would starve Register and Remove.
  mutable std::mutex mu_;
  std::map<AtomTypeId, uint64_t> next_seq_;
  std::vector<Chunk*> spare_;  ///< detached chunks, every slot absent
  uint64_t attachments_ = 0;   ///< chunk attachments made so far
  size_t chunks_in_use_ = 0;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_ADDRESS_TABLE_H_
