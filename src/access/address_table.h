#ifndef PRIMA_ACCESS_ADDRESS_TABLE_H_
#define PRIMA_ACCESS_ADDRESS_TABLE_H_

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
/// Atoms are hashed by packed surrogate, so the per-atom calls (Lookup,
/// Register, ...) on the hot path cost O(1). Order exists only where it is
/// observable: Encode writes atoms in ascending packed-surrogate order (the
/// persisted bytes do not depend on the hash), and AllOfType returns
/// ascending surrogates. Both, like CountOfType and RemoveType, visit the
/// whole table; they serve flushes, DDL and explicit sorts.
class AddressTable {
 public:
  /// Generate the next surrogate for an atom type (insert path).
  Tid NewTid(AtomTypeId type);

  /// Record that `structure` materializes `tid` at `rid`.
  util::Status Register(const Tid& tid, uint32_t structure, uint64_t rid);
  /// Remove a single materialization.
  util::Status Unregister(const Tid& tid, uint32_t structure);
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

 private:
  /// A plain mutex, not a reader-writer lock: glibc's rwlock prefers
  /// readers, so lookups that never pause would starve Register and Remove.
  mutable std::mutex mu_;
  // Keyed by Tid::Pack().
  std::unordered_map<uint64_t, std::vector<AddressEntry>> entries_;
  std::map<AtomTypeId, uint64_t> next_seq_;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_ADDRESS_TABLE_H_
