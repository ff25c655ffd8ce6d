#ifndef PRIMA_ACCESS_ACCESS_SYSTEM_H_
#define PRIMA_ACCESS_ACCESS_SYSTEM_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "access/address_table.h"
#include "access/atom_cluster.h"
#include "access/btree.h"
#include "access/catalog.h"
#include "access/grid_file.h"
#include "access/record_file.h"
#include "access/search_arg.h"
#include "access/tid.h"
#include "access/value.h"
#include "access/version_store.h"
#include "obs/counter.h"
#include "storage/storage_system.h"

namespace prima::recovery {
class WalWriter;
enum class AtomOp : uint8_t;
}  // namespace prima::recovery

namespace prima::access {

/// Operation counters of the access system (experiment E8 reads the layer
/// pyramid off these plus the storage/buffer stats).
struct AccessStats {
  obs::Counter atoms_inserted;
  obs::Counter atoms_read;
  obs::Counter atoms_modified;
  obs::Counter atoms_deleted;
  obs::Counter backref_maintenance;  ///< implicit inverse updates
  obs::Counter partition_reads;      ///< projections served by partition
  obs::Counter cluster_reads;        ///< whole-cluster materializations
  obs::Counter fetch_fallbacks;      ///< GetAtoms reads not served by page
  obs::Counter deferred_enqueued;
  obs::Counter deferred_applied;

  void Reset() { *this = AccessStats(); }
};

inline constexpr obs::CounterDef<AccessStats> kAccessCounters[] = {
    {&AccessStats::atoms_inserted, "prima_atoms_inserted", "atoms inserted"},
    {&AccessStats::atoms_read, "prima_atoms_read", "atoms read"},
    {&AccessStats::atoms_modified, "prima_atoms_modified", "atoms modified"},
    {&AccessStats::atoms_deleted, "prima_atoms_deleted", "atoms deleted"},
    {&AccessStats::backref_maintenance, "prima_access_backref_maintenance", "implicit inverse-reference updates"},
    {&AccessStats::partition_reads, "prima_access_partition_reads", "projections served by a partition"},
    {&AccessStats::cluster_reads, "prima_access_cluster_reads", "whole atom-cluster materializations"},
    {&AccessStats::fetch_fallbacks, "prima_access_fetch_fallbacks", "atoms a set-oriented read left to the one-record read (no address, long record, slot freed by a relocation)"},
    {&AccessStats::deferred_enqueued, "prima_deferred_enqueued", "deferred redundancy updates queued"},
    {&AccessStats::deferred_applied, "prima_deferred_applied", "deferred redundancy updates drained"},
};

struct AccessOptions {
  storage::PageSize base_page_size = storage::PageSize::k4K;
  storage::PageSize index_page_size = storage::PageSize::k4K;
  storage::PageSize partition_page_size = storage::PageSize::k1K;
  storage::PageSize cluster_page_size = storage::PageSize::k8K;
  /// Paper §3.2 deferred update: redundant structures are refreshed lazily.
  /// false = propagate immediately (ablation E12).
  bool defer_updates = true;
};

/// Attribute assignment used by insert/modify.
struct AttrValue {
  uint16_t attr = 0;
  Value value;
};

/// The transaction a write belongs to, passed to every mutator: the
/// top-level transaction id, which tags the write's log records and chain
/// entries, and the writer's undo list, to which each base-atom mutation
/// (each implicit back-reference write too) appends one UndoRecord. Both
/// or neither: the default is a system write — no version chain, WAL txn
/// 0, never undone.
struct WriteTxn {
  uint64_t id = 0;
  std::vector<UndoRecord>* undo = nullptr;
};

/// The access system (paper §3.2): an atom-oriented interface in the spirit
/// of System R's RSS, with direct access by surrogate, atom sets via scans
/// (scan.h), system-enforced referential integrity for the symmetric
/// association attributes, and the LDL-controlled redundancy (access paths,
/// sort orders, partitions, atom clusters) underneath.
class AccessSystem {
 public:
  AccessSystem(storage::StorageSystem* storage, AccessOptions options = {});
  /// Writes nothing: metadata and pages not written by Flush() (or a
  /// checkpoint) are dropped.
  ~AccessSystem();

  /// Attach to existing on-device state (catalog + address table), or
  /// initialize a fresh database if none exists.
  util::Status Open();
  /// Drain deferred updates, persist catalog/address table, flush storage.
  util::Status Flush();

  // --- DDL -------------------------------------------------------------------

  /// Create an atom type; attribute/key validation in the catalog. Creates
  /// the base segment and, when `keys` is non-empty, the implicit unique
  /// key access path enforcing KEYS_ARE.
  util::Result<AtomTypeId> CreateAtomType(
      const std::string& name, std::vector<AttributeDef> attrs,
      const std::vector<std::string>& keys);
  util::Status DropAtomType(const std::string& name);

  // --- LDL (paper §2.3): transparent performance structures ------------------

  util::Result<uint32_t> CreateBTreeAccessPath(
      const std::string& name, const std::string& atom_type,
      const std::vector<std::string>& attrs, bool unique = false);
  util::Result<uint32_t> CreateGridAccessPath(
      const std::string& name, const std::string& atom_type,
      const std::vector<std::string>& attrs);
  util::Result<uint32_t> CreateSortOrder(const std::string& name,
                                         const std::string& atom_type,
                                         const std::vector<std::string>& attrs,
                                         const std::vector<bool>& asc = {});
  util::Result<uint32_t> CreatePartition(
      const std::string& name, const std::string& atom_type,
      const std::vector<std::string>& attrs);
  /// Atom-cluster type: characteristic atom type + the reference attributes
  /// whose targets belong to the cluster (paper Fig. 3.2a).
  util::Result<uint32_t> CreateAtomClusterType(
      const std::string& name, const std::string& char_type,
      const std::vector<std::string>& ref_attrs);
  util::Status DropStructure(const std::string& name);

  // --- atom operations (direct access by logical address) --------------------

  /// Insert an atom; IDENTIFIER attribute is system-assigned. Values may
  /// cover all or only selected attributes. Maintains back-references of
  /// every referenced atom and all redundancy transparently.
  util::Result<Tid> InsertAtom(AtomTypeId type, std::vector<AttrValue> values,
                               WriteTxn txn = {});

  /// Read a set of atoms as `view` sees them — one molecule level, say —
  /// whole, or only selected attributes (`projection` of attribute ids;
  /// empty = all), and append them to `out` in the order of `tids`. A tid
  /// that repeats is read once, where it first occurs.
  ///
  /// Each atom resolves to its current record if every chained write is
  /// visible to the view, and to the before-image the view needs otherwise
  /// (a delete the view cannot see resolves to the pre-delete image). An
  /// atom the view predates or does not see is left out of `out`, and the
  /// NotFound of the first such tid goes to `missing` when it is set. A
  /// projection covered by a partition is served from the partition copy
  /// (cheapest materialization wins) under the same rule: only when the
  /// atom resolves to its current record.
  ///
  /// Set-oriented: the base records are read by page — each page is fixed
  /// once and every wanted record on it decoded — and only then resolved
  /// against the version chains. A tid with no address, a long record,
  /// and a slot found dead or reused (a relocating write freed it after the
  /// address lookup) are read one at a time instead, through the read that
  /// waits out a relocation (`AccessStats::fetch_fallbacks` counts them).
  /// Errors other than NotFound are returned.
  util::Status GetAtoms(const std::vector<Tid>& tids, const ReadView& view,
                        std::vector<Atom>* out,
                        const std::vector<uint16_t>& projection = {},
                        util::Status* missing = nullptr);
  /// GetAtoms for one tid: the atom, or NotFound when the view does not
  /// see it.
  util::Result<Atom> GetAtom(const Tid& tid, const ReadView& view,
                             const std::vector<uint16_t>& projection = {});
  /// GetAtom under a view pinned for this one read: the atom as of the
  /// newest commit, for point reads outside any cursor.
  util::Result<Atom> GetAtom(const Tid& tid,
                             const std::vector<uint16_t>& projection = {});

  /// The atom's base record as it stands, uncommitted writes included.
  /// For code that reads under the atom's write lock (its own writes) and
  /// for the scan layer, whose candidates the executor resolves against
  /// the cursor's view; every other read goes through GetAtoms.
  /// Callers that already hold the atom type's definition pass it.
  util::Result<Atom> GetBaseAtom(const Tid& tid,
                                 const AtomTypeDef* def = nullptr);

  /// Modify selected attributes (never the IDENTIFIER). Reference changes
  /// imply implicit updates of the affected back-references.
  util::Status ModifyAtom(const Tid& tid, std::vector<AttrValue> changes,
                          WriteTxn txn = {});

  /// Delete an atom: disconnects every association, releases the surrogate.
  util::Status DeleteAtom(const Tid& tid, WriteTxn txn = {});

  /// Connect / disconnect one association pair (component management).
  util::Status Connect(const Tid& from, uint16_t attr, const Tid& to,
                       WriteTxn txn = {});
  util::Status Disconnect(const Tid& from, uint16_t attr, const Tid& to,
                          WriteTxn txn = {});

  /// True while the atom has a base record (lock-free).
  bool AtomExists(const Tid& tid) const { return addresses_.Exists(tid); }
  /// Atoms of a type with a base record; a counter the address table keeps
  /// per type, so this costs no walk.
  uint64_t AtomCount(AtomTypeId type) const {
    return addresses_.CountOfType(type);
  }
  /// All surrogates of a type in system-defined order: ascending sequence,
  /// read off that type's dense address slots alone.
  std::vector<Tid> AllAtoms(AtomTypeId type) const {
    return addresses_.AllOfType(type);
  }

  /// Enforce min-cardinality restrictions for one atom (deferred structural
  /// integrity check; max cardinality is enforced eagerly on writes).
  util::Status CheckIntegrity(const Tid& tid);

  // --- atom clusters ----------------------------------------------------------

  /// Read a whole cluster (one chained I/O on a cold buffer). `cluster_id`
  /// is the structure id; `char_tid` the characteristic atom.
  util::Result<ClusterImage> ReadCluster(uint32_t cluster_id,
                                         const Tid& char_tid);
  /// True when every atom of `image` resolves to its current record under
  /// `view`. The image holds the members' current records (refreshed by
  /// deferred drains) and no versions, so only then is it the view's
  /// molecule. Probe after reading the image, as any read probes its
  /// chain after reading the record.
  bool ImageServesView(const ClusterImage& image, const ReadView& view);
  /// The cluster structure (if any) whose characteristic type is
  /// `char_type` and whose member types cover `needed` types.
  const StructureDef* FindCoveringCluster(
      AtomTypeId char_type, const std::vector<AtomTypeId>& needed) const;
  /// Member atom types of a cluster structure (characteristic excluded).
  std::vector<AtomTypeId> ClusterMemberTypes(const StructureDef& def) const;

  // --- recovery interface (nested transactions, core/transaction.h) ----------

  /// Compensation operations, which undo one UndoRecord of transaction
  /// `txn_id`: adjust the base record, access paths, and redundancy
  /// WITHOUT back-reference maintenance (each maintenance write was
  /// recorded separately and compensates itself). Each logs a CLR under
  /// `txn_id`; none installs a version or records undo.
  util::Status RawDeleteAtom(const Tid& tid, uint64_t txn_id);
  util::Status RawRestoreAtom(const Atom& atom, uint64_t txn_id);
  util::Status RawOverwriteAtom(const Atom& before, uint64_t txn_id);

  // --- write-ahead logging / restart recovery --------------------------------

  /// Attach (or detach) the WAL. Every base-atom mutation then also appends
  /// an atom-level undo record (op, tid, rid, before image), tagged with
  /// its WriteTxn's id, whose LSN the write's UndoRecord keeps; Raw*
  /// compensations append redo-only (CLR) records.
  void SetWal(recovery::WalWriter* wal) { wal_ = wal; }
  recovery::WalWriter* wal() const { return wal_; }

  /// Restart fixup, applied in log order after the redo pass: reinstall the
  /// address-table side of one logged atom operation (the page bytes were
  /// already repeated by redo; this repeats the memory-resident mapping).
  /// Tolerant of re-application — recovery may crash and rerun.
  util::Status RecoverAtomFixup(recovery::AtomOp op, const Tid& tid,
                                uint64_t rid);

  /// Restart fixup for the deferred redundancy an atom lost in the crash:
  /// re-enqueue sort-order / partition / cluster maintenance. `ckpt_before`
  /// is the atom's image at the last checkpoint (nullptr when it did not
  /// exist then); the current base record decides liveness.
  util::Status RecoverRedundancy(const Tid& tid, const Atom* ckpt_before);

  /// Restart fixup for an access structure whose root/meta page moved
  /// after the last checkpoint persisted the catalog: re-point the
  /// attached structure (and the in-memory catalog) at the logged root.
  /// Replayed in log order, last record wins; an id the recovered catalog
  /// does not know (structure created after the checkpoint — DDL
  /// durability still rides on checkpoints) is skipped. Idempotent.
  util::Status RecoverStructureRoot(uint32_t structure_id, uint32_t root_page);

  /// Re-register partition copies of `tid` that were materialized (drained)
  /// before the crash but whose memory-resident address-table entry was
  /// lost: scans the partition file for a record carrying the tid and
  /// reattaches the mapping, so the re-enqueued maintenance updates it in
  /// place instead of inserting an orphan duplicate.
  util::Status ReattachPartitionCopies(const AtomTypeDef& def, const Tid& tid);

  // --- deferred update (paper §3.2) ------------------------------------------

  /// Apply every pending propagation for one structure (scans call this on
  /// open so they always see current data).
  util::Status DrainStructure(uint32_t structure_id);
  /// Apply everything (checkpoint).
  util::Status DrainAll();
  size_t PendingCount() const;

  // --- plumbing ---------------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  AddressTable& addresses() { return addresses_; }
  /// In-memory version chains for pinned-view reads. Writers install pending
  /// before-images here; the transaction layer publishes them at top-level
  /// commit and at every abort.
  VersionStore& versions() { return versions_; }
  storage::StorageSystem& storage() { return *storage_; }
  AccessStats& stats() { return stats_; }
  const AccessOptions& options() const { return options_; }

  /// Internal accessors used by the scan layer.
  RecordFile* BaseFile(AtomTypeId type);
  BTree* BTreeFor(uint32_t structure_id);
  GridFile* GridFor(uint32_t structure_id);
  RecordFile* PartitionFile(uint32_t structure_id);

  /// Decode an atom of `type` from record bytes.
  util::Result<Atom> DecodeAtom(AtomTypeId type, util::Slice bytes) const;

  /// Build the order-preserving composite key of `atom` over `attrs`
  /// (per-attribute asc flags optional) with the surrogate tie-breaker
  /// appended when `with_tid`.
  util::Result<std::string> BuildKey(const Atom& atom,
                                     const std::vector<uint16_t>& attrs,
                                     const std::vector<bool>& asc,
                                     bool with_tid) const;

 private:
  struct Pending {
    enum class Kind : uint8_t {
      kUpsert,          ///< refresh the structure's copy of `tid`
      kRemove,          ///< remove `tid` from the structure (aux: old key)
      kClusterRebuild,  ///< re-materialize the cluster of char atom `tid`
      kClusterRemove,   ///< drop the cluster of deleted char atom `tid`
    };
    uint32_t structure_id = 0;
    Kind kind = Kind::kUpsert;
    Tid tid;
    std::string aux;  ///< old sort key / partition rid (packed)
  };

  // --- internals (callers hold no locks; these take what they need) ---------

  util::Result<storage::SegmentId> NewSegment(storage::PageSize size);

  util::Status AttachStructures();
  util::Status BackfillStructure(const StructureDef& def);

  /// Read and decode the base record of `tid`. Callers that already hold
  /// the atom type's definition pass it, sparing a catalog lookup.
  util::Result<Atom> ReadBaseAtom(const Tid& tid,
                                  const AtomTypeDef* def = nullptr);
  util::Status WriteBaseAtom(const Tid& tid, const Atom& atom, bool is_new);
  /// The partition copy of `tid` covering `projection` (drained first), or
  /// nullopt when no partition covers it or holds the atom.
  util::Result<std::optional<Atom>> ReadPartitionCopy(
      const Tid& tid, const AtomTypeDef& def,
      const std::vector<uint16_t>& projection);

  /// One side of the implicit inverse maintenance: add/remove `target` in
  /// `atom_tid`.attr (scalar ref or set), a write of `txn`. No recursion
  /// back.
  util::Status AddBackRef(const Tid& atom_tid, uint16_t attr, const Tid& target,
                          const WriteTxn& txn);
  util::Status RemoveBackRef(const Tid& atom_tid, uint16_t attr,
                             const Tid& target, const WriteTxn& txn);

  util::Status MaintainKeyIndex(const AtomTypeDef& def, const Atom& old_atom,
                                const Atom* new_atom);
  util::Status MaintainAccessPaths(const AtomTypeDef& def, const Atom* old_atom,
                                   const Atom* new_atom, const Tid& tid);
  util::Status EnqueueRedundancy(const AtomTypeDef& def, const Atom* old_atom,
                                 const Atom* new_atom, const Tid& tid);
  util::Status EnqueueClusterMaintenance(const AtomTypeDef& def,
                                         const Atom* old_atom,
                                         const Atom* new_atom, const Tid& tid);
  void EnqueuePending(Pending p);
  util::Status ApplyPending(const Pending& p);

  util::Status MaterializeCluster(const StructureDef& def, const Tid& char_tid);
  util::Status RemoveClusterImage(const StructureDef& def, const Tid& char_tid);

  util::Result<std::string> EncodeSortKey(const StructureDef& def,
                                          const Atom& atom) const;
  util::Result<std::vector<std::string>> EncodeGridKeys(
      const StructureDef& def, const Atom& atom) const;

  util::Status PersistMetadata();

  /// Install a pending chain entry for a write of `txn` (a system write
  /// installs nothing) and append its UndoRecord, lsn 0; returns the
  /// record's index, for LogWrite. MUST run before the base record is
  /// overwritten: a reader reads base-then-chain.
  size_t InstallVersion(const WriteTxn& txn, const Tid& tid,
                        const Atom* before);
  /// Log the write InstallVersion recorded at `undo`, hand the record its
  /// kind and LSN and move it to the list's tail: a DELETE logs after its
  /// back-reference writes, and the list stays in log order.
  void LogWrite(const WriteTxn& txn, size_t undo, UndoRecord::Kind kind,
                const Tid& tid, const Atom* before);
  /// Append one atom-level log record tagged `txn_id` (none without a WAL)
  /// and return its LSN; `clr` marks a compensation: redone, never undone.
  uint64_t LogAtomOp(uint64_t txn_id, UndoRecord::Kind kind, const Tid& tid,
                     const Atom* before, bool clr);

  /// Record a structure's root/meta page move: in the catalog (in memory;
  /// persisted wholesale at the next checkpoint) AND as a kStructRoot log
  /// record, so a crash between the split and the checkpoint re-points the
  /// structure at restart instead of attaching it at the stale root.
  void NoteStructureRoot(uint32_t structure_id, uint32_t root_page);

  storage::StorageSystem* storage_;
  AccessOptions options_;
  Catalog catalog_;
  AddressTable addresses_;
  AccessStats stats_;
  VersionStore versions_;

  std::map<AtomTypeId, std::unique_ptr<RecordFile>> base_files_;
  std::map<uint32_t, std::unique_ptr<BTree>> btrees_;
  std::map<uint32_t, std::unique_ptr<GridFile>> grids_;
  std::map<uint32_t, std::unique_ptr<RecordFile>> partition_files_;

  mutable std::mutex pending_mu_;
  std::deque<Pending> pending_;

  recovery::WalWriter* wal_ = nullptr;

  // Serializes multi-structure mutations (atom writes). Reads are lock-free
  // at this level (page latches + structure mutexes below).
  std::mutex write_mu_;

  // Tests hold write_mu_ through it to stage a write in progress.
  friend class AccessSystemTestPeer;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_ACCESS_SYSTEM_H_
