#ifndef PRIMA_ACCESS_BTREE_H_
#define PRIMA_ACCESS_BTREE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/storage_system.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::access {

/// Disk-resident B*-tree with doubly-chained leaves, so key-sequential
/// NEXT *and* PRIOR traversal are both native (paper §3.2: "linear orders
/// based on B*-trees only allow sequential NEXT/PRIOR traversal" — the scan
/// layer builds start/stop navigation on top of this).
///
/// Keys are arbitrary byte strings compared with memcmp (callers use the
/// order-preserving encodings from util/coding.h) and must be unique —
/// non-unique access paths append the atom surrogate as a tie-breaker.
/// Values are byte strings: 8-byte surrogates for access paths, whole
/// record images for sort orders.
///
/// Reads go down one descent (Descend): each node is fixed once under a
/// shared latch, its page type read from that fix, and the child picked by
/// scanning the inner node's length-prefixed entries where they lie on the
/// page, every length checked against the payload. Get scans the leaf the
/// same way and copies out only the matching value; the iterator's seeks
/// decode the one leaf they land on. Insert and delete decode a node, modify
/// it and store it back (one shared fix to load, one exclusive fix to store).
///
/// Concurrency: one mutex per tree serializes Get, Insert, Put and Delete
/// (index-level locking), so a Get never sees a split half done; page
/// latches only guard each fix. Iterators do not take the mutex: they hold
/// no latch between calls and read each leaf under its own shared fix.
/// Deletion is lazy: empty nodes are unlinked, but non-empty nodes never
/// merge — standard prototype trade-off.
class BTree {
 public:
  /// Attach to an existing tree rooted at `root_page`.
  /// `on_root_change` fires when a root split/collapse moves the root (the
  /// owner persists it into the catalog's StructureDef).
  BTree(storage::StorageSystem* storage, storage::SegmentId segment,
        uint32_t root_page, std::function<void(uint32_t)> on_root_change);

  /// Create an empty tree (a single leaf) in `segment`; returns the root.
  static util::Result<uint32_t> Create(storage::StorageSystem* storage,
                                       storage::SegmentId segment);

  util::Status Insert(util::Slice key, util::Slice value);
  /// Replace the value of an existing key (inserts if absent).
  util::Status Put(util::Slice key, util::Slice value);
  util::Status Delete(util::Slice key);
  util::Result<std::optional<std::string>> Get(util::Slice key);

  uint32_t root_page() const { return root_page_; }
  /// Re-point the tree at `root_page` (restart recovery: the catalog's
  /// persisted root predates splits the log replayed onto the pages).
  void SetRoot(uint32_t root_page) { root_page_ = root_page; }

 private:
  /// Where a descent goes: the leaf covering a key, or the first or last
  /// leaf.
  enum class Descent { kKey, kFirst, kLast };

 public:
  /// Leaf-level cursor. Operations return a Status; after a failed
  /// operation the iterator is invalid.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return entries_[index_].first; }
    const std::string& value() const { return entries_[index_].second; }

    util::Status SeekToFirst();
    util::Status SeekToLast();
    /// Position at the first entry with key >= target.
    util::Status Seek(util::Slice target);
    /// Position at the last entry with key <= target.
    util::Status SeekForPrev(util::Slice target);
    util::Status Next();
    util::Status Prev();

   private:
    friend class BTree;
    explicit Iterator(BTree* tree) : tree_(tree) {}

    /// Decode the leaf `leaf` holds fixed, the leaf at `page`, or the leaf
    /// a descent reaches.
    util::Status LoadLeaf(const storage::PageGuard& leaf);
    util::Status LoadLeaf(uint32_t page);
    util::Status LoadLeaf(Descent to, util::Slice key);

    BTree* tree_;
    bool valid_ = false;
    uint32_t leaf_page_ = 0;
    uint32_t prev_leaf_ = 0;
    uint32_t next_leaf_ = 0;
    std::vector<std::pair<std::string, std::string>> entries_;
    size_t index_ = 0;
  };

  Iterator NewIterator() { return Iterator(this); }

  /// Total number of (key, value) entries — O(leaves), used by tests.
  util::Result<uint64_t> CountEntries();

  /// Largest entry (key+value bytes) the tree accepts.
  uint32_t MaxEntryBytes() const;

 private:
  struct LeafNode {
    uint32_t prev = 0;
    uint32_t next = 0;
    std::vector<std::pair<std::string, std::string>> entries;
  };
  struct InnerNode {
    uint32_t leftmost = 0;  // child covering keys < entries[0].key
    std::vector<std::pair<std::string, uint32_t>> entries;
  };
  struct Split {
    std::string separator;  // first key of the new right sibling
    uint32_t right_page = 0;
  };

  /// Fix each node on the way from the root once (shared) and return the
  /// leaf, still fixed. `key` is read only for Descent::kKey.
  util::Result<storage::PageGuard> Descend(Descent to, util::Slice key);

  util::Result<storage::PageGuard> FixShared(uint32_t page);
  util::Result<LeafNode> DecodeLeaf(const char* page, uint32_t page_no) const;
  util::Result<InnerNode> DecodeInner(const char* page, uint32_t page_no) const;
  util::Result<LeafNode> LoadLeaf(uint32_t page);
  /// Fix `page` once and decode it into *leaf or *inner; true for a leaf.
  util::Result<bool> LoadNode(uint32_t page, LeafNode* leaf, InnerNode* inner);
  util::Status StoreLeaf(uint32_t page, const LeafNode& node);
  util::Status StoreInner(uint32_t page, const InnerNode& node);

  static size_t LeafEncodedSize(const LeafNode& node);
  static size_t InnerEncodedSize(const InnerNode& node);

  /// Insert into the subtree; returns a Split if the node divided.
  /// `replace`: overwrite existing keys instead of failing.
  util::Result<std::optional<Split>> InsertRec(uint32_t page, util::Slice key,
                                               util::Slice value, bool replace);
  /// Delete from the subtree; sets *now_empty when the node lost its last
  /// entry (the parent unlinks it).
  util::Status DeleteRec(uint32_t page, util::Slice key, bool* now_empty);

  util::Status InsertImpl(util::Slice key, util::Slice value, bool replace);

  // Which child of `node` covers `key`: returns the child page.
  static uint32_t ChildFor(const InnerNode& node, util::Slice key);

  storage::StorageSystem* storage_;
  storage::SegmentId segment_;
  uint32_t page_size_;
  uint32_t root_page_;
  std::function<void(uint32_t)> on_root_change_;
  std::mutex mu_;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_BTREE_H_
