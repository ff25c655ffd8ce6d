#include "access/btree.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"

namespace prima::access {

using storage::LatchMode;
using storage::PageGuard;
using storage::PageHeader;
using storage::PageType;
using util::Result;
using util::Slice;
using util::Status;

namespace {
// Leaf header u64 packs [prev:32][next:32].
uint64_t PackChain(uint32_t prev, uint32_t next) {
  return (static_cast<uint64_t>(prev) << 32) | next;
}

// util::GetLengthPrefixed with the one-byte length (< 128, every key and
// surrogate value) decoded inline: the in-place scans below call it for
// each entry they pass.
inline bool NextPrefixed(Slice* in, Slice* out) {
  if (in->empty() || static_cast<uint8_t>((*in)[0]) >= 0x80) {
    return util::GetLengthPrefixed(in, out);
  }
  const size_t len = static_cast<uint8_t>((*in)[0]);
  if (in->size() - 1 < len) return false;
  *out = Slice(in->data() + 1, len);
  in->RemovePrefix(1 + len);
  return true;
}
}  // namespace

BTree::BTree(storage::StorageSystem* storage, storage::SegmentId segment,
             uint32_t root_page, std::function<void(uint32_t)> on_root_change)
    : storage_(storage),
      segment_(segment),
      root_page_(root_page),
      on_root_change_(std::move(on_root_change)) {
  auto ps = storage_->SegmentPageSize(segment_);
  page_size_ = ps.ok() ? storage::PageSizeBytes(*ps) : 0;
}

Result<uint32_t> BTree::Create(storage::StorageSystem* storage,
                               storage::SegmentId segment) {
  PRIMA_ASSIGN_OR_RETURN(PageGuard root,
                         storage->NewPage(segment, PageType::kBTreeLeaf));
  char* page = root.mutable_data();
  PageHeader::set_u16a(page, 0);
  PageHeader::set_u64(page, PackChain(0, 0));
  return root.page_no();
}

uint32_t BTree::MaxEntryBytes() const {
  // A node must always be able to hold at least two entries after a split.
  return (storage::PagePayload(page_size_) - 64) / 2;
}

// ---------------------------------------------------------------------------
// Node (de)serialization
// ---------------------------------------------------------------------------

Result<PageGuard> BTree::FixShared(uint32_t page_no) {
  return storage_->FixPage(segment_, page_no, LatchMode::kShared);
}

Result<BTree::LeafNode> BTree::DecodeLeaf(const char* page,
                                          uint32_t page_no) const {
  if (PageHeader::type(page) != PageType::kBTreeLeaf) {
    return Status::Corruption("page " + std::to_string(page_no) +
                              " is not a B*-tree leaf");
  }
  LeafNode node;
  const uint64_t chain = PageHeader::u64(page);
  node.prev = static_cast<uint32_t>(chain >> 32);
  node.next = static_cast<uint32_t>(chain & 0xFFFFFFFFu);
  const uint16_t count = PageHeader::u16a(page);
  Slice in(page + PageHeader::kSize, storage::PagePayload(page_size_));
  node.entries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Slice key, value;
    if (!util::GetLengthPrefixed(&in, &key) ||
        !util::GetLengthPrefixed(&in, &value)) {
      return Status::Corruption("truncated leaf entry");
    }
    node.entries.emplace_back(key.ToString(), value.ToString());
  }
  return node;
}

Result<BTree::InnerNode> BTree::DecodeInner(const char* page,
                                            uint32_t page_no) const {
  if (PageHeader::type(page) != PageType::kBTreeInner) {
    return Status::Corruption("page " + std::to_string(page_no) +
                              " is not a B*-tree node");
  }
  InnerNode node;
  node.leftmost = static_cast<uint32_t>(PageHeader::u64(page));
  const uint16_t count = PageHeader::u16a(page);
  Slice in(page + PageHeader::kSize, storage::PagePayload(page_size_));
  node.entries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Slice key;
    uint32_t child;
    if (!util::GetLengthPrefixed(&in, &key) || !util::GetFixed32(&in, &child)) {
      return Status::Corruption("truncated inner entry");
    }
    node.entries.emplace_back(key.ToString(), child);
  }
  return node;
}

Result<BTree::LeafNode> BTree::LoadLeaf(uint32_t page_no) {
  PRIMA_ASSIGN_OR_RETURN(const PageGuard guard, FixShared(page_no));
  return DecodeLeaf(guard.data(), page_no);
}

Result<bool> BTree::LoadNode(uint32_t page_no, LeafNode* leaf,
                             InnerNode* inner) {
  PRIMA_ASSIGN_OR_RETURN(const PageGuard guard, FixShared(page_no));
  if (PageHeader::type(guard.data()) == PageType::kBTreeLeaf) {
    PRIMA_ASSIGN_OR_RETURN(*leaf, DecodeLeaf(guard.data(), page_no));
    return true;
  }
  PRIMA_ASSIGN_OR_RETURN(*inner, DecodeInner(guard.data(), page_no));
  return false;
}

Status BTree::StoreLeaf(uint32_t page_no, const LeafNode& node) {
  PRIMA_ASSIGN_OR_RETURN(
      PageGuard guard, storage_->FixPage(segment_, page_no, LatchMode::kExclusive));
  char* page = guard.mutable_data();
  PageHeader::set_type(page, PageType::kBTreeLeaf);
  PageHeader::set_u16a(page, static_cast<uint16_t>(node.entries.size()));
  PageHeader::set_u64(page, PackChain(node.prev, node.next));
  std::string body;
  for (const auto& [k, v] : node.entries) {
    util::PutLengthPrefixed(&body, k);
    util::PutLengthPrefixed(&body, v);
  }
  if (body.size() > storage::PagePayload(page_size_)) {
    return Status::NoSpace("leaf overflow");  // callers split before storing
  }
  std::memcpy(page + PageHeader::kSize, body.data(), body.size());
  return Status::Ok();
}

Status BTree::StoreInner(uint32_t page_no, const InnerNode& node) {
  PRIMA_ASSIGN_OR_RETURN(
      PageGuard guard, storage_->FixPage(segment_, page_no, LatchMode::kExclusive));
  char* page = guard.mutable_data();
  PageHeader::set_type(page, PageType::kBTreeInner);
  PageHeader::set_u16a(page, static_cast<uint16_t>(node.entries.size()));
  PageHeader::set_u64(page, node.leftmost);
  std::string body;
  for (const auto& [k, child] : node.entries) {
    util::PutLengthPrefixed(&body, k);
    util::PutFixed32(&body, child);
  }
  if (body.size() > storage::PagePayload(page_size_)) {
    return Status::NoSpace("inner overflow");
  }
  std::memcpy(page + PageHeader::kSize, body.data(), body.size());
  return Status::Ok();
}

size_t BTree::LeafEncodedSize(const LeafNode& node) {
  size_t s = 0;
  for (const auto& [k, v] : node.entries) {
    s += 10 + k.size() + v.size();  // varint bounds
  }
  return s;
}

size_t BTree::InnerEncodedSize(const InnerNode& node) {
  size_t s = 0;
  for (const auto& [k, child] : node.entries) {
    s += 9 + k.size();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Descent
// ---------------------------------------------------------------------------

Result<PageGuard> BTree::Descend(Descent to, Slice key) {
  uint32_t page_no = root_page_;
  for (;;) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard, FixShared(page_no));
    const char* page = guard.data();
    const PageType type = PageHeader::type(page);
    if (type == PageType::kBTreeLeaf) {
      return Result<PageGuard>(std::move(guard));
    }
    if (type != PageType::kBTreeInner) {
      return Status::Corruption("page " + std::to_string(page_no) +
                                " is not a B*-tree node");
    }
    // entries[i] covers [key_i, key_{i+1}); leftmost covers < key_0. The
    // entries are read where they lie, each length checked by the decoder
    // against what is left of the payload.
    page_no = static_cast<uint32_t>(PageHeader::u64(page));
    if (to == Descent::kFirst) continue;
    Slice in(page + PageHeader::kSize, storage::PagePayload(page_size_));
    for (uint16_t i = 0, n = PageHeader::u16a(page); i < n; ++i) {
      Slice separator;
      uint32_t child;
      if (!NextPrefixed(&in, &separator) || !util::GetFixed32(&in, &child)) {
        return Status::Corruption("truncated inner entry");
      }
      if (to == Descent::kKey && key.Compare(separator) < 0) break;
      page_no = child;
    }
  }
}

uint32_t BTree::ChildFor(const InnerNode& node, Slice key) {
  // entries[i] covers [key_i, key_{i+1}); leftmost covers < key_0.
  uint32_t child = node.leftmost;
  for (const auto& [k, c] : node.entries) {
    if (key.Compare(Slice(k)) >= 0) {
      child = c;
    } else {
      break;
    }
  }
  return child;
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Result<std::optional<BTree::Split>> BTree::InsertRec(uint32_t page_no,
                                                     Slice key, Slice value,
                                                     bool replace) {
  LeafNode leaf;
  InnerNode node;
  PRIMA_ASSIGN_OR_RETURN(const bool is_leaf, LoadNode(page_no, &leaf, &node));
  if (is_leaf) {
    auto it = std::lower_bound(
        leaf.entries.begin(), leaf.entries.end(), key,
        [](const auto& e, const Slice& k) { return Slice(e.first).Compare(k) < 0; });
    if (it != leaf.entries.end() && Slice(it->first) == key) {
      if (!replace) return Status::AlreadyExists("duplicate B*-tree key");
      it->second = value.ToString();
    } else {
      leaf.entries.insert(it, {key.ToString(), value.ToString()});
    }
    if (LeafEncodedSize(leaf) <= storage::PagePayload(page_size_)) {
      PRIMA_RETURN_IF_ERROR(StoreLeaf(page_no, leaf));
      return std::optional<Split>();
    }
    // Split: move the upper half to a fresh right sibling.
    const size_t mid = leaf.entries.size() / 2;
    LeafNode right;
    right.entries.assign(leaf.entries.begin() + mid, leaf.entries.end());
    leaf.entries.resize(mid);
    PRIMA_ASSIGN_OR_RETURN(PageGuard right_guard,
                           storage_->NewPage(segment_, PageType::kBTreeLeaf));
    const uint32_t right_page = right_guard.page_no();
    right_guard.Release();
    right.prev = page_no;
    right.next = leaf.next;
    leaf.next = right_page;
    if (right.next != 0) {
      PRIMA_ASSIGN_OR_RETURN(LeafNode after, LoadLeaf(right.next));
      after.prev = right_page;
      PRIMA_RETURN_IF_ERROR(StoreLeaf(right.next, after));
    }
    PRIMA_RETURN_IF_ERROR(StoreLeaf(right_page, right));
    PRIMA_RETURN_IF_ERROR(StoreLeaf(page_no, leaf));
    return std::optional<Split>(Split{right.entries.front().first, right_page});
  }

  const uint32_t child = ChildFor(node, key);
  PRIMA_ASSIGN_OR_RETURN(auto split, InsertRec(child, key, value, replace));
  if (!split) return std::optional<Split>();

  auto it = std::lower_bound(node.entries.begin(), node.entries.end(),
                             Slice(split->separator),
                             [](const auto& e, const Slice& k) {
                               return Slice(e.first).Compare(k) < 0;
                             });
  node.entries.insert(it, {split->separator, split->right_page});
  if (InnerEncodedSize(node) <= storage::PagePayload(page_size_)) {
    PRIMA_RETURN_IF_ERROR(StoreInner(page_no, node));
    return std::optional<Split>();
  }
  // Split the inner node; the median separator moves up.
  const size_t mid = node.entries.size() / 2;
  InnerNode right;
  std::string median = node.entries[mid].first;
  right.leftmost = node.entries[mid].second;
  right.entries.assign(node.entries.begin() + mid + 1, node.entries.end());
  node.entries.resize(mid);
  PRIMA_ASSIGN_OR_RETURN(PageGuard right_guard,
                         storage_->NewPage(segment_, PageType::kBTreeInner));
  const uint32_t right_page = right_guard.page_no();
  right_guard.Release();
  PRIMA_RETURN_IF_ERROR(StoreInner(right_page, right));
  PRIMA_RETURN_IF_ERROR(StoreInner(page_no, node));
  return std::optional<Split>(Split{std::move(median), right_page});
}

Status BTree::InsertImpl(Slice key, Slice value, bool replace) {
  if (key.size() + value.size() > MaxEntryBytes()) {
    return Status::NotSupported("entry exceeds B*-tree node capacity");
  }
  std::lock_guard<std::mutex> lock(mu_);
  PRIMA_ASSIGN_OR_RETURN(auto split, InsertRec(root_page_, key, value, replace));
  if (!split) return Status::Ok();
  // Root split: the tree grows a level; the root page moves.
  PRIMA_ASSIGN_OR_RETURN(PageGuard root_guard,
                         storage_->NewPage(segment_, PageType::kBTreeInner));
  const uint32_t new_root = root_guard.page_no();
  root_guard.Release();
  InnerNode root;
  root.leftmost = root_page_;
  root.entries.push_back({split->separator, split->right_page});
  PRIMA_RETURN_IF_ERROR(StoreInner(new_root, root));
  root_page_ = new_root;
  if (on_root_change_) on_root_change_(new_root);
  return Status::Ok();
}

Status BTree::Insert(Slice key, Slice value) {
  return InsertImpl(key, value, /*replace=*/false);
}

Status BTree::Put(Slice key, Slice value) {
  return InsertImpl(key, value, /*replace=*/true);
}

// ---------------------------------------------------------------------------
// Delete / Get
// ---------------------------------------------------------------------------

Status BTree::DeleteRec(uint32_t page_no, Slice key, bool* now_empty) {
  *now_empty = false;
  LeafNode leaf;
  InnerNode node;
  PRIMA_ASSIGN_OR_RETURN(const bool is_leaf, LoadNode(page_no, &leaf, &node));
  if (is_leaf) {
    auto it = std::lower_bound(
        leaf.entries.begin(), leaf.entries.end(), key,
        [](const auto& e, const Slice& k) { return Slice(e.first).Compare(k) < 0; });
    if (it == leaf.entries.end() || Slice(it->first) != key) {
      return Status::NotFound("B*-tree key");
    }
    leaf.entries.erase(it);
    if (leaf.entries.empty() && page_no != root_page_) {
      // Unlink from the leaf chain; the parent will drop the page.
      if (leaf.prev != 0) {
        PRIMA_ASSIGN_OR_RETURN(LeafNode prev, LoadLeaf(leaf.prev));
        prev.next = leaf.next;
        PRIMA_RETURN_IF_ERROR(StoreLeaf(leaf.prev, prev));
      }
      if (leaf.next != 0) {
        PRIMA_ASSIGN_OR_RETURN(LeafNode next, LoadLeaf(leaf.next));
        next.prev = leaf.prev;
        PRIMA_RETURN_IF_ERROR(StoreLeaf(leaf.next, next));
      }
      *now_empty = true;
      return Status::Ok();
    }
    return StoreLeaf(page_no, leaf);
  }

  const uint32_t child = ChildFor(node, key);
  bool child_empty = false;
  PRIMA_RETURN_IF_ERROR(DeleteRec(child, key, &child_empty));
  if (!child_empty) return Status::Ok();

  PRIMA_RETURN_IF_ERROR(storage_->FreePage(segment_, child));
  if (child == node.leftmost) {
    if (node.entries.empty()) {
      *now_empty = true;  // parent drops this inner node too
      return Status::Ok();
    }
    node.leftmost = node.entries.front().second;
    node.entries.erase(node.entries.begin());
  } else {
    for (auto it = node.entries.begin(); it != node.entries.end(); ++it) {
      if (it->second == child) {
        node.entries.erase(it);
        break;
      }
    }
  }
  return StoreInner(page_no, node);
}

Status BTree::Delete(Slice key) {
  std::lock_guard<std::mutex> lock(mu_);
  bool root_empty = false;
  PRIMA_RETURN_IF_ERROR(DeleteRec(root_page_, key, &root_empty));
  // Height collapse: an inner root with no separators has a single child.
  uint32_t only_child = 0;
  {
    PRIMA_ASSIGN_OR_RETURN(const PageGuard root, FixShared(root_page_));
    const char* page = root.data();
    if (PageHeader::type(page) == PageType::kBTreeInner &&
        PageHeader::u16a(page) == 0) {
      only_child = static_cast<uint32_t>(PageHeader::u64(page));
    }
  }
  if (only_child != 0) {
    const uint32_t old_root = root_page_;
    root_page_ = only_child;
    PRIMA_RETURN_IF_ERROR(storage_->FreePage(segment_, old_root));
    if (on_root_change_) on_root_change_(root_page_);
  }
  return Status::Ok();
}

Result<std::optional<std::string>> BTree::Get(Slice key) {
  std::lock_guard<std::mutex> lock(mu_);
  PRIMA_ASSIGN_OR_RETURN(const PageGuard leaf, Descend(Descent::kKey, key));
  // Scan the sorted entries in place; only the matching value is copied.
  const char* page = leaf.data();
  Slice in(page + PageHeader::kSize, storage::PagePayload(page_size_));
  for (uint16_t i = 0, n = PageHeader::u16a(page); i < n; ++i) {
    Slice k, v;
    if (!NextPrefixed(&in, &k) || !NextPrefixed(&in, &v)) {
      return Status::Corruption("truncated leaf entry");
    }
    const int c = k.Compare(key);
    if (c == 0) return std::optional<std::string>(v.ToString());
    if (c > 0) break;
  }
  return std::optional<std::string>();
}

Result<uint64_t> BTree::CountEntries() {
  auto it = NewIterator();
  PRIMA_RETURN_IF_ERROR(it.SeekToFirst());
  uint64_t n = 0;
  while (it.Valid()) {
    ++n;
    PRIMA_RETURN_IF_ERROR(it.Next());
  }
  return n;
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

Status BTree::Iterator::LoadLeaf(const PageGuard& leaf) {
  PRIMA_ASSIGN_OR_RETURN(BTree::LeafNode node,
                         tree_->DecodeLeaf(leaf.data(), leaf.page_no()));
  leaf_page_ = leaf.page_no();
  prev_leaf_ = node.prev;
  next_leaf_ = node.next;
  entries_ = std::move(node.entries);
  return Status::Ok();
}

Status BTree::Iterator::LoadLeaf(uint32_t page) {
  PRIMA_ASSIGN_OR_RETURN(const PageGuard leaf, tree_->FixShared(page));
  return LoadLeaf(leaf);
}

Status BTree::Iterator::LoadLeaf(Descent to, Slice key) {
  PRIMA_ASSIGN_OR_RETURN(const PageGuard leaf, tree_->Descend(to, key));
  return LoadLeaf(leaf);
}

Status BTree::Iterator::SeekToFirst() {
  valid_ = false;
  PRIMA_RETURN_IF_ERROR(LoadLeaf(Descent::kFirst, Slice()));
  // Skip empty leaves (the root can be empty).
  while (entries_.empty() && next_leaf_ != 0) {
    PRIMA_RETURN_IF_ERROR(LoadLeaf(next_leaf_));
  }
  index_ = 0;
  valid_ = !entries_.empty();
  return Status::Ok();
}

Status BTree::Iterator::SeekToLast() {
  valid_ = false;
  PRIMA_RETURN_IF_ERROR(LoadLeaf(Descent::kLast, Slice()));
  while (entries_.empty() && prev_leaf_ != 0) {
    PRIMA_RETURN_IF_ERROR(LoadLeaf(prev_leaf_));
  }
  if (entries_.empty()) return Status::Ok();
  index_ = entries_.size() - 1;
  valid_ = true;
  return Status::Ok();
}

Status BTree::Iterator::Seek(Slice target) {
  valid_ = false;
  PRIMA_RETURN_IF_ERROR(LoadLeaf(Descent::kKey, target));
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), target,
      [](const auto& e, const Slice& k) { return Slice(e.first).Compare(k) < 0; });
  index_ = static_cast<size_t>(it - entries_.begin());
  while (index_ >= entries_.size()) {
    if (next_leaf_ == 0) return Status::Ok();
    PRIMA_RETURN_IF_ERROR(LoadLeaf(next_leaf_));
    index_ = 0;
  }
  valid_ = true;
  return Status::Ok();
}

Status BTree::Iterator::SeekForPrev(Slice target) {
  PRIMA_RETURN_IF_ERROR(Seek(target));
  if (valid_ && Slice(key()) == target) return Status::Ok();
  if (!valid_) return SeekToLast();
  return Prev();
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid iterator");
  ++index_;
  while (index_ >= entries_.size()) {
    if (next_leaf_ == 0) {
      valid_ = false;
      return Status::Ok();
    }
    PRIMA_RETURN_IF_ERROR(LoadLeaf(next_leaf_));
    index_ = 0;
  }
  return Status::Ok();
}

Status BTree::Iterator::Prev() {
  if (!valid_) return Status::InvalidArgument("Prev on invalid iterator");
  while (index_ == 0) {
    if (prev_leaf_ == 0) {
      valid_ = false;
      return Status::Ok();
    }
    PRIMA_RETURN_IF_ERROR(LoadLeaf(prev_leaf_));
    if (entries_.empty()) continue;
    index_ = entries_.size();
  }
  --index_;
  return Status::Ok();
}

}  // namespace prima::access
