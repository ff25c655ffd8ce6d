#include "access/grid_file.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "util/coding.h"

namespace prima::access {

using storage::LatchMode;
using storage::PageGuard;
using storage::PageHeader;
using storage::PageType;
using util::Result;
using util::Slice;
using util::Status;

GridFile::GridFile(storage::StorageSystem* storage, storage::SegmentId segment,
                   size_t dims, uint32_t meta_page,
                   std::function<void(uint32_t)> on_meta_change)
    : storage_(storage),
      segment_(segment),
      dims_(dims),
      meta_page_(meta_page),
      on_meta_change_(std::move(on_meta_change)) {
  auto ps = storage_->SegmentPageSize(segment_);
  page_size_ = ps.ok() ? storage::PageSizeBytes(*ps) : 0;
}

size_t GridFile::DirSize() const {
  size_t n = 1;
  for (const auto& s : scales_) n *= s.size() + 1;
  return n;
}

size_t GridFile::CellIndex(const std::vector<size_t>& coord) const {
  size_t idx = 0;
  for (size_t d = 0; d < dims_; ++d) {
    idx = idx * (scales_[d].size() + 1) + coord[d];
  }
  return idx;
}

std::vector<size_t> GridFile::CoordOf(
    const std::vector<std::string>& keys) const {
  std::vector<size_t> coord(dims_);
  for (size_t d = 0; d < dims_; ++d) {
    // Cell c covers [scale[c-1], scale[c]); upper_bound of key.
    const auto& scale = scales_[d];
    coord[d] = static_cast<size_t>(
        std::upper_bound(scale.begin(), scale.end(), keys[d]) - scale.begin());
    // upper_bound gives first boundary > key; entries equal to a boundary
    // belong to the cell at/above it.
    if (coord[d] > 0 && keys[d] >= scale[coord[d] - 1]) {
      // correct: key >= lower boundary
    }
  }
  return coord;
}

size_t GridFile::EntryBytes(const Entry& e) {
  size_t n = 8;  // tid
  for (const auto& k : e.keys) n += 5 + k.size();
  return n;
}

size_t GridFile::BucketCapacityBytes() const {
  return storage::PagePayload(page_size_);
}

// ---------------------------------------------------------------------------
// Bucket pages. Header: u16a = entry count, u64 = overflow page.
// ---------------------------------------------------------------------------

Result<std::vector<GridFile::Entry>> GridFile::LoadBucket(
    uint32_t page_no, uint32_t* overflow) const {
  PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                         storage_->FixPage(segment_, page_no, LatchMode::kShared));
  const char* page = guard.data();
  if (PageHeader::type(page) != PageType::kGridBucket) {
    return Status::Corruption("page " + std::to_string(page_no) +
                              " is not a grid bucket");
  }
  *overflow = static_cast<uint32_t>(PageHeader::u64(page));
  const uint16_t count = PageHeader::u16a(page);
  Slice in(page + PageHeader::kSize, storage::PagePayload(page_size_));
  std::vector<Entry> entries;
  entries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Entry e;
    e.keys.resize(dims_);
    for (size_t d = 0; d < dims_; ++d) {
      Slice k;
      if (!util::GetLengthPrefixed(&in, &k)) {
        return Status::Corruption("truncated grid entry key");
      }
      e.keys[d] = k.ToString();
    }
    uint64_t packed;
    if (!util::GetFixed64(&in, &packed)) {
      return Status::Corruption("truncated grid entry tid");
    }
    e.tid = Tid::Unpack(packed);
    entries.push_back(std::move(e));
  }
  return entries;
}

Status GridFile::StoreBucket(uint32_t page_no, const std::vector<Entry>& entries,
                             uint32_t overflow) const {
  PRIMA_ASSIGN_OR_RETURN(
      PageGuard guard, storage_->FixPage(segment_, page_no, LatchMode::kExclusive));
  char* page = guard.mutable_data();
  PageHeader::set_type(page, PageType::kGridBucket);
  PageHeader::set_u16a(page, static_cast<uint16_t>(entries.size()));
  PageHeader::set_u64(page, overflow);
  std::string body;
  for (const auto& e : entries) {
    for (const auto& k : e.keys) util::PutLengthPrefixed(&body, k);
    util::PutFixed64(&body, e.tid.Pack());
  }
  if (body.size() > storage::PagePayload(page_size_)) {
    return Status::NoSpace("grid bucket overflow");
  }
  std::memcpy(page + PageHeader::kSize, body.data(), body.size());
  return Status::Ok();
}

Result<std::vector<GridFile::Entry>> GridFile::LoadChain(uint32_t page) const {
  std::vector<Entry> all;
  uint32_t current = page;
  while (current != 0) {
    uint32_t overflow = 0;
    PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> part, LoadBucket(current, &overflow));
    for (auto& e : part) all.push_back(std::move(e));
    current = overflow;
  }
  return all;
}

Status GridFile::StoreChain(uint32_t page, std::vector<Entry> entries) {
  // Collect the existing chain, reuse its pages, free the excess.
  std::vector<uint32_t> chain;
  uint32_t current = page;
  while (current != 0) {
    chain.push_back(current);
    uint32_t overflow = 0;
    PRIMA_ASSIGN_OR_RETURN(auto ignored, LoadBucket(current, &overflow));
    (void)ignored;
    current = overflow;
  }
  // Greedily pack entries into pages.
  std::vector<std::vector<Entry>> pages_content;
  pages_content.emplace_back();
  size_t used = 0;
  for (auto& e : entries) {
    const size_t sz = EntryBytes(e);
    if (used + sz > BucketCapacityBytes() && !pages_content.back().empty()) {
      pages_content.emplace_back();
      used = 0;
    }
    used += sz;
    pages_content.back().push_back(std::move(e));
  }
  while (chain.size() < pages_content.size()) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard g,
                           storage_->NewPage(segment_, PageType::kGridBucket));
    chain.push_back(g.page_no());
  }
  for (size_t i = pages_content.size(); i < chain.size(); ++i) {
    PRIMA_RETURN_IF_ERROR(storage_->FreePage(segment_, chain[i]));
  }
  chain.resize(pages_content.size());
  for (size_t i = 0; i < chain.size(); ++i) {
    const uint32_t next = i + 1 < chain.size() ? chain[i + 1] : 0;
    PRIMA_RETURN_IF_ERROR(StoreBucket(chain[i], pages_content[i], next));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Meta persistence: varint dims, per dim (varint n, keys...), varint dir
// size, u32 pages, varint entry_count.
// ---------------------------------------------------------------------------

Status GridFile::Save() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_ && meta_page_ != 0) return Status::Ok();
  std::string out;
  util::PutVarint64(&out, dims_);
  for (const auto& scale : scales_) {
    util::PutVarint64(&out, scale.size());
    for (const auto& b : scale) util::PutLengthPrefixed(&out, b);
  }
  util::PutVarint64(&out, directory_.size());
  for (uint32_t p : directory_) util::PutFixed32(&out, p);
  util::PutVarint64(&out, entry_count_);
  if (meta_page_ == 0) {
    PRIMA_ASSIGN_OR_RETURN(meta_page_, storage_->CreateSequence(segment_, out));
    if (on_meta_change_) on_meta_change_(meta_page_);
  } else {
    PRIMA_RETURN_IF_ERROR(storage_->RewriteSequence(segment_, meta_page_, out));
  }
  dirty_ = false;
  return Status::Ok();
}

Status GridFile::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) return Status::Ok();
  opened_ = true;
  if (meta_page_ == 0) {
    // Fresh grid: one cell, one empty bucket.
    scales_.assign(dims_, {});
    PRIMA_ASSIGN_OR_RETURN(PageGuard g,
                           storage_->NewPage(segment_, PageType::kGridBucket));
    directory_.assign(1, g.page_no());
    dirty_ = true;
    return Status::Ok();
  }
  PRIMA_ASSIGN_OR_RETURN(std::string blob,
                         storage_->ReadSequence(segment_, meta_page_));
  Slice in(blob);
  uint64_t dims;
  if (!util::GetVarint64(&in, &dims) || dims != dims_) {
    return Status::Corruption("grid meta: dimension mismatch");
  }
  scales_.assign(dims_, {});
  for (size_t d = 0; d < dims_; ++d) {
    uint64_t n;
    if (!util::GetVarint64(&in, &n)) return Status::Corruption("grid scale");
    for (uint64_t i = 0; i < n; ++i) {
      Slice b;
      if (!util::GetLengthPrefixed(&in, &b)) {
        return Status::Corruption("grid boundary");
      }
      scales_[d].push_back(b.ToString());
    }
  }
  uint64_t dir_size;
  if (!util::GetVarint64(&in, &dir_size)) {
    return Status::Corruption("grid directory size");
  }
  directory_.resize(dir_size);
  for (uint64_t i = 0; i < dir_size; ++i) {
    if (!util::GetFixed32(&in, &directory_[i])) {
      return Status::Corruption("grid directory entry");
    }
  }
  if (!util::GetVarint64(&in, &entry_count_)) {
    return Status::Corruption("grid entry count");
  }
  if (directory_.size() != DirSize()) {
    return Status::Corruption("grid directory / scale mismatch");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Insert / split / delete
// ---------------------------------------------------------------------------

Status GridFile::SplitBucket(uint32_t bucket_page,
                             const std::vector<size_t>& coord) {
  PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> entries, LoadChain(bucket_page));
  // Choose a split boundary: prefer the dimension with the most distinct
  // values; the boundary must not be the dimension's minimum (the lower
  // cell would stay empty) and must not already be a scale boundary (no
  // progress). If no dimension offers such a value the bucket is
  // degenerate; the caller chains an overflow page instead.
  size_t best_dim = dims_;
  std::string boundary;
  size_t best_distinct = 1;
  for (size_t d = 0; d < dims_; ++d) {
    std::set<std::string> distinct;
    for (const auto& e : entries) distinct.insert(e.keys[d]);
    if (distinct.size() <= best_distinct) continue;
    // Candidate boundaries: every distinct value except the minimum, tried
    // from the median outwards, skipping existing scale boundaries.
    std::vector<std::string> values(distinct.begin(), distinct.end());
    const auto& scale = scales_[d];
    std::string chosen;
    const size_t mid = values.size() / 2;
    for (size_t off = 0; off < values.size(); ++off) {
      // mid, mid+1, mid-1, mid+2, ...
      const size_t i = off % 2 == 0 ? mid + off / 2 : mid - (off + 1) / 2;
      if (i == 0 || i >= values.size()) continue;
      if (!std::binary_search(scale.begin(), scale.end(), values[i])) {
        chosen = values[i];
        break;
      }
    }
    if (chosen.empty()) continue;
    best_distinct = distinct.size();
    best_dim = d;
    boundary = chosen;
  }
  if (best_dim == dims_) {
    return Status::NotSupported("degenerate grid bucket");
  }

  auto& scale = scales_[best_dim];
  const auto pos_it = std::lower_bound(scale.begin(), scale.end(), boundary);
  const size_t pos = static_cast<size_t>(pos_it - scale.begin());
  scale.insert(scale.begin() + pos, boundary);

  // Expand the directory along best_dim: new cell j maps to old cell j for
  // j <= pos, old cell j-1 for j > pos.
  std::vector<size_t> new_sizes(dims_);
  for (size_t d = 0; d < dims_; ++d) new_sizes[d] = scales_[d].size() + 1;
  std::vector<uint32_t> new_dir(DirSize());
  for (size_t idx = 0; idx < new_dir.size(); ++idx) {
    size_t rem = idx;
    std::vector<size_t> c(dims_);
    for (size_t d = dims_; d-- > 0;) {
      c[d] = rem % new_sizes[d];
      rem /= new_sizes[d];
    }
    std::vector<size_t> old_c = c;
    if (old_c[best_dim] > pos) old_c[best_dim] -= 1;
    size_t old_idx = 0;
    for (size_t d = 0; d < dims_; ++d) {
      const size_t old_n = d == best_dim ? new_sizes[d] - 1 : new_sizes[d];
      old_idx = old_idx * old_n + old_c[d];
    }
    new_dir[idx] = directory_[old_idx];
  }
  directory_ = std::move(new_dir);

  // Fresh bucket for the >= boundary side of the overflowing region.
  PRIMA_ASSIGN_OR_RETURN(PageGuard g,
                         storage_->NewPage(segment_, PageType::kGridBucket));
  const uint32_t new_bucket = g.page_no();
  g.Release();
  std::vector<Entry> lower, upper;
  for (auto& e : entries) {
    (e.keys[best_dim] < boundary ? lower : upper).push_back(std::move(e));
  }
  for (size_t idx = 0; idx < directory_.size(); ++idx) {
    if (directory_[idx] != bucket_page) continue;
    size_t rem = idx;
    std::vector<size_t> c(dims_);
    for (size_t d = dims_; d-- > 0;) {
      c[d] = rem % new_sizes[d];
      rem /= new_sizes[d];
    }
    if (c[best_dim] > pos) directory_[idx] = new_bucket;
  }
  PRIMA_RETURN_IF_ERROR(StoreChain(bucket_page, std::move(lower)));
  PRIMA_RETURN_IF_ERROR(StoreChain(new_bucket, std::move(upper)));
  dirty_ = true;
  (void)coord;
  return Status::Ok();
}

Status GridFile::Insert(const std::vector<std::string>& keys, Tid tid) {
  if (keys.size() != dims_) {
    return Status::InvalidArgument("grid key dimension mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry{keys, tid};
  if (EntryBytes(entry) > BucketCapacityBytes()) {
    return Status::NotSupported("grid entry larger than a bucket page");
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::vector<size_t> coord = CoordOf(keys);
    const uint32_t bucket = directory_[CellIndex(coord)];
    uint32_t overflow = 0;
    PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> entries,
                           LoadBucket(bucket, &overflow));
    // Uniqueness check across the chain.
    PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> all, LoadChain(bucket));
    for (const auto& e : all) {
      if (e.tid == tid && e.keys == keys) {
        return Status::AlreadyExists("duplicate grid entry");
      }
    }
    size_t used = 0;
    for (const auto& e : entries) used += EntryBytes(e);
    if (overflow == 0 && used + EntryBytes(entry) > BucketCapacityBytes()) {
      const Status st = SplitBucket(bucket, coord);
      if (st.ok()) continue;  // re-locate: the cell may now map elsewhere
      if (!st.IsNotSupported()) return st;
      // Degenerate bucket: grow an overflow chain.
      all.push_back(std::move(entry));
      PRIMA_RETURN_IF_ERROR(StoreChain(bucket, std::move(all)));
      ++entry_count_;
      dirty_ = true;
      return Status::Ok();
    }
    // Room in the main page, or a chain already exists (append to chain).
    if (used + EntryBytes(entry) <= BucketCapacityBytes()) {
      entries.push_back(std::move(entry));
      PRIMA_RETURN_IF_ERROR(StoreBucket(bucket, entries, overflow));
    } else {
      all.push_back(std::move(entry));
      PRIMA_RETURN_IF_ERROR(StoreChain(bucket, std::move(all)));
    }
    ++entry_count_;
    dirty_ = true;
    return Status::Ok();
  }
  return Status::Corruption("grid split did not converge");
}

Status GridFile::Delete(const std::vector<std::string>& keys, Tid tid) {
  if (keys.size() != dims_) {
    return Status::InvalidArgument("grid key dimension mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<size_t> coord = CoordOf(keys);
  const uint32_t bucket = directory_[CellIndex(coord)];
  PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> all, LoadChain(bucket));
  const size_t before = all.size();
  all.erase(std::remove_if(all.begin(), all.end(),
                           [&](const Entry& e) {
                             return e.tid == tid && e.keys == keys;
                           }),
            all.end());
  if (all.size() == before) return Status::NotFound("grid entry");
  PRIMA_RETURN_IF_ERROR(StoreChain(bucket, std::move(all)));
  --entry_count_;
  dirty_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

Result<std::vector<GridFile::Match>> GridFile::Query(
    const std::vector<QueryRange>& ranges,
    const std::vector<size_t>& dim_priority) const {
  if (ranges.size() != dims_) {
    return Status::InvalidArgument("grid query dimension mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Per-dimension cell windows intersecting the query brick.
  std::vector<std::pair<size_t, size_t>> window(dims_);  // [lo, hi] cells
  for (size_t d = 0; d < dims_; ++d) {
    const auto& scale = scales_[d];
    size_t lo = 0, hi = scale.size();
    if (ranges[d].lo) {
      lo = static_cast<size_t>(
          std::upper_bound(scale.begin(), scale.end(), *ranges[d].lo) -
          scale.begin());
    }
    if (ranges[d].hi) {
      hi = static_cast<size_t>(
          std::upper_bound(scale.begin(), scale.end(), *ranges[d].hi) -
          scale.begin());
    }
    window[d] = {lo, hi};
  }
  // Enumerate cells in the brick; visit each distinct bucket once.
  std::set<uint32_t> visited;
  std::vector<Match> out;
  std::vector<size_t> coord(dims_);
  for (size_t d = 0; d < dims_; ++d) coord[d] = window[d].first;
  for (;;) {
    const uint32_t bucket = directory_[CellIndex(coord)];
    if (visited.insert(bucket).second) {
      PRIMA_ASSIGN_OR_RETURN(std::vector<Entry> entries, LoadChain(bucket));
      for (auto& e : entries) {
        bool match = true;
        for (size_t d = 0; d < dims_ && match; ++d) {
          const auto& r = ranges[d];
          if (r.lo) {
            const int c = Slice(e.keys[d]).Compare(Slice(*r.lo));
            if (c < 0 || (c == 0 && !r.lo_inclusive)) match = false;
          }
          if (match && r.hi) {
            const int c = Slice(e.keys[d]).Compare(Slice(*r.hi));
            if (c > 0 || (c == 0 && !r.hi_inclusive)) match = false;
          }
        }
        if (match) out.push_back(Match{std::move(e.keys), e.tid});
      }
    }
    // Advance the coordinate (odometer).
    size_t d = dims_;
    while (d-- > 0) {
      if (coord[d] < window[d].second) {
        ++coord[d];
        break;
      }
      coord[d] = window[d].first;
      if (d == 0) {
        d = SIZE_MAX;
        break;
      }
    }
    if (d == SIZE_MAX || dims_ == 0) break;
  }
  // Order by the requested per-dimension directions & priority.
  std::vector<size_t> priority = dim_priority;
  if (priority.empty()) {
    priority.resize(dims_);
    for (size_t d = 0; d < dims_; ++d) priority[d] = d;
  }
  std::sort(out.begin(), out.end(), [&](const Match& a, const Match& b) {
    for (size_t p : priority) {
      const int c = Slice(a.keys[p]).Compare(Slice(b.keys[p]));
      if (c != 0) return ranges[p].asc ? c < 0 : c > 0;
    }
    return a.tid.Pack() < b.tid.Pack();
  });
  return out;
}

std::vector<size_t> GridFile::CellCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> out(dims_);
  for (size_t d = 0; d < dims_; ++d) out[d] = scales_[d].size() + 1;
  return out;
}

}  // namespace prima::access
