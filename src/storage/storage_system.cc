#include "storage/storage_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace prima::storage {

using util::Result;
using util::Slice;
using util::Status;

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

PageGuard::PageGuard(BufferManager* buffer, Frame* frame, LatchMode mode)
    : buffer_(buffer), frame_(frame), mode_(mode) {
  if (mode_ == LatchMode::kShared) {
    frame_->latch.lock_shared();
  } else {
    frame_->latch.lock();
  }
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    buffer_ = other.buffer_;
    frame_ = other.frame_;
    mode_ = other.mode_;
    before_ = std::move(other.before_);
    fresh_format_ = other.fresh_format_;
    other.buffer_ = nullptr;
    other.frame_ = nullptr;
    other.fresh_format_ = false;
  }
  return *this;
}

char* PageGuard::mutable_data() {
  assert(mode_ == LatchMode::kExclusive);
  if (before_ == nullptr && buffer_->wal() != nullptr) {
    // Physiological logging: remember the pre-image so Release() can append
    // a redo record for exactly the bytes this guard changed. Left
    // uninitialized: the copy overwrites all of it.
    before_.reset(new char[frame_->size]);
    std::memcpy(before_.get(), frame_->data.get(), frame_->size);
  }
  buffer_->MarkDirty(frame_);
  return frame_->data.get();
}

void PageGuard::Release() {
  if (frame_ == nullptr) return;
  WriteAheadLog* wal = buffer_->wal();
  if (wal != nullptr && (before_ != nullptr || fresh_format_)) {
    // Still under the exclusive latch: append the redo record and stamp its
    // LSN before anyone (including the buffer's write-back path) can see
    // the new bytes. The first logged change of an epoch ships the full
    // image — restart redo starts at the checkpoint, and a page torn on
    // the device is only reconstructible from complete contents.
    const uint64_t epoch = wal->epoch();
    const bool full = fresh_format_ || frame_->wal_epoch != epoch;
    const uint64_t lsn =
        full ? wal->LogFullPage(frame_->id.segment, frame_->id.page,
                                frame_->size, frame_->data.get())
             : wal->LogPageDelta(frame_->id.segment, frame_->id.page,
                                 frame_->size, before_.get(),
                                 frame_->data.get());
    if (lsn != 0) {
      PageHeader::set_lsn(frame_->data.get(), lsn);
      frame_->wal_epoch = epoch;
    }
  }
  before_.reset();
  fresh_format_ = false;
  if (mode_ == LatchMode::kShared) {
    frame_->latch.unlock_shared();
  } else {
    frame_->latch.unlock();
  }
  buffer_->Unfix(frame_);
  frame_ = nullptr;
  buffer_ = nullptr;
}

// ---------------------------------------------------------------------------
// StorageSystem
// ---------------------------------------------------------------------------

namespace {
constexpr uint32_t kSegmentMagic = 0x5345474Du;  // "SEGM"

// Segment header page payload layout (after the common page header):
//   [0..4)  magic
//   [4]     page size code
//   [5..9)  page_count
//   [9..13) free list head
constexpr uint32_t kSegMetaBytes = 13;
}  // namespace

StorageSystem::StorageSystem(std::unique_ptr<BlockDevice> device,
                             StorageOptions options)
    : device_(std::move(device)),
      buffer_(std::make_unique<BufferManager>(
          device_.get(), options.buffer_bytes, options.buffer_policy,
          options.buffer_shards)) {}

StorageSystem::~StorageSystem() = default;

Status StorageSystem::Open() {
  for (SegmentId id : device_->ListFiles()) {
    if (IsReservedFileId(id)) continue;  // WAL / archive / backup files
    PRIMA_ASSIGN_OR_RETURN(const bool loaded, LoadSegmentMeta(id));
    if (!loaded) {
      std::lock_guard<std::mutex> lock(mu_);
      crash_torn_.insert(id);
    }
  }
  return Status::Ok();
}

void StorageSystem::SetWal(WriteAheadLog* wal) {
  wal_ = wal;
  buffer_->SetWal(wal);
}

void StorageSystem::LogSegMeta(SegmentId seg, const SegmentMeta& meta) {
  if (wal_ == nullptr) return;
  wal_->LogSegmentMeta(seg, static_cast<uint8_t>(meta.page_size),
                       meta.page_count, meta.free_head);
}

Result<bool> StorageSystem::LoadSegmentMeta(SegmentId id) {
  PRIMA_ASSIGN_OR_RETURN(const uint32_t bs, device_->BlockSizeOf(id));
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{id, 0}, bs, false));
  const char* payload = frame->data.get() + PageHeader::kSize;
  SegmentMeta meta;
  Status st;
  if (util::DecodeFixed32(payload) != kSegmentMagic) {
    if (PageIsAllZero(frame->data.get(), bs)) {
      // The file was created but its formatting never reached the device —
      // a crash landed between Create and the header write-back. Skip it
      // (the caller records it for replay) and evict the zeroed frame so
      // redo goes through the torn-aware non-resident path.
      buffer_->Unfix(frame);
      PRIMA_RETURN_IF_ERROR(buffer_->Discard(id));
      return false;
    }
    st = Status::Corruption("segment " + std::to_string(id) +
                            ": bad segment header magic");
  } else {
    meta.page_size = static_cast<PageSize>(payload[4]);
    meta.page_count = util::DecodeFixed32(payload + 5);
    meta.free_head = util::DecodeFixed32(payload + 9);
    meta.dirty = false;
  }
  buffer_->Unfix(frame);
  if (!st.ok()) return st;
  std::lock_guard<std::mutex> lock(mu_);
  segments_[id] = meta;
  return true;
}

Status StorageSystem::PersistSegmentMeta(SegmentId id, SegmentMeta* meta) {
  const uint32_t bs = PageSizeBytes(meta->page_size);
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{id, 0}, bs, false));
  {
    // Routed through PageGuard so the header write is WAL-logged like any
    // other page mutation.
    PageGuard guard(buffer_.get(), frame, LatchMode::kExclusive);
    char* page = guard.mutable_data();
    PageHeader::set_page_no(page, 0);
    PageHeader::set_type(page, PageType::kSegmentHeader);
    char* payload = page + PageHeader::kSize;
    util::EncodeFixed32(payload, kSegmentMagic);
    payload[4] = static_cast<char>(meta->page_size);
    util::EncodeFixed32(payload + 5, meta->page_count);
    util::EncodeFixed32(payload + 9, meta->free_head);
  }  // guard unlatches + unpins
  meta->dirty = false;
  return Status::Ok();
}

Status StorageSystem::CreateSegment(SegmentId id, PageSize size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (segments_.count(id) != 0) {
      return Status::AlreadyExists("segment " + std::to_string(id));
    }
  }
  PRIMA_RETURN_IF_ERROR(device_->Create(id, PageSizeBytes(size)));
  SegmentMeta meta;
  meta.page_size = size;
  meta.page_count = 1;
  meta.free_head = 0;
  // Materialize page 0 so reopen finds valid metadata even without Flush.
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{id, 0}, PageSizeBytes(size), true));
  buffer_->Unfix(frame);
  PRIMA_RETURN_IF_ERROR(PersistSegmentMeta(id, &meta));
  LogSegMeta(id, meta);
  std::lock_guard<std::mutex> lock(mu_);
  segments_[id] = meta;
  return Status::Ok();
}

Status StorageSystem::DropSegment(SegmentId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (segments_.erase(id) == 0) {
      return Status::NotFound("segment " + std::to_string(id));
    }
  }
  PRIMA_RETURN_IF_ERROR(buffer_->Discard(id));
  return device_->Remove(id);
}

bool StorageSystem::SegmentExists(SegmentId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.count(id) != 0;
}

Result<PageSize> StorageSystem::SegmentPageSize(SegmentId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(id);
  if (it == segments_.end()) {
    return Status::NotFound("segment " + std::to_string(id));
  }
  return it->second.page_size;
}

std::vector<SegmentId> StorageSystem::ListSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentId> out;
  out.reserve(segments_.size());
  for (const auto& [id, meta] : segments_) out.push_back(id);
  return out;
}

SegmentId StorageSystem::NextFreeSegmentId() const {
  std::lock_guard<std::mutex> lock(mu_);
  SegmentId id = 1;
  for (const auto& [existing, meta] : segments_) {
    if (existing >= id) id = existing + 1;
  }
  return id;
}

Result<PageGuard> StorageSystem::FixPage(SegmentId seg, uint32_t page_no,
                                         LatchMode mode) {
  uint32_t bs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(seg);
    if (it == segments_.end()) {
      return Status::NotFound("segment " + std::to_string(seg));
    }
    if (page_no >= it->second.page_count) {
      return Status::InvalidArgument("page " + std::to_string(page_no) +
                                     " beyond segment end");
    }
    bs = PageSizeBytes(it->second.page_size);
  }
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{seg, page_no}, bs, false));
  return PageGuard(buffer_.get(), frame, mode);
}

Result<uint32_t> StorageSystem::AllocatePageLocked(SegmentId seg,
                                                   SegmentMeta* meta) {
  meta->dirty = true;
  if (meta->free_head != 0) {
    const uint32_t page_no = meta->free_head;
    // The free page stores the next free page number in its header u64.
    PRIMA_ASSIGN_OR_RETURN(
        Frame* const frame,
        buffer_->Fix(PageId{seg, page_no}, PageSizeBytes(meta->page_size),
                     false));
    meta->free_head = static_cast<uint32_t>(PageHeader::u64(frame->data.get()));
    buffer_->Unfix(frame);
    return page_no;
  }
  return meta->page_count++;
}

Result<PageGuard> StorageSystem::NewPage(SegmentId seg, PageType type) {
  uint32_t page_no;
  uint32_t bs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(seg);
    if (it == segments_.end()) {
      return Status::NotFound("segment " + std::to_string(seg));
    }
    bs = PageSizeBytes(it->second.page_size);
    PRIMA_ASSIGN_OR_RETURN(page_no, AllocatePageLocked(seg, &it->second));
    LogSegMeta(seg, it->second);
  }
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{seg, page_no}, bs, true));
  PageGuard guard(buffer_.get(), frame, LatchMode::kExclusive);
  // A recycled free-list page may still hold stale bytes in its frame (and
  // unknown bytes on the device) — format from scratch and log the full
  // image rather than a delta.
  guard.MarkFreshlyFormatted();
  char* page = guard.mutable_data();
  std::memset(page, 0, bs);
  PageHeader::Format(page, bs, page_no, type);
  return guard;
}

Status StorageSystem::FreePage(SegmentId seg, uint32_t page_no) {
  if (page_no == 0) {
    return Status::InvalidArgument("cannot free the segment header page");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it == segments_.end()) {
    return Status::NotFound("segment " + std::to_string(seg));
  }
  SegmentMeta& meta = it->second;
  const uint32_t bs = PageSizeBytes(meta.page_size);
  PRIMA_ASSIGN_OR_RETURN(Frame* const frame,
                         buffer_->Fix(PageId{seg, page_no}, bs, false));
  {
    PageGuard guard(buffer_.get(), frame, LatchMode::kExclusive);
    guard.MarkFreshlyFormatted();
    char* page = guard.mutable_data();
    PageHeader::Format(page, bs, page_no, PageType::kFree);
    PageHeader::set_u64(page, meta.free_head);
  }
  meta.free_head = page_no;
  meta.dirty = true;
  LogSegMeta(seg, meta);
  return Status::Ok();
}

Result<uint32_t> StorageSystem::PageCount(SegmentId seg) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(seg);
  if (it == segments_.end()) {
    return Status::NotFound("segment " + std::to_string(seg));
  }
  return it->second.page_count;
}

// ---------------------------------------------------------------------------
// Page sequences
// ---------------------------------------------------------------------------

namespace {
// Sequence header payload: u32 total_len, u32 page_count, u32 pages[],
// or (page_count == 0) the payload inline.
constexpr uint32_t kSeqHeaderFixed = 8;

uint32_t MaxComponents(uint32_t page_size) {
  return (PagePayload(page_size) - kSeqHeaderFixed) / 4;
}
}  // namespace

Result<uint32_t> StorageSystem::CreateSequence(SegmentId seg, Slice payload) {
  PRIMA_ASSIGN_OR_RETURN(const PageSize ps, SegmentPageSize(seg));
  const uint32_t bs = PageSizeBytes(ps);
  const uint32_t comp_capacity = PagePayload(bs);
  const uint32_t inline_capacity = PagePayload(bs) - kSeqHeaderFixed;

  PRIMA_ASSIGN_OR_RETURN(PageGuard header, NewPage(seg, PageType::kSeqHeader));
  char* hp = header.mutable_data() + PageHeader::kSize;
  util::EncodeFixed32(hp, static_cast<uint32_t>(payload.size()));

  if (payload.size() <= inline_capacity) {
    util::EncodeFixed32(hp + 4, 0);
    std::memcpy(hp + kSeqHeaderFixed, payload.data(), payload.size());
    return header.page_no();
  }

  const uint32_t n_pages =
      static_cast<uint32_t>((payload.size() + comp_capacity - 1) / comp_capacity);
  if (n_pages > MaxComponents(bs)) {
    return Status::NoSpace("page sequence too long for header page");
  }
  util::EncodeFixed32(hp + 4, n_pages);
  size_t off = 0;
  for (uint32_t i = 0; i < n_pages; ++i) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard comp, NewPage(seg, PageType::kSeqComponent));
    const size_t chunk = std::min<size_t>(comp_capacity, payload.size() - off);
    std::memcpy(comp.mutable_data() + PageHeader::kSize, payload.data() + off,
                chunk);
    util::EncodeFixed32(hp + kSeqHeaderFixed + 4 * i, comp.page_no());
    off += chunk;
  }
  return header.page_no();
}

Result<std::string> StorageSystem::ReadSequence(SegmentId seg,
                                                uint32_t header_page) {
  PRIMA_ASSIGN_OR_RETURN(const PageSize ps, SegmentPageSize(seg));
  const uint32_t bs = PageSizeBytes(ps);
  const uint32_t comp_capacity = PagePayload(bs);

  PRIMA_ASSIGN_OR_RETURN(PageGuard header,
                         FixPage(seg, header_page, LatchMode::kShared));
  if (PageHeader::type(header.data()) != PageType::kSeqHeader) {
    return Status::Corruption("page " + std::to_string(header_page) +
                              " is not a sequence header");
  }
  const char* hp = header.data() + PageHeader::kSize;
  const uint32_t total_len = util::DecodeFixed32(hp);
  const uint32_t n_pages = util::DecodeFixed32(hp + 4);

  std::string out;
  out.reserve(total_len);
  if (n_pages == 0) {
    out.assign(hp + kSeqHeaderFixed, total_len);
    return out;
  }

  std::vector<uint32_t> pages(n_pages);
  for (uint32_t i = 0; i < n_pages; ++i) {
    pages[i] = util::DecodeFixed32(hp + kSeqHeaderFixed + 4 * i);
  }
  // The paper's "optimal transfer of the whole page sequence": all component
  // pages missing from the buffer arrive with one chained I/O.
  PRIMA_RETURN_IF_ERROR(buffer_->Prefetch(seg, pages, bs));

  size_t remaining = total_len;
  for (uint32_t p : pages) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard comp, FixPage(seg, p, LatchMode::kShared));
    const size_t chunk = std::min<size_t>(comp_capacity, remaining);
    out.append(comp.data() + PageHeader::kSize, chunk);
    remaining -= chunk;
  }
  return out;
}

Status StorageSystem::RewriteSequence(SegmentId seg, uint32_t header_page,
                                      Slice payload) {
  PRIMA_ASSIGN_OR_RETURN(const PageSize ps, SegmentPageSize(seg));
  const uint32_t bs = PageSizeBytes(ps);
  const uint32_t comp_capacity = PagePayload(bs);
  const uint32_t inline_capacity = PagePayload(bs) - kSeqHeaderFixed;

  PRIMA_ASSIGN_OR_RETURN(PageGuard header,
                         FixPage(seg, header_page, LatchMode::kExclusive));
  if (PageHeader::type(header.data()) != PageType::kSeqHeader) {
    return Status::Corruption("page " + std::to_string(header_page) +
                              " is not a sequence header");
  }
  const char* old_hp = header.data() + PageHeader::kSize;
  const uint32_t old_n = util::DecodeFixed32(old_hp + 4);
  std::vector<uint32_t> old_pages(old_n);
  for (uint32_t i = 0; i < old_n; ++i) {
    old_pages[i] = util::DecodeFixed32(old_hp + kSeqHeaderFixed + 4 * i);
  }

  // Build the new header payload. A resident component whose bytes are
  // unchanged keeps its page: only changed pages are written (and logged
  // — a fresh page is a full image), so persisting a large metadata blob
  // after a small change costs a few pages, not the whole blob. Evicted
  // components are rewritten without being read. The header switch stays
  // the last change, so a log cut before it still finds the old sequence
  // intact: kept pages are never modified, replaced ones are freed after.
  std::string head;
  util::PutFixed32(&head, static_cast<uint32_t>(payload.size()));
  std::vector<bool> kept(old_n, false);
  if (payload.size() <= inline_capacity) {
    util::PutFixed32(&head, 0);
    head.append(payload.data(), payload.size());
  } else {
    const uint32_t n_pages = static_cast<uint32_t>(
        (payload.size() + comp_capacity - 1) / comp_capacity);
    if (n_pages > MaxComponents(bs)) {
      return Status::NoSpace("page sequence too long for header page");
    }
    util::PutFixed32(&head, n_pages);
    size_t off = 0;
    for (uint32_t i = 0; i < n_pages; ++i) {
      const size_t chunk = std::min<size_t>(comp_capacity, payload.size() - off);
      if (i < old_n) {
        if (Frame* frame = buffer_->TryFix(PageId{seg, old_pages[i]})) {
          PageGuard old(buffer_.get(), frame, LatchMode::kShared);
          kept[i] = std::memcmp(old.data() + PageHeader::kSize,
                                payload.data() + off, chunk) == 0;
        }
      }
      uint32_t page_no = i < old_n ? old_pages[i] : 0;
      if (i >= old_n || !kept[i]) {
        PRIMA_ASSIGN_OR_RETURN(PageGuard comp,
                               NewPage(seg, PageType::kSeqComponent));
        std::memcpy(comp.mutable_data() + PageHeader::kSize,
                    payload.data() + off, chunk);
        page_no = comp.page_no();
      }
      util::PutFixed32(&head, page_no);
      off += chunk;
    }
  }
  std::memcpy(header.mutable_data() + PageHeader::kSize, head.data(),
              head.size());
  header.Release();
  for (uint32_t i = 0; i < old_n; ++i) {
    if (!kept[i]) PRIMA_RETURN_IF_ERROR(FreePage(seg, old_pages[i]));
  }
  return Status::Ok();
}

Status StorageSystem::DropSequence(SegmentId seg, uint32_t header_page) {
  std::vector<uint32_t> pages;
  {
    PRIMA_ASSIGN_OR_RETURN(PageGuard header,
                           FixPage(seg, header_page, LatchMode::kShared));
    if (PageHeader::type(header.data()) != PageType::kSeqHeader) {
      return Status::Corruption("page " + std::to_string(header_page) +
                                " is not a sequence header");
    }
    const char* hp = header.data() + PageHeader::kSize;
    const uint32_t n_pages = util::DecodeFixed32(hp + 4);
    for (uint32_t i = 0; i < n_pages; ++i) {
      pages.push_back(util::DecodeFixed32(hp + kSeqHeaderFixed + 4 * i));
    }
  }
  for (uint32_t p : pages) {
    PRIMA_RETURN_IF_ERROR(FreePage(seg, p));
  }
  return FreePage(seg, header_page);
}

Status StorageSystem::Flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, meta] : segments_) {
      if (meta.dirty) {
        PRIMA_RETURN_IF_ERROR(PersistSegmentMeta(id, &meta));
      }
    }
  }
  PRIMA_RETURN_IF_ERROR(buffer_->FlushAll());
  PRIMA_RETURN_IF_ERROR(device_->Sync());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Restart recovery
// ---------------------------------------------------------------------------

namespace {

// Install one redo entry's bytes. A full image (LogFullPage) carries the
// page's non-zero bytes and rebuilds the whole page from zeros; only such a
// record can repair a page whose device image is torn — a delta onto a
// zeroed base would silently destroy the rest of the page.
void ApplyRedoEntry(const StorageSystem::RedoEntry& e, char* data,
                    uint32_t page_size) {
  if (e.full_image) std::memset(data, 0, page_size);
  for (const auto& [offset, bytes] : e.ranges) {
    std::memcpy(data + offset, bytes.data(), bytes.size());
  }
  PageHeader::set_lsn(data, e.lsn);
}

}  // namespace

Result<StorageSystem::RedoChainResult> StorageSystem::RecoverApplyPageRedoChain(
    SegmentId seg, uint32_t page, uint32_t page_size,
    const std::vector<RedoEntry>& entries) {
  // The segment may postdate the last persisted metadata — recreate the
  // device file and grow the bookkeeping so the page is addressable. Under
  // mu_ whole: concurrent chains for different pages of the same fresh
  // segment would otherwise race the exists-check against the create.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!device_->Exists(seg)) {
      PRIMA_RETURN_IF_ERROR(device_->Create(seg, page_size));
    }
    auto it = segments_.find(seg);
    if (it == segments_.end()) {
      SegmentMeta fresh;
      fresh.page_size = PageSizeFromBytes(page_size);
      fresh.dirty = true;
      it = segments_.emplace(seg, fresh).first;
      crash_torn_.erase(seg);  // durable redo references it: reinstated
    }
    if (it->second.page_count <= page) {
      it->second.page_count = page + 1;
      it->second.dirty = true;
    }
  }

  RedoChainResult result;

  // Resident page: replay in place under the frame latch, or a later Fix
  // would serve the stale frame over our device-side bytes. Left dirty for
  // the post-recovery checkpoint like any other mutation.
  if (Frame* frame = buffer_->TryFix(PageId{seg, page}); frame != nullptr) {
    {
      std::unique_lock<std::shared_mutex> latch(frame->latch);
      char* data = frame->data.get();
      bool dirtied = false;
      for (const RedoEntry& e : entries) {
        // Redo idempotence (ARIES): apply iff the page is older.
        if (PageHeader::lsn(data) >= e.lsn) {
          result.skipped++;
          continue;
        }
        ApplyRedoEntry(e, data, page_size);
        dirtied = true;
        result.applied++;
      }
      if (dirtied) buffer_->MarkDirty(frame);
    }
    buffer_->Unfix(frame);
    return result;
  }

  // Non-resident: replay the whole chain on a worker-local copy of the
  // device image and write it back once, sealed. The redo records came out
  // of the durable log, so writing the page before any further log force
  // cannot violate the WAL rule; bypassing the buffer keeps parallel
  // workers off the pool mutex and recovery's working set out of the LRU.
  auto image = std::make_unique<char[]>(page_size);
  char* data = image.get();
  PRIMA_RETURN_IF_ERROR(device_->Read(seg, page, data));
  // A never-written page reads back all-zero and is a valid fresh base;
  // anything else failing its CRC is torn and waits for a full image.
  bool torn =
      !PageHeader::Verify(data, page_size) && !PageIsAllZero(data, page_size);
  bool dirtied = false;
  for (const RedoEntry& e : entries) {
    if (torn) {
      // A torn page's LSN is meaningless: the first full image heals it,
      // deltas ahead of it are held back (and the page may stay torn).
      if (!e.full_image) continue;
      torn = false;
    } else if (PageHeader::lsn(data) >= e.lsn) {
      result.skipped++;
      continue;
    }
    ApplyRedoEntry(e, data, page_size);
    dirtied = true;
    result.applied++;
  }
  if (torn) {
    // No full image in the chain: unrecoverable by replay. Leave the torn
    // device bytes untouched for forensics / media recovery.
    result.torn = true;
    return result;
  }
  if (dirtied) {
    PageHeader::Seal(data, page_size);
    PRIMA_RETURN_IF_ERROR(device_->Write(seg, page, data));
  }
  return result;
}

Status StorageSystem::RecoverSegmentMeta(SegmentId seg, PageSize size,
                                         uint32_t page_count,
                                         uint32_t free_head) {
  if (!device_->Exists(seg)) {
    PRIMA_RETURN_IF_ERROR(device_->Create(seg, PageSizeBytes(size)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  crash_torn_.erase(seg);  // replay repeated the creation: addressable again
  SegmentMeta& meta = segments_[seg];
  meta.page_size = size;
  meta.page_count = std::max(meta.page_count, page_count);
  meta.free_head = free_head;
  meta.dirty = true;
  return Status::Ok();
}

Result<size_t> StorageSystem::DropUnrecoveredSegments() {
  std::set<SegmentId> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(crash_torn_);
  }
  for (SegmentId id : doomed) {
    PRIMA_RETURN_IF_ERROR(device_->Remove(id));
  }
  return doomed.size();
}

}  // namespace prima::storage
