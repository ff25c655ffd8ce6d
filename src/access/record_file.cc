#include "access/record_file.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace prima::access {

using storage::LatchMode;
using storage::PageGuard;
using storage::PageHeader;
using storage::PageType;
using util::Result;
using util::Slice;
using util::Status;

namespace {
uint16_t SlotOffset(const char* page, uint32_t page_size, uint16_t slot) {
  return util::DecodeFixed16(page + page_size - 4 * (slot + 1));
}
uint16_t SlotLen(const char* page, uint32_t page_size, uint16_t slot) {
  return util::DecodeFixed16(page + page_size - 4 * (slot + 1) + 2);
}
void SetSlot(char* page, uint32_t page_size, uint16_t slot, uint16_t offset,
             uint16_t len) {
  util::EncodeFixed16(page + page_size - 4 * (slot + 1), offset);
  util::EncodeFixed16(page + page_size - 4 * (slot + 1) + 2, len);
}
}  // namespace

RecordFile::RecordFile(storage::StorageSystem* storage,
                       storage::SegmentId segment)
    : storage_(storage), segment_(segment) {}

Status RecordFile::Open() {
  PRIMA_ASSIGN_OR_RETURN(const storage::PageSize ps,
                         storage_->SegmentPageSize(segment_));
  page_size_ = storage::PageSizeBytes(ps);
  PRIMA_ASSIGN_OR_RETURN(const uint32_t page_count,
                         storage_->PageCount(segment_));
  std::lock_guard<std::mutex> lock(mu_);
  free_space_.clear();
  record_count_ = 0;
  for (uint32_t p = 1; p < page_count; ++p) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                           storage_->FixPage(segment_, p, LatchMode::kShared));
    const PageType type = PageHeader::type(guard.data());
    if (type == PageType::kSlotted) {
      free_space_[p] = TotalFree(guard.data(), page_size_);
      const uint16_t n_slots = PageHeader::u16a(guard.data());
      for (uint16_t s = 0; s < n_slots; ++s) {
        if (SlotOffset(guard.data(), page_size_, s) != 0) ++record_count_;
      }
    } else if (type == PageType::kSeqHeader) {
      ++record_count_;
    }
  }
  return Status::Ok();
}

uint32_t RecordFile::ContiguousFree(const char* page, uint32_t page_size) {
  const uint16_t n_slots = PageHeader::u16a(page);
  const uint16_t free_start = PageHeader::u16b(page);
  const uint32_t slot_area = page_size - kSlotBytes * n_slots;
  return slot_area > free_start ? slot_area - free_start : 0;
}

uint32_t RecordFile::TotalFree(const char* page, uint32_t page_size) {
  return ContiguousFree(page, page_size) + PageHeader::u16c(page);
}

void RecordFile::Compact(char* page, uint32_t page_size) {
  const uint16_t n_slots = PageHeader::u16a(page);
  struct Live {
    uint16_t slot;
    uint16_t offset;
    uint16_t len;
  };
  std::vector<Live> live;
  for (uint16_t s = 0; s < n_slots; ++s) {
    const uint16_t off = SlotOffset(page, page_size, s);
    if (off != 0) live.push_back({s, off, SlotLen(page, page_size, s)});
  }
  // Copy live payloads into a scratch area, then lay them out densely.
  std::string scratch;
  scratch.reserve(page_size);
  for (const auto& l : live) scratch.append(page + l.offset, l.len);
  uint16_t cursor = PageHeader::kSize;
  size_t scratch_off = 0;
  for (const auto& l : live) {
    std::memcpy(page + cursor, scratch.data() + scratch_off, l.len);
    SetSlot(page, page_size, l.slot, cursor, l.len);
    cursor = static_cast<uint16_t>(cursor + l.len);
    scratch_off += l.len;
  }
  PageHeader::set_u16b(page, cursor);  // free_start
  PageHeader::set_u16c(page, 0);       // garbage
}

Result<RecordId> RecordFile::InsertIntoPage(PageGuard* guard, Slice record) {
  char* page = guard->mutable_data();
  const uint16_t n_slots = PageHeader::u16a(page);
  // Reuse a dead slot if possible (keeps the slot array compact).
  uint16_t slot = n_slots;
  for (uint16_t s = 0; s < n_slots; ++s) {
    if (SlotOffset(page, page_size_, s) == 0) {
      slot = s;
      break;
    }
  }
  const uint32_t need =
      static_cast<uint32_t>(record.size()) + (slot == n_slots ? kSlotBytes : 0);
  if (ContiguousFree(page, page_size_) < need) {
    if (TotalFree(page, page_size_) < need) {
      return Status::NoSpace("page full");
    }
    Compact(page, page_size_);
  }
  const uint16_t offset = PageHeader::u16b(page);
  std::memcpy(page + offset, record.data(), record.size());
  if (slot == n_slots) PageHeader::set_u16a(page, n_slots + 1);
  SetSlot(page, page_size_, slot, offset,
          static_cast<uint16_t>(record.size()));
  PageHeader::set_u16b(page, static_cast<uint16_t>(offset + record.size()));
  return RecordId{guard->page_no(), slot};
}

Result<RecordId> RecordFile::InsertShort(Slice record) {
  // Find a slotted page with room (free-space cache), else grow.
  uint32_t candidate = 0;
  const uint32_t need = static_cast<uint32_t>(record.size()) + kSlotBytes;
  for (const auto& [p, free] : free_space_) {
    if (free >= need) {
      candidate = p;
      break;
    }
  }
  if (candidate != 0) {
    PRIMA_ASSIGN_OR_RETURN(
        PageGuard guard,
        storage_->FixPage(segment_, candidate, LatchMode::kExclusive));
    auto rid = InsertIntoPage(&guard, record);
    if (rid.ok()) {
      free_space_[candidate] = TotalFree(guard.data(), page_size_);
      return rid;
    }
    // Stale cache entry; fall through to allocation.
    free_space_[candidate] = TotalFree(guard.data(), page_size_);
  }
  PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                         storage_->NewPage(segment_, PageType::kSlotted));
  char* page = guard.mutable_data();
  PageHeader::set_u16b(page, PageHeader::kSize);  // free_start
  PRIMA_ASSIGN_OR_RETURN(const RecordId rid, InsertIntoPage(&guard, record));
  free_space_[guard.page_no()] = TotalFree(guard.data(), page_size_);
  return rid;
}

Result<RecordId> RecordFile::Insert(Slice record) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordId rid;
  if (record.size() > MaxShortRecord()) {
    PRIMA_ASSIGN_OR_RETURN(const uint32_t header,
                           storage_->CreateSequence(segment_, record));
    rid = RecordId{header, RecordId::kLongRecordSlot};
  } else {
    PRIMA_ASSIGN_OR_RETURN(rid, InsertShort(record));
  }
  ++record_count_;
  return rid;
}

Result<PinnedRecord> RecordFile::Read(const RecordId& rid) const {
  if (rid.IsLong()) {
    PRIMA_ASSIGN_OR_RETURN(std::string bytes,
                           storage_->ReadSequence(segment_, rid.page));
    return PinnedRecord(std::move(bytes));
  }
  PRIMA_ASSIGN_OR_RETURN(PageGuard guard, FixForRead(rid.page));
  PRIMA_ASSIGN_OR_RETURN(const Slice bytes, SlotBytes(guard, rid.slot));
  return PinnedRecord(std::move(guard), bytes);
}

Result<PageGuard> RecordFile::FixForRead(uint32_t page) const {
  return storage_->FixPage(segment_, page, LatchMode::kShared);
}

Result<Slice> RecordFile::SlotBytes(const PageGuard& guard,
                                    uint16_t slot) const {
  const char* page = guard.data();
  const uint64_t packed = RecordId{guard.page_no(), slot}.Pack();
  if (PageHeader::type(page) != PageType::kSlotted ||
      slot >= PageHeader::u16a(page)) {
    return Status::NotFound("record " + std::to_string(packed));
  }
  const uint16_t offset = SlotOffset(page, page_size_, slot);
  if (offset == 0) {
    return Status::NotFound("record " + std::to_string(packed) + " deleted");
  }
  return Slice(page + offset, SlotLen(page, page_size_, slot));
}

Status RecordFile::Delete(const RecordId& rid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rid.IsLong()) {
    PRIMA_RETURN_IF_ERROR(storage_->DropSequence(segment_, rid.page));
    --record_count_;
    return Status::Ok();
  }
  PRIMA_ASSIGN_OR_RETURN(
      PageGuard guard,
      storage_->FixPage(segment_, rid.page, LatchMode::kExclusive));
  char* page = guard.mutable_data();
  if (PageHeader::type(page) != PageType::kSlotted ||
      rid.slot >= PageHeader::u16a(page)) {
    return Status::NotFound("record " + std::to_string(rid.Pack()));
  }
  const uint16_t offset = SlotOffset(page, page_size_, rid.slot);
  if (offset == 0) {
    return Status::NotFound("record already deleted");
  }
  const uint16_t len = SlotLen(page, page_size_, rid.slot);
  SetSlot(page, page_size_, rid.slot, 0, 0);
  PageHeader::set_u16c(page,
                       static_cast<uint16_t>(PageHeader::u16c(page) + len));
  free_space_[rid.page] = TotalFree(page, page_size_);
  --record_count_;
  return Status::Ok();
}

Result<RecordId> RecordFile::Update(const RecordId& rid, Slice record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rid.IsLong()) {
    if (record.size() > MaxShortRecord()) {
      PRIMA_RETURN_IF_ERROR(
          storage_->RewriteSequence(segment_, rid.page, record));
      return rid;
    }
    PRIMA_RETURN_IF_ERROR(storage_->DropSequence(segment_, rid.page));
    return InsertShort(record);
  }
  {
    PRIMA_ASSIGN_OR_RETURN(
        PageGuard guard,
        storage_->FixPage(segment_, rid.page, LatchMode::kExclusive));
    char* page = guard.mutable_data();
    if (PageHeader::type(page) != PageType::kSlotted ||
        rid.slot >= PageHeader::u16a(page)) {
      return Status::NotFound("record " + std::to_string(rid.Pack()));
    }
    const uint16_t offset = SlotOffset(page, page_size_, rid.slot);
    if (offset == 0) return Status::NotFound("record deleted");
    const uint16_t old_len = SlotLen(page, page_size_, rid.slot);
    if (record.size() <= old_len) {
      // Shrinking (or equal) update stays in place.
      std::memcpy(page + offset, record.data(), record.size());
      SetSlot(page, page_size_, rid.slot, offset,
              static_cast<uint16_t>(record.size()));
      PageHeader::set_u16c(
          page, static_cast<uint16_t>(PageHeader::u16c(page) +
                                      (old_len - record.size())));
      free_space_[rid.page] = TotalFree(page, page_size_);
      return rid;
    }
    // Try growing within the same page: drop + reinsert into this page.
    SetSlot(page, page_size_, rid.slot, 0, 0);
    PageHeader::set_u16c(
        page, static_cast<uint16_t>(PageHeader::u16c(page) + old_len));
    if (record.size() <= MaxShortRecord() &&
        TotalFree(page, page_size_) >= record.size()) {
      // Reuses the same slot index (first dead slot).
      auto new_rid = InsertIntoPage(&guard, record);
      if (new_rid.ok()) {
        free_space_[rid.page] = TotalFree(guard.data(), page_size_);
        return new_rid;
      }
    }
    free_space_[rid.page] = TotalFree(page, page_size_);
  }
  // Move elsewhere.
  if (record.size() > MaxShortRecord()) {
    PRIMA_ASSIGN_OR_RETURN(const uint32_t header,
                           storage_->CreateSequence(segment_, record));
    return RecordId{header, RecordId::kLongRecordSlot};
  }
  return InsertShort(record);
}

std::optional<uint16_t> RecordFile::LiveSlotFrom(const char* page,
                                                 uint32_t page_size,
                                                 uint16_t from) {
  const uint16_t n_slots = PageHeader::u16a(page);
  for (uint16_t s = from; s < n_slots; ++s) {
    if (SlotOffset(page, page_size, s) != 0) return s;
  }
  return std::nullopt;
}

std::optional<uint16_t> RecordFile::LiveSlotBefore(const char* page,
                                                   uint32_t page_size,
                                                   uint16_t before) {
  for (uint16_t s = before; s-- > 0;) {
    if (SlotOffset(page, page_size, s) != 0) return s;
  }
  return std::nullopt;
}

Result<std::optional<RecordId>> RecordFile::First() const {
  PRIMA_ASSIGN_OR_RETURN(const uint32_t page_count,
                         storage_->PageCount(segment_));
  for (uint32_t p = 1; p < page_count; ++p) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                           storage_->FixPage(segment_, p, LatchMode::kShared));
    const PageType type = PageHeader::type(guard.data());
    if (type == PageType::kSlotted) {
      auto slot = LiveSlotFrom(guard.data(), page_size_, 0);
      if (slot) return std::optional<RecordId>(RecordId{p, *slot});
    } else if (type == PageType::kSeqHeader) {
      return std::optional<RecordId>(RecordId{p, RecordId::kLongRecordSlot});
    }
  }
  return std::optional<RecordId>();
}

Result<std::optional<RecordId>> RecordFile::Next(const RecordId& rid) const {
  PRIMA_ASSIGN_OR_RETURN(const uint32_t page_count,
                         storage_->PageCount(segment_));
  // Continue within the starting page first.
  if (!rid.IsLong()) {
    PRIMA_ASSIGN_OR_RETURN(
        PageGuard guard, storage_->FixPage(segment_, rid.page, LatchMode::kShared));
    if (PageHeader::type(guard.data()) == PageType::kSlotted) {
      auto slot = LiveSlotFrom(guard.data(), page_size_,
                               static_cast<uint16_t>(rid.slot + 1));
      if (slot) return std::optional<RecordId>(RecordId{rid.page, *slot});
    }
  }
  for (uint32_t p = rid.page + 1; p < page_count; ++p) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                           storage_->FixPage(segment_, p, LatchMode::kShared));
    const PageType type = PageHeader::type(guard.data());
    if (type == PageType::kSlotted) {
      auto slot = LiveSlotFrom(guard.data(), page_size_, 0);
      if (slot) return std::optional<RecordId>(RecordId{p, *slot});
    } else if (type == PageType::kSeqHeader) {
      return std::optional<RecordId>(RecordId{p, RecordId::kLongRecordSlot});
    }
  }
  return std::optional<RecordId>();
}

Result<std::optional<RecordId>> RecordFile::Prev(const RecordId& rid) const {
  if (!rid.IsLong() && rid.slot > 0) {
    PRIMA_ASSIGN_OR_RETURN(
        PageGuard guard, storage_->FixPage(segment_, rid.page, LatchMode::kShared));
    if (PageHeader::type(guard.data()) == PageType::kSlotted) {
      auto slot = LiveSlotBefore(guard.data(), page_size_, rid.slot);
      if (slot) return std::optional<RecordId>(RecordId{rid.page, *slot});
    }
  }
  for (uint32_t p = rid.page; p-- > 1;) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                           storage_->FixPage(segment_, p, LatchMode::kShared));
    const PageType type = PageHeader::type(guard.data());
    if (type == PageType::kSlotted) {
      auto slot = LiveSlotBefore(guard.data(), page_size_,
                                 PageHeader::u16a(guard.data()));
      if (slot) return std::optional<RecordId>(RecordId{p, *slot});
    } else if (type == PageType::kSeqHeader) {
      return std::optional<RecordId>(RecordId{p, RecordId::kLongRecordSlot});
    }
  }
  return std::optional<RecordId>();
}

Result<std::optional<RecordId>> RecordFile::Last() const {
  PRIMA_ASSIGN_OR_RETURN(const uint32_t page_count,
                         storage_->PageCount(segment_));
  for (uint32_t p = page_count; p-- > 1;) {
    PRIMA_ASSIGN_OR_RETURN(PageGuard guard,
                           storage_->FixPage(segment_, p, LatchMode::kShared));
    const PageType type = PageHeader::type(guard.data());
    if (type == PageType::kSlotted) {
      auto slot = LiveSlotBefore(guard.data(), page_size_,
                                 PageHeader::u16a(guard.data()));
      if (slot) return std::optional<RecordId>(RecordId{p, *slot});
    } else if (type == PageType::kSeqHeader) {
      return std::optional<RecordId>(RecordId{p, RecordId::kLongRecordSlot});
    }
  }
  return std::optional<RecordId>();
}

}  // namespace prima::access
