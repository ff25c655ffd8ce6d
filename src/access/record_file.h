#ifndef PRIMA_ACCESS_RECORD_FILE_H_
#define PRIMA_ACCESS_RECORD_FILE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "storage/storage_system.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::access {

/// Address of a physical record within its segment: [page:32][slot:16]
/// packed into a uint64. Slot 0xFFFF marks a long record whose bytes live in
/// a page sequence headed by `page` (paper §3.3: page sequences as
/// containers for records exceeding the page size, "especially considering
/// atom clusters and strings like texts and images").
struct RecordId {
  uint32_t page = 0;
  uint16_t slot = 0;

  static constexpr uint16_t kLongRecordSlot = 0xFFFF;

  bool IsLong() const { return slot == kLongRecordSlot; }
  uint64_t Pack() const { return (static_cast<uint64_t>(page) << 16) | slot; }
  static RecordId Unpack(uint64_t v) {
    return RecordId{static_cast<uint32_t>(v >> 16),
                    static_cast<uint16_t>(v & 0xFFFF)};
  }
  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page == b.page && a.slot == b.slot;
  }
  friend bool operator!=(const RecordId& a, const RecordId& b) {
    return !(a == b);
  }
};

/// A record read in place. A short record stays on its slotted page, which
/// the PinnedRecord keeps fixed under a shared latch until it is destroyed;
/// bytes() is then a view into the buffer frame, so nothing is copied. A
/// long record (a page sequence) owns its assembled bytes instead. Decode
/// what you need and drop it: while it lives, no writer can latch the page.
class PinnedRecord {
 public:
  PinnedRecord(storage::PageGuard guard, util::Slice bytes)
      : guard_(std::move(guard)), on_page_(bytes) {}
  explicit PinnedRecord(std::string owned) : owned_(std::move(owned)) {}

  util::Slice bytes() const {
    return guard_.valid() ? on_page_ : util::Slice(owned_);
  }

 private:
  storage::PageGuard guard_;
  util::Slice on_page_;
  std::string owned_;
};

/// Physical records as "byte strings of variable length ... stored
/// consecutively in containers offered by the storage system" (paper §3.2).
/// One RecordFile manages one segment: slotted pages for short records,
/// page sequences for long ones. Record ids are stable across in-place
/// updates; updates that no longer fit return a new RecordId and the caller
/// (the address table owner) re-registers it.
class RecordFile {
 public:
  RecordFile(storage::StorageSystem* storage, storage::SegmentId segment);

  /// Build the free-space cache by scanning the segment (cheap: page
  /// headers only). Call once after attach.
  util::Status Open();

  util::Result<RecordId> Insert(util::Slice record);
  /// The record's bytes, pinned (see PinnedRecord).
  util::Result<PinnedRecord> Read(const RecordId& rid) const;
  /// Fix slotted page `page` under a shared latch, so that several of its
  /// short records can be read through one fix (SlotBytes). Read is the
  /// one-record case.
  util::Result<storage::PageGuard> FixForRead(uint32_t page) const;
  /// The bytes of short record `slot` on a page fixed by FixForRead: a view
  /// into the frame, valid while the guard lives. NotFound when the slot is
  /// out of range or dead.
  util::Result<util::Slice> SlotBytes(const storage::PageGuard& page,
                                      uint16_t slot) const;
  util::Status Delete(const RecordId& rid);
  /// Update; result is the (possibly moved) record id.
  util::Result<RecordId> Update(const RecordId& rid, util::Slice record);

  // --- physical-order navigation (atom-type scan substrate) ---------------

  /// First record in physical order, or nullopt when empty.
  util::Result<std::optional<RecordId>> First() const;
  util::Result<std::optional<RecordId>> Next(const RecordId& rid) const;
  util::Result<std::optional<RecordId>> Prev(const RecordId& rid) const;
  util::Result<std::optional<RecordId>> Last() const;

  uint64_t record_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return record_count_;
  }
  storage::SegmentId segment() const { return segment_; }

 private:
  // Slotted page payload bookkeeping. Slot i lives at the 4 bytes ending
  // `4*(i+1)` before the page end: [offset:u16][len:u16]; offset 0 = dead.
  static constexpr uint32_t kSlotBytes = 4;

  uint32_t PageSizeBytes() const { return page_size_; }
  uint32_t MaxShortRecord() const {
    return storage::PagePayload(page_size_) - kSlotBytes;
  }

  // Contiguous free bytes of a slotted page (excluding reclaimable garbage).
  static uint32_t ContiguousFree(const char* page, uint32_t page_size);
  // Free bytes counting garbage (what compaction can reach).
  static uint32_t TotalFree(const char* page, uint32_t page_size);
  // Rewrite the page squeezing out dead bytes. Exclusive latch held.
  static void Compact(char* page, uint32_t page_size);

  util::Result<RecordId> InsertShort(util::Slice record);
  util::Result<RecordId> InsertIntoPage(storage::PageGuard* guard,
                                        util::Slice record);

  // First/next live slot of a page; nullopt if none at/after `from`.
  static std::optional<uint16_t> LiveSlotFrom(const char* page,
                                              uint32_t page_size,
                                              uint16_t from);
  static std::optional<uint16_t> LiveSlotBefore(const char* page,
                                                uint32_t page_size,
                                                uint16_t before);

  storage::StorageSystem* storage_;
  storage::SegmentId segment_;
  uint32_t page_size_ = 0;

  mutable std::mutex mu_;  // guards the members below; writes are serialized
  std::map<uint32_t, uint32_t> free_space_;  // slotted page -> total free
  uint64_t record_count_ = 0;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_RECORD_FILE_H_
