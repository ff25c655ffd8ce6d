#ifndef PRIMA_RECOVERY_CRASH_DEVICE_H_
#define PRIMA_RECOVERY_CRASH_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "storage/block_device.h"

namespace prima::recovery {

/// A fault-injecting wrapper around a shared BlockDevice: after a write
/// budget is exhausted (or CrashNow() is called) every subsequent write is
/// silently dropped — the caller sees success, the device keeps its old
/// bytes. This models a power failure with volatile write caches: chained
/// writes can tear mid-transfer, leaving some pages new and some old, which
/// is exactly the failure recovery must survive.
///
/// The wrapped device is shared so a test can "reboot": destroy the stack
/// holding one CrashingBlockDevice (its exit checkpoint is dropped) and
/// reopen a fresh wrapper over the same underlying bytes.
class CrashingBlockDevice : public storage::BlockDevice {
 public:
  explicit CrashingBlockDevice(std::shared_ptr<storage::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  /// Allow `blocks` more block writes, then start dropping.
  void SetWriteBudget(uint64_t blocks) { budget_ = blocks; }
  /// Drop every write from now on (pull the plug).
  void CrashNow() { budget_ = 0; }
  bool crashed() const { return budget_.load() == 0; }
  uint64_t dropped_blocks() const { return dropped_; }

  // --- BlockDevice ---------------------------------------------------------

  util::Status Create(FileId file, uint32_t block_size) override {
    if (crashed()) return util::Status::Ok();
    return inner_->Create(file, block_size);
  }
  util::Status Remove(FileId file) override {
    if (crashed()) return util::Status::Ok();
    return inner_->Remove(file);
  }
  bool Exists(FileId file) const override { return inner_->Exists(file); }
  util::Result<uint32_t> BlockSizeOf(FileId file) const override {
    return inner_->BlockSizeOf(file);
  }
  std::vector<FileId> ListFiles() const override {
    return inner_->ListFiles();
  }
  util::Status Read(FileId file, uint64_t block, char* dst) override {
    stats_.block_reads++;
    stats_.blocks_read++;
    return inner_->Read(file, block, dst);
  }
  util::Status Write(FileId file, uint64_t block, const char* src) override {
    stats_.block_writes++;
    if (!Consume(1)) return util::Status::Ok();
    stats_.blocks_written++;
    return inner_->Write(file, block, src);
  }
  util::Status ReadChained(FileId file, const std::vector<uint64_t>& blocks,
                           char* dst) override {
    stats_.chained_reads++;
    stats_.blocks_read += blocks.size();
    return inner_->ReadChained(file, blocks, dst);
  }
  util::Status WriteChained(FileId file, const std::vector<uint64_t>& blocks,
                            const char* src) override;
  util::Status Sync() override {
    if (crashed()) return util::Status::Ok();  // the sync never happened
    return inner_->Sync();
  }

  storage::BlockDevice* inner() { return inner_.get(); }

 private:
  /// Take up to `n` writes from the budget; returns false when exhausted.
  bool Consume(uint64_t n);

  std::shared_ptr<storage::BlockDevice> inner_;
  std::atomic<uint64_t> budget_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace prima::recovery

#endif  // PRIMA_RECOVERY_CRASH_DEVICE_H_
