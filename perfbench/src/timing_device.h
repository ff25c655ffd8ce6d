#ifndef PERFBENCH_TIMING_DEVICE_H_
#define PERFBENCH_TIMING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "measure.h"
#include "storage/block_device.h"

namespace perfbench {

/// Plain copy of TimingDevice's counters (diff two to get a window).
struct DeviceCounters {
  uint64_t read_ns = 0;        ///< client-thread time in Read/ReadChained
  uint64_t write_ns = 0;       ///< client-thread time in Write/WriteChained
  uint64_t sync_ns = 0;        ///< client-thread time in Sync
  uint64_t background_ns = 0;  ///< time in any device call off the client thread
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_written = 0;
  uint64_t syncs = 0;
};

/// A timing and counting BlockDevice wrapper handed to the kernel through
/// PrimaOptions::device. Every call is forwarded to `inner` (Sync included,
/// which the WAL's durability rides on) and timed with the steady clock.
/// Calls made on the tracer's client thread are charged to the read/write/
/// sync totals and, while the tracer records, become child spans of the
/// client's current span; calls from any other thread (read-ahead,
/// pipelined assembly workers, server connection threads) are charged to
/// background_ns.
///
/// It also tracks, per file, the highest block ever written, so
/// OccupiedBytes() reports the space the database takes on the device for
/// any inner device, memory or file.
class TimingDevice : public prima::storage::BlockDevice {
 public:
  TimingDevice(std::shared_ptr<prima::storage::BlockDevice> inner,
               Tracer* tracer);

  DeviceCounters Counters() const;
  uint64_t OccupiedBytes() const;

  prima::util::Status Create(FileId file, uint32_t block_size) override;
  prima::util::Status Remove(FileId file) override;
  bool Exists(FileId file) const override { return inner_->Exists(file); }
  prima::util::Result<uint32_t> BlockSizeOf(FileId file) const override {
    return inner_->BlockSizeOf(file);
  }
  std::vector<FileId> ListFiles() const override {
    return inner_->ListFiles();
  }
  prima::util::Status Read(FileId file, uint64_t block, char* dst) override;
  prima::util::Status Write(FileId file, uint64_t block,
                            const char* src) override;
  prima::util::Status ReadChained(FileId file,
                                  const std::vector<uint64_t>& blocks,
                                  char* dst) override;
  prima::util::Status WriteChained(FileId file,
                                   const std::vector<uint64_t>& blocks,
                                   const char* src) override;
  prima::util::Status Sync() override;

 private:
  enum class Op { kRead, kWrite, kSync };
  /// Charge one finished call of `op` that started at `start_ns`.
  void Charge(Op op, uint64_t start_ns, uint32_t span);
  uint32_t BeginSpan(Op op);
  void NoteWritten(FileId file, uint64_t highest_block, uint64_t blocks);

  std::shared_ptr<prima::storage::BlockDevice> inner_;
  Tracer* tracer_;

  std::atomic<uint64_t> read_ns_{0}, write_ns_{0}, sync_ns_{0},
      background_ns_{0};
  std::atomic<uint64_t> blocks_read_{0}, blocks_written_{0}, bytes_written_{0},
      syncs_{0};

  struct Extent {
    uint32_t block_size = 0;
    uint64_t blocks = 0;  ///< highest written block + 1
  };
  mutable std::mutex extents_mu_;
  std::map<FileId, Extent> extents_;  ///< guarded by extents_mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_DEVICE_H_
