#ifndef PRIMA_STORAGE_BLOCK_DEVICE_H_
#define PRIMA_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace prima::storage {

/// I/O accounting. Chained transfers count as one operation regardless of
/// the number of blocks moved — this is the measurable benefit the paper
/// attributes to page sequences ("enabling an optimal transfer of the whole
/// page sequence, e.g. by chained I/O").
struct DeviceStats {
  std::atomic<uint64_t> block_reads{0};
  std::atomic<uint64_t> block_writes{0};
  std::atomic<uint64_t> chained_reads{0};
  std::atomic<uint64_t> chained_writes{0};
  std::atomic<uint64_t> blocks_read{0};
  std::atomic<uint64_t> blocks_written{0};

  /// Total device operations (the 1987 cost model: one op ~ one disk seek).
  uint64_t TotalOps() const {
    return block_reads + block_writes + chained_reads + chained_writes;
  }
  void Reset() {
    block_reads = block_writes = 0;
    chained_reads = chained_writes = 0;
    blocks_read = blocks_written = 0;
  }
};

/// The file-manager substrate, standing in for the file manager of the
/// INCAS operating system that the paper's storage system runs on
/// ([Ne87]): files of fixed block size, where the block size menu is
/// exactly the five page sizes, plus chained transfers.
class BlockDevice {
 public:
  using FileId = SegmentId;

  virtual ~BlockDevice() = default;

  /// Create a file of the given block size. Fails if it exists.
  virtual util::Status Create(FileId file, uint32_t block_size) = 0;
  /// Remove a file and its blocks.
  virtual util::Status Remove(FileId file) = 0;
  virtual bool Exists(FileId file) const = 0;
  virtual util::Result<uint32_t> BlockSizeOf(FileId file) const = 0;
  /// All existing files (for database reopen).
  virtual std::vector<FileId> ListFiles() const = 0;

  /// Read one block into dst (block_size bytes). Reading a block that was
  /// never written yields zeros.
  virtual util::Status Read(FileId file, uint64_t block, char* dst) = 0;
  virtual util::Status Write(FileId file, uint64_t block, const char* src) = 0;

  /// Chained transfer: move all listed blocks with a single device
  /// operation. dst/src holds blocks.size() * block_size bytes, in order.
  virtual util::Status ReadChained(FileId file,
                                   const std::vector<uint64_t>& blocks,
                                   char* dst) = 0;
  virtual util::Status WriteChained(FileId file,
                                    const std::vector<uint64_t>& blocks,
                                    const char* src) = 0;

  /// Make every completed write durable (fsync on file devices; a no-op on
  /// memory devices). Wrappers MUST forward this — the WAL's durability
  /// guarantee rides on it.
  virtual util::Status Sync() { return util::Status::Ok(); }

  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }

 protected:
  DeviceStats stats_;
};

/// Memory-backed device: the default for tests and benchmarks
/// (deterministic, no filesystem dependence). Each file is a table of
/// fixed-size extents of kExtentBytes — 256 blocks of 512 B, 16 of 8 KiB.
/// An extent is allocated zeroed on the first write to any block in it and
/// never moves after that, so a database's blocks live in a few large
/// allocations instead of one small heap chunk per block; a block in a
/// missing extent reads as zeros.
class MemoryBlockDevice : public BlockDevice {
 public:
  static constexpr size_t kExtentBytes = 128 * 1024;
  static_assert(kExtentBytes % PageSizeBytes(PageSize::k8K) == 0,
                "an extent holds whole blocks of every page size");

  util::Status Create(FileId file, uint32_t block_size) override;
  util::Status Remove(FileId file) override;
  bool Exists(FileId file) const override;
  util::Result<uint32_t> BlockSizeOf(FileId file) const override;
  std::vector<FileId> ListFiles() const override;
  util::Status Read(FileId file, uint64_t block, char* dst) override;
  util::Status Write(FileId file, uint64_t block, const char* src) override;
  util::Status ReadChained(FileId file, const std::vector<uint64_t>& blocks,
                           char* dst) override;
  util::Status WriteChained(FileId file, const std::vector<uint64_t>& blocks,
                            const char* src) override;

  /// Deep copy of every file and extent. Crash-recovery tests and
  /// benchmarks use it to recover the SAME crashed image several times
  /// (e.g. once per recovery_threads setting) and compare the outcomes bit
  /// for bit.
  std::unique_ptr<MemoryBlockDevice> Clone() const;

 private:
  struct FreeExtent {
    void operator()(char* p) const { std::free(p); }
  };
  using Extent = std::unique_ptr<char, FreeExtent>;

  struct File {
    uint32_t block_size = 0;
    std::vector<Extent> extents;  // null = never written (reads as zeros)
  };

  static Extent NewExtent();  // zeroed; throws std::bad_alloc like new
  static void ReadLocked(const File& f, uint64_t block, char* dst);
  static void WriteLocked(File& f, uint64_t block, const char* src);

  mutable std::mutex mu_;
  std::map<FileId, File> files_;
};

/// POSIX file device: one file per segment under a directory. File layout:
/// a 512-byte device header (magic + block size) followed by the blocks.
class FileBlockDevice : public BlockDevice {
 public:
  /// The directory must exist (or be creatable).
  explicit FileBlockDevice(std::string directory);
  ~FileBlockDevice() override;

  util::Status Create(FileId file, uint32_t block_size) override;
  util::Status Remove(FileId file) override;
  bool Exists(FileId file) const override;
  util::Result<uint32_t> BlockSizeOf(FileId file) const override;
  std::vector<FileId> ListFiles() const override;
  util::Status Read(FileId file, uint64_t block, char* dst) override;
  util::Status Write(FileId file, uint64_t block, const char* src) override;
  util::Status ReadChained(FileId file, const std::vector<uint64_t>& blocks,
                           char* dst) override;
  util::Status WriteChained(FileId file, const std::vector<uint64_t>& blocks,
                            const char* src) override;

  /// fsync every open file (called by StorageSystem::Flush and the WAL).
  util::Status Sync() override;

 private:
  struct OpenFile {
    int fd = -1;
    uint32_t block_size = 0;
  };

  std::string PathFor(FileId file) const;
  util::Result<OpenFile*> GetOpen(FileId file);

  mutable std::mutex mu_;
  std::string directory_;
  std::map<FileId, OpenFile> open_;
};

}  // namespace prima::storage

#endif  // PRIMA_STORAGE_BLOCK_DEVICE_H_
