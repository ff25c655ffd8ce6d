#include "recovery/log_archiver.h"

#include <cstring>
#include <string>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/slice.h"

namespace prima::recovery {

using util::Slice;
using util::Status;

LogArchiver::LogArchiver(storage::BlockDevice* device,
                         storage::SegmentId file)
    : device_(device), file_(file) {}

Status LogArchiver::CreateLocked(uint64_t base) {
  PRIMA_RETURN_IF_ERROR(device_->Create(file_, kBlockSize));
  char header[kBlockSize];
  std::memset(header, 0, sizeof(header));
  util::EncodeFixed32(header, kHeaderMagic);
  util::EncodeFixed32(header + 4, kFormatVersion);
  util::EncodeFixed64(header + 8, base);
  util::EncodeFixed32(header + 16, kWalBlockSize);
  util::EncodeFixed32(header + 20, util::Crc32(Slice(header, 20)));
  PRIMA_RETURN_IF_ERROR(device_->Write(file_, 0, header));
  PRIMA_RETURN_IF_ERROR(device_->Sync());
  base_ = end_ = base;
  return Status::Ok();
}

Status LogArchiver::Open(uint64_t base_if_created, uint64_t end_hint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!device_->Exists(file_)) {
    return CreateLocked(base_if_created);
  }
  auto block_size = device_->BlockSizeOf(file_);
  if (!block_size.ok()) return block_size.status();
  if (*block_size != kBlockSize) {
    return Status::NotSupported(
        "log archive has " + std::to_string(*block_size) +
        "-byte blocks, not " + std::to_string(kBlockSize) +
        ": it belongs to an older log format (format 2 used 4096-byte "
        "blocks)");
  }
  char block[kBlockSize];
  PRIMA_RETURN_IF_ERROR(device_->Read(file_, 0, block));
  if (util::DecodeFixed32(block) != kHeaderMagic ||
      util::DecodeFixed32(block + 4) != kFormatVersion ||
      util::DecodeFixed32(block + 16) != kWalBlockSize ||
      util::DecodeFixed32(block + 20) != util::Crc32(Slice(block, 20))) {
    return Status::Corruption("log archive header is damaged");
  }
  base_ = util::DecodeFixed64(block + 8);
  // The committed end is the caller's floor: copies past it never had
  // their truncation commit, so they are rewritten (identically) by the
  // next checkpoint's archive pass.
  end_ = end_hint < base_ ? base_ : end_hint;
  return Status::Ok();
}

uint64_t LogArchiver::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

uint64_t LogArchiver::archived_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_;
}

Status LogArchiver::AppendBlock(uint64_t stream_offset, const char* block) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_offset % kWalBlockSize != 0) {
    return Status::InvalidArgument("archive offsets are block-aligned");
  }
  if (stream_offset < base_) {
    return Status::InvalidArgument("offset below the archive base");
  }
  if (stream_offset > end_) {
    return Status::InvalidArgument(
        "archive gap: expected offset " + std::to_string(end_) + ", got " +
        std::to_string(stream_offset));
  }
  const uint64_t block_no = 1 + (stream_offset - base_) / kWalBlockSize;
  PRIMA_RETURN_IF_ERROR(device_->Write(file_, block_no, block));
  if (stream_offset == end_) end_ = stream_offset + kWalBlockSize;
  return Status::Ok();
}

Status LogArchiver::ReadBlock(uint64_t stream_offset, char* dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_offset % kWalBlockSize != 0) {
    return Status::InvalidArgument("archive offsets are block-aligned");
  }
  if (stream_offset < base_ || stream_offset >= end_) {
    return Status::NotFound("stream offset " + std::to_string(stream_offset) +
                            " is not archived");
  }
  const uint64_t block_no = 1 + (stream_offset - base_) / kWalBlockSize;
  return device_->Read(file_, block_no, dst);
}

Status LogArchiver::Sync() { return device_->Sync(); }

Status LogArchiver::Rebase(uint64_t base) {
  std::lock_guard<std::mutex> lock(mu_);
  PRIMA_RETURN_IF_ERROR(device_->Remove(file_));
  return CreateLocked(base);
}

}  // namespace prima::recovery
