#include "storage/block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <new>

namespace prima::storage {

using util::Result;
using util::Status;

namespace {
bool ValidBlockSize(uint32_t bs) {
  for (PageSize s : kAllPageSizes) {
    if (PageSizeBytes(s) == bs) return true;
  }
  return false;
}
}  // namespace

// ---------------------------------------------------------------------------
// MemoryBlockDevice
// ---------------------------------------------------------------------------

Status MemoryBlockDevice::Create(FileId file, uint32_t block_size) {
  if (!ValidBlockSize(block_size)) {
    return Status::InvalidArgument("unsupported block size " +
                                   std::to_string(block_size));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(file) != 0) {
    return Status::AlreadyExists("file " + std::to_string(file));
  }
  files_[file].block_size = block_size;
  return Status::Ok();
}

Status MemoryBlockDevice::Remove(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(file) == 0) {
    return Status::NotFound("file " + std::to_string(file));
  }
  return Status::Ok();
}

bool MemoryBlockDevice::Exists(FileId file) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(file) != 0;
}

Result<uint32_t> MemoryBlockDevice::BlockSizeOf(FileId file) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("file " + std::to_string(file));
  }
  return it->second.block_size;
}

std::vector<BlockDevice::FileId> MemoryBlockDevice::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const auto& [id, f] : files_) out.push_back(id);
  return out;
}

MemoryBlockDevice::Extent MemoryBlockDevice::NewExtent() {
  // calloc, not new[](): memory fresh from the OS is not zeroed again, so
  // an extent's pages become resident only as its blocks are written.
  Extent extent(static_cast<char*>(std::calloc(1, kExtentBytes)));
  if (extent == nullptr) throw std::bad_alloc();
  return extent;
}

void MemoryBlockDevice::ReadLocked(const File& f, uint64_t block, char* dst) {
  const uint64_t per_extent = kExtentBytes / f.block_size;
  const uint64_t e = block / per_extent;
  if (e < f.extents.size() && f.extents[e] != nullptr) {
    std::memcpy(dst, f.extents[e].get() + (block % per_extent) * f.block_size,
                f.block_size);
  } else {
    std::memset(dst, 0, f.block_size);
  }
}

void MemoryBlockDevice::WriteLocked(File& f, uint64_t block,
                                    const char* src) {
  const uint64_t per_extent = kExtentBytes / f.block_size;
  const uint64_t e = block / per_extent;
  if (e >= f.extents.size()) f.extents.resize(e + 1);
  if (f.extents[e] == nullptr) f.extents[e] = NewExtent();
  std::memcpy(f.extents[e].get() + (block % per_extent) * f.block_size, src,
              f.block_size);
}

Status MemoryBlockDevice::Read(FileId file, uint64_t block, char* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("file " + std::to_string(file));
  stats_.block_reads++;
  stats_.blocks_read++;
  ReadLocked(it->second, block, dst);
  return Status::Ok();
}

Status MemoryBlockDevice::Write(FileId file, uint64_t block, const char* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("file " + std::to_string(file));
  stats_.block_writes++;
  stats_.blocks_written++;
  WriteLocked(it->second, block, src);
  return Status::Ok();
}

Status MemoryBlockDevice::ReadChained(FileId file,
                                      const std::vector<uint64_t>& blocks,
                                      char* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("file " + std::to_string(file));
  stats_.chained_reads++;
  stats_.blocks_read += blocks.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    ReadLocked(it->second, blocks[i], dst + i * it->second.block_size);
  }
  return Status::Ok();
}

Status MemoryBlockDevice::WriteChained(FileId file,
                                       const std::vector<uint64_t>& blocks,
                                       const char* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return Status::NotFound("file " + std::to_string(file));
  stats_.chained_writes++;
  stats_.blocks_written += blocks.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    WriteLocked(it->second, blocks[i], src + i * it->second.block_size);
  }
  return Status::Ok();
}

std::unique_ptr<MemoryBlockDevice> MemoryBlockDevice::Clone() const {
  auto copy = std::make_unique<MemoryBlockDevice>();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, f] : files_) {
    File& c = copy->files_[id];
    c.block_size = f.block_size;
    c.extents.resize(f.extents.size());
    for (size_t e = 0; e < f.extents.size(); ++e) {
      if (f.extents[e] == nullptr) continue;
      c.extents[e] = NewExtent();
      std::memcpy(c.extents[e].get(), f.extents[e].get(), kExtentBytes);
    }
  }
  return copy;
}

// ---------------------------------------------------------------------------
// FileBlockDevice
// ---------------------------------------------------------------------------

namespace {
constexpr uint32_t kDeviceHeaderSize = 512;
constexpr uint32_t kDeviceMagic = 0x50524D41;  // "PRMA"
}  // namespace

FileBlockDevice::FileBlockDevice(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
}

FileBlockDevice::~FileBlockDevice() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, f] : open_) {
    if (f.fd >= 0) ::close(f.fd);
  }
}

std::string FileBlockDevice::PathFor(FileId file) const {
  return directory_ + "/seg_" + std::to_string(file) + ".prima";
}

Status FileBlockDevice::Create(FileId file, uint32_t block_size) {
  if (!ValidBlockSize(block_size)) {
    return Status::InvalidArgument("unsupported block size " +
                                   std::to_string(block_size));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = PathFor(file);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return Status::AlreadyExists(path);
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  char header[kDeviceHeaderSize] = {};
  util::EncodeFixed32(header, kDeviceMagic);
  util::EncodeFixed32(header + 4, block_size);
  if (::pwrite(fd, header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    ::close(fd);
    return Status::IoError("write header " + path);
  }
  open_[file] = OpenFile{fd, block_size};
  return Status::Ok();
}

util::Result<FileBlockDevice::OpenFile*> FileBlockDevice::GetOpen(FileId file) {
  auto it = open_.find(file);
  if (it != open_.end()) return &it->second;
  const std::string path = PathFor(file);
  int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) return Status::NotFound(path);
  char header[kDeviceHeaderSize];
  if (::pread(fd, header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    ::close(fd);
    return Status::Corruption("short device header in " + path);
  }
  if (util::DecodeFixed32(header) != kDeviceMagic) {
    ::close(fd);
    return Status::Corruption("bad magic in " + path);
  }
  const uint32_t bs = util::DecodeFixed32(header + 4);
  if (!ValidBlockSize(bs)) {
    ::close(fd);
    return Status::Corruption("bad block size in " + path);
  }
  auto [pos, inserted] = open_.emplace(file, OpenFile{fd, bs});
  (void)inserted;
  return &pos->second;
}

Status FileBlockDevice::Remove(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(file);
  if (it != open_.end()) {
    ::close(it->second.fd);
    open_.erase(it);
  }
  std::error_code ec;
  if (!std::filesystem::remove(PathFor(file), ec)) {
    return Status::NotFound(PathFor(file));
  }
  return Status::Ok();
}

bool FileBlockDevice::Exists(FileId file) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.count(file) != 0) return true;
  std::error_code ec;
  return std::filesystem::exists(PathFor(file), ec);
}

Result<uint32_t> FileBlockDevice::BlockSizeOf(FileId file) const {
  auto* self = const_cast<FileBlockDevice*>(this);
  std::lock_guard<std::mutex> lock(mu_);
  auto open = self->GetOpen(file);
  if (!open.ok()) return open.status();
  return (*open)->block_size;
}

std::vector<BlockDevice::FileId> FileBlockDevice::ListFiles() const {
  std::vector<FileId> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg_", 0) == 0 && name.size() > 10 &&
        name.substr(name.size() - 6) == ".prima") {
      out.push_back(static_cast<FileId>(
          std::stoul(name.substr(4, name.size() - 10))));
    }
  }
  return out;
}

Status FileBlockDevice::Read(FileId file, uint64_t block, char* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto open = GetOpen(file);
  if (!open.ok()) return open.status();
  OpenFile* f = *open;
  stats_.block_reads++;
  stats_.blocks_read++;
  const off_t off = kDeviceHeaderSize + block * f->block_size;
  const ssize_t n = ::pread(f->fd, dst, f->block_size, off);
  if (n < 0) return Status::IoError(std::strerror(errno));
  if (n < static_cast<ssize_t>(f->block_size)) {
    // Never-written tail: zero-fill (same semantics as the memory device).
    std::memset(dst + n, 0, f->block_size - n);
  }
  return Status::Ok();
}

Status FileBlockDevice::Write(FileId file, uint64_t block, const char* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto open = GetOpen(file);
  if (!open.ok()) return open.status();
  OpenFile* f = *open;
  stats_.block_writes++;
  stats_.blocks_written++;
  const off_t off = kDeviceHeaderSize + block * f->block_size;
  if (::pwrite(f->fd, src, f->block_size, off) !=
      static_cast<ssize_t>(f->block_size)) {
    return Status::IoError(std::strerror(errno));
  }
  return Status::Ok();
}

Status FileBlockDevice::ReadChained(FileId file,
                                    const std::vector<uint64_t>& blocks,
                                    char* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto open = GetOpen(file);
  if (!open.ok()) return open.status();
  OpenFile* f = *open;
  stats_.chained_reads++;
  stats_.blocks_read += blocks.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    const off_t off = kDeviceHeaderSize + blocks[i] * f->block_size;
    const ssize_t n =
        ::pread(f->fd, dst + i * f->block_size, f->block_size, off);
    if (n < 0) return Status::IoError(std::strerror(errno));
    if (n < static_cast<ssize_t>(f->block_size)) {
      std::memset(dst + i * f->block_size + n, 0, f->block_size - n);
    }
  }
  return Status::Ok();
}

Status FileBlockDevice::WriteChained(FileId file,
                                     const std::vector<uint64_t>& blocks,
                                     const char* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto open = GetOpen(file);
  if (!open.ok()) return open.status();
  OpenFile* f = *open;
  stats_.chained_writes++;
  stats_.blocks_written += blocks.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    const off_t off = kDeviceHeaderSize + blocks[i] * f->block_size;
    if (::pwrite(f->fd, src + i * f->block_size, f->block_size, off) !=
        static_cast<ssize_t>(f->block_size)) {
      return Status::IoError(std::strerror(errno));
    }
  }
  return Status::Ok();
}

Status FileBlockDevice::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, f] : open_) {
    if (f.fd >= 0 && ::fsync(f.fd) != 0) {
      return Status::IoError("fsync: " + std::string(std::strerror(errno)));
    }
  }
  return Status::Ok();
}

}  // namespace prima::storage
