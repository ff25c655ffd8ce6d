#include "timing_device.h"

#include <algorithm>

namespace perfbench {

using prima::util::Status;

TimingDevice::TimingDevice(std::shared_ptr<prima::storage::BlockDevice> inner,
                           Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  // Files already on a reopened device count from the first write seen here.
  for (FileId file : inner_->ListFiles()) {
    auto size = inner_->BlockSizeOf(file);
    if (size.ok()) extents_[file].block_size = *size;
  }
}

DeviceCounters TimingDevice::Counters() const {
  DeviceCounters c;
  c.read_ns = read_ns_.load(std::memory_order_relaxed);
  c.write_ns = write_ns_.load(std::memory_order_relaxed);
  c.sync_ns = sync_ns_.load(std::memory_order_relaxed);
  c.background_ns = background_ns_.load(std::memory_order_relaxed);
  c.blocks_read = blocks_read_.load(std::memory_order_relaxed);
  c.blocks_written = blocks_written_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  return c;
}

uint64_t TimingDevice::OccupiedBytes() const {
  std::lock_guard<std::mutex> lock(extents_mu_);
  uint64_t total = 0;
  for (const auto& [file, extent] : extents_) {
    total += extent.blocks * extent.block_size;
  }
  return total;
}

uint32_t TimingDevice::BeginSpan(Op op) {
  if (tracer_ == nullptr) return 0;
  switch (op) {
    case Op::kRead:  return tracer_->Begin(SpanKind::kDeviceRead);
    case Op::kWrite: return tracer_->Begin(SpanKind::kDeviceWrite);
    case Op::kSync:  return tracer_->Begin(SpanKind::kDeviceSync);
  }
  return 0;
}

void TimingDevice::Charge(Op op, uint64_t start_ns, uint32_t span) {
  const uint64_t ns = NowNs() - start_ns;
  if (tracer_ != nullptr) tracer_->End(span);
  if (tracer_ == nullptr || !tracer_->OnClientThread()) {
    background_ns_.fetch_add(ns, std::memory_order_relaxed);
    return;
  }
  switch (op) {
    case Op::kRead:  read_ns_.fetch_add(ns, std::memory_order_relaxed); break;
    case Op::kWrite: write_ns_.fetch_add(ns, std::memory_order_relaxed); break;
    case Op::kSync:  sync_ns_.fetch_add(ns, std::memory_order_relaxed); break;
  }
}

void TimingDevice::NoteWritten(FileId file, uint64_t highest_block,
                               uint64_t blocks) {
  blocks_written_.fetch_add(blocks, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(extents_mu_);
  Extent& extent = extents_[file];
  bytes_written_.fetch_add(blocks * extent.block_size,
                           std::memory_order_relaxed);
  extent.blocks = std::max(extent.blocks, highest_block + 1);
}

Status TimingDevice::Create(FileId file, uint32_t block_size) {
  Status st = inner_->Create(file, block_size);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(extents_mu_);
    extents_[file] = Extent{block_size, 0};
  }
  return st;
}

Status TimingDevice::Remove(FileId file) {
  Status st = inner_->Remove(file);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(extents_mu_);
    extents_.erase(file);
  }
  return st;
}

Status TimingDevice::Read(FileId file, uint64_t block, char* dst) {
  const uint32_t span = BeginSpan(Op::kRead);
  const uint64_t start = NowNs();
  Status st = inner_->Read(file, block, dst);
  Charge(Op::kRead, start, span);
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status TimingDevice::Write(FileId file, uint64_t block, const char* src) {
  const uint32_t span = BeginSpan(Op::kWrite);
  const uint64_t start = NowNs();
  Status st = inner_->Write(file, block, src);
  Charge(Op::kWrite, start, span);
  if (st.ok()) NoteWritten(file, block, 1);
  return st;
}

Status TimingDevice::ReadChained(FileId file,
                                 const std::vector<uint64_t>& blocks,
                                 char* dst) {
  const uint32_t span = BeginSpan(Op::kRead);
  const uint64_t start = NowNs();
  Status st = inner_->ReadChained(file, blocks, dst);
  Charge(Op::kRead, start, span);
  blocks_read_.fetch_add(blocks.size(), std::memory_order_relaxed);
  return st;
}

Status TimingDevice::WriteChained(FileId file,
                                  const std::vector<uint64_t>& blocks,
                                  const char* src) {
  const uint32_t span = BeginSpan(Op::kWrite);
  const uint64_t start = NowNs();
  Status st = inner_->WriteChained(file, blocks, src);
  Charge(Op::kWrite, start, span);
  if (st.ok() && !blocks.empty()) {
    NoteWritten(file, *std::max_element(blocks.begin(), blocks.end()),
                blocks.size());
  }
  return st;
}

Status TimingDevice::Sync() {
  const uint32_t span = BeginSpan(Op::kSync);
  const uint64_t start = NowNs();
  Status st = inner_->Sync();
  Charge(Op::kSync, start, span);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

}  // namespace perfbench
