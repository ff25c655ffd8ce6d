#include "storage/buffer_manager.h"

#include <cassert>
#include <cstring>

#include "obs/trace.h"

namespace prima::storage {

using util::Result;
using util::Status;

BufferManager::BufferManager(BlockDevice* device, size_t budget_bytes,
                             BufferPolicy policy, size_t shards)
    : device_(device), policy_(policy) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const size_t slice = budget_bytes / shards;
    if (policy_ == BufferPolicy::kUnifiedLru) {
      shard->budget[0] = slice;
    } else {
      // Static partitioning: equal byte share per page size class.
      for (int c = 0; c < 5; ++c) shard->budget[c] = slice / 5;
    }
    shards_.push_back(std::move(shard));
  }
}

BufferManager::~BufferManager() = default;

int BufferManager::SizeClass(uint32_t page_size) {
  switch (page_size) {
    case 512: return 0;
    case 1024: return 1;
    case 2048: return 2;
    case 4096: return 3;
    case 8192: return 4;
  }
  return 0;
}

Status BufferManager::WriteBack(Frame* frame) {
  std::shared_lock<std::shared_mutex> latch(frame->latch);
  if (wal_ != nullptr) {
    // The WAL rule: the log record describing the page's newest change must
    // reach the device before the page does, or a crash between the two
    // writes leaves an update that can neither be redone nor undone.
    // page_lsn is the START of the record describing the newest change, so
    // equality with durable_lsn() still means that record is NOT on the
    // device yet.
    const uint64_t page_lsn = PageHeader::lsn(frame->data.get());
    if (page_lsn >= wal_->durable_lsn()) {
      PRIMA_RETURN_IF_ERROR(wal_->ForceUpTo(page_lsn));
    }
    assert(PageHeader::lsn(frame->data.get()) == 0 ||
           PageHeader::lsn(frame->data.get()) < wal_->durable_lsn());
  }
  PageHeader::Seal(frame->data.get(), frame->size);
  PRIMA_RETURN_IF_ERROR(
      device_->Write(frame->id.segment, frame->id.page, frame->data.get()));
  frame->dirty = false;
  ShardOf(frame->id).stats.writebacks++;
  stats_.writebacks++;
  return Status::Ok();
}

Status BufferManager::MakeRoom(Shard& shard, int size_class, uint32_t bytes) {
  const int chain = policy_ == BufferPolicy::kUnifiedLru ? 0 : size_class;
  if (bytes > shard.budget[chain]) {
    return Status::NoSpace("page larger than buffer budget");
  }
  // Clock / second-chance sweep, size-aware as in the paper (§3.3: "the
  // well-known LRU algorithm was altered in an appropriate way"): one
  // incoming page may displace several small victims (or one large one).
  // The hand is the ring's front; a referenced frame loses its bit and
  // rotates to the back, a pinned frame just rotates. Two full rotations
  // without freeing enough means every frame is pinned.
  std::list<Frame*>& ring = shard.ring[chain];
  size_t rotations = 0;
  const size_t rotation_limit = 2 * ring.size();
  while (shard.used[chain] + bytes > shard.budget[chain]) {
    if (ring.empty() || rotations > rotation_limit) {
      return Status::NoSpace("all buffer frames pinned");
    }
    Frame* victim = ring.front();
    if (victim->pins > 0) {
      ring.splice(ring.end(), ring, ring.begin());
      ++rotations;
      continue;
    }
    if (victim->referenced) {
      victim->referenced = false;
      ring.splice(ring.end(), ring, ring.begin());
      ++rotations;
      continue;
    }
    if (victim->dirty) {
      PRIMA_RETURN_IF_ERROR(WriteBack(victim));
    }
    shard.used[chain] -= victim->size;
    ring.pop_front();
    shard.frames.erase(victim->id);
    shard.stats.evictions++;
    stats_.evictions++;
  }
  return Status::Ok();
}

Result<Frame*> BufferManager::Fix(PageId id, uint32_t page_size,
                                  bool format_new) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  const int chain = ChainOf(page_size);
  if (it != shard.frames.end()) {
    Frame* f = it->second.get();
    // Pin first, then account: the hit only exists once the frame is
    // pinned and verifiably still mapped to the requested page. Counting
    // before the pin would book phantom hits for frames a concurrent
    // eviction recycles in the probe/reuse window.
    f->pins++;
    assert(f->id == id);
    f->referenced = true;  // clock: survives the next sweep pass
    shard.stats.hits++;
    stats_.hits++;
    if (obs::StatementTrace* trace = obs::CurrentTrace()) {
      trace->Add(obs::Phase::kBuffer, 0);
      trace->Tally(obs::Phase::kBuffer, 0);  // hits
    }
    return f;
  }
  shard.stats.misses++;
  stats_.misses++;
  // Traced statements attribute the miss — and its device-read time — to
  // their buffer phase. One thread-local load when untraced.
  obs::StatementTrace* trace = obs::CurrentTrace();
  uint64_t read_ns = 0;
  PRIMA_RETURN_IF_ERROR(MakeRoom(shard, SizeClass(page_size), page_size));

  auto frame = std::make_unique<Frame>();
  frame->id = id;
  frame->size = page_size;
  frame->data = std::make_unique<char[]>(page_size);
  if (format_new) {
    std::memset(frame->data.get(), 0, page_size);
  } else {
    const uint64_t t0 = trace ? obs::NowNs() : 0;
    PRIMA_RETURN_IF_ERROR(device_->Read(id.segment, id.page, frame->data.get()));
    if (trace != nullptr) read_ns = obs::NowNs() - t0;
    // Fault tolerance: verify the page checksum. Never-written pages read
    // back as all-zero and are accepted as fresh.
    if (!PageHeader::Verify(frame->data.get(), page_size) &&
        !PageIsAllZero(frame->data.get(), page_size)) {
      return Status::Corruption("checksum mismatch on segment " +
                                std::to_string(id.segment) + " page " +
                                std::to_string(id.page));
    }
  }
  if (trace != nullptr) {
    trace->Add(obs::Phase::kBuffer, read_ns);
    trace->Tally(obs::Phase::kBuffer, 1);  // misses
  }
  frame->pins = 1;
  frame->dirty = format_new;
  // referenced stays false: a newly inserted page gets no second chance
  // until it is actually hit again, which keeps clock's victim choice
  // aligned with LRU for fix-once pages.
  Frame* raw = frame.get();
  raw->ring_pos = shard.ring[chain].insert(shard.ring[chain].end(), raw);
  shard.used[chain] += page_size;
  shard.frames[id] = std::move(frame);
  return raw;
}

Frame* BufferManager::TryFix(PageId id) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return nullptr;
  Frame* f = it->second.get();
  f->pins++;
  return f;
}

void BufferManager::Unfix(Frame* frame) {
  Shard& shard = ShardOf(frame->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  assert(frame->pins > 0);
  frame->pins--;
}

void BufferManager::MarkDirty(Frame* frame) { frame->dirty = true; }

Status BufferManager::Prefetch(SegmentId segment,
                               const std::vector<uint32_t>& pages,
                               uint32_t page_size) {
  // Presence probe per page under its shard lock only — the chained device
  // read below runs with no pool lock held, so concurrent fixes (even of
  // the same pages) proceed; duplicates are dropped at insert time.
  std::vector<uint64_t> missing;
  for (uint32_t p : pages) {
    const PageId id{segment, p};
    Shard& shard = ShardOf(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.frames.find(id) == shard.frames.end()) {
      missing.push_back(p);
    }
  }
  if (missing.empty()) return Status::Ok();

  std::string bulk(missing.size() * page_size, '\0');
  PRIMA_RETURN_IF_ERROR(device_->ReadChained(segment, missing, bulk.data()));

  const int chain = ChainOf(page_size);
  for (size_t i = 0; i < missing.size(); ++i) {
    const char* src = bulk.data() + i * page_size;
    if (!PageHeader::Verify(src, page_size) && !PageIsAllZero(src, page_size)) {
      return Status::Corruption("checksum mismatch in chained read, page " +
                                std::to_string(missing[i]));
    }
    const PageId id{segment, static_cast<uint32_t>(missing[i])};
    Shard& shard = ShardOf(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.frames.find(id) != shard.frames.end()) continue;  // raced a Fix
    PRIMA_RETURN_IF_ERROR(MakeRoom(shard, SizeClass(page_size), page_size));
    auto frame = std::make_unique<Frame>();
    frame->id = id;
    frame->size = page_size;
    frame->data = std::make_unique<char[]>(page_size);
    std::memcpy(frame->data.get(), src, page_size);
    Frame* raw = frame.get();
    raw->ring_pos = shard.ring[chain].insert(shard.ring[chain].end(), raw);
    shard.used[chain] += page_size;
    shard.frames[id] = std::move(frame);
    shard.stats.prefetched_pages++;
    stats_.prefetched_pages++;
  }
  return Status::Ok();
}

Status BufferManager::FlushAll() {
  // Two phases: pin the dirty frames under each shard's mutex, then write
  // them back with every mutex released. Write-back waits on each frame's
  // latch, and a latch holder may itself need a shard (fixing further
  // pages mid-operation) — so the flusher must not hold any while waiting.
  std::vector<Frame*> dirty;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (frame->dirty) {
        frame->pins++;
        dirty.push_back(frame.get());
      }
    }
  }
  // Checkpoint fast path: one force covering everything logged so far turns
  // the per-page WAL-rule forces inside WriteBack into no-ops. Without
  // this, a flush of N dirty pages can issue up to N small log writes.
  Status first_error;
  if (wal_ != nullptr && !dirty.empty()) {
    first_error = wal_->ForceUpTo(wal_->append_lsn());
  }
  for (Frame* frame : dirty) {
    if (!first_error.ok()) break;  // a full WAL fails every write-back too
    const Status st = WriteBack(frame);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  for (Frame* frame : dirty) {
    Unfix(frame);
  }
  return first_error;
}

Status BufferManager::Discard(SegmentId segment) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->frames.begin(); it != shard->frames.end();) {
      if (it->first.segment == segment) {
        Frame* f = it->second.get();
        if (f->pins > 0) {
          return Status::Conflict("discarding pinned page");
        }
        const int chain = ChainOf(f->size);
        shard->ring[chain].erase(f->ring_pos);
        shard->used[chain] -= f->size;
        it = shard->frames.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::Ok();
}

size_t BufferManager::resident_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (int c = 0; c < 5; ++c) total += shard->used[c];
  }
  return total;
}

BufferStatsSnapshot BufferManager::SnapshotStats() const {
  BufferStatsSnapshot snap{stats_, {}};
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    BufferStatsSnapshot::Shard s{shard->stats, 0};
    std::lock_guard<std::mutex> lock(shard->mu);
    for (int c = 0; c < 5; ++c) s.resident_bytes += shard->used[c];
    snap.shards.push_back(s);
  }
  return snap;
}

}  // namespace prima::storage
