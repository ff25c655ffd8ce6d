#include "recovery/wal_writer.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/slice.h"

namespace prima::recovery {

using util::Result;
using util::Slice;
using util::Status;

WalWriter::WalWriter(storage::BlockDevice* device, storage::SegmentId file)
    : WalWriter(device, WalOptions{}, file) {}

WalWriter::WalWriter(storage::BlockDevice* device, WalOptions options,
                     storage::SegmentId file)
    : device_(device), options_(options), file_(file) {}

uint32_t WalWriter::FragCrc(uint64_t frag_lsn, uint8_t kind,
                            const char* payload, size_t len) {
  // Seed with the fragment's absolute stream offset: a recycled ring block
  // still holds CRC-consistent fragments from a previous lap, but they were
  // sealed under a smaller offset, so they fail here and terminate the scan.
  char seed[9];
  util::EncodeFixed64(seed, frag_lsn);
  seed[8] = static_cast<char>(kind);
  uint32_t crc = util::Crc32(Slice(seed, sizeof(seed)));
  return util::Crc32Extend(crc, Slice(payload, len));
}

Status WalWriter::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_blocks_ = 0;
  if (options_.max_bytes != 0) {
    const uint64_t total = options_.max_bytes / kBlockSize;
    ring_blocks_ = static_cast<uint32_t>(
        std::max<uint64_t>(kMinRingBytes / kBlockSize,
                           total > kMasterSlots ? total - kMasterSlots : 0));
  }
  if (!device_->Exists(file_)) {
    if (device_->Exists(storage::kArchiveSegmentId)) {
      // An archive with no log to go with it means the WAL file was lost
      // (or the database deleted around its archive). Initializing a fresh
      // log here would destroy the only surviving history — refuse, and
      // let the operator decide (restore the WAL, or remove the archive to
      // really start over). Checked BEFORE creating anything: a fresh WAL
      // left behind by a refused attempt would make the retry take the
      // existing-log path and quietly rebase the archive away.
      return Status::Corruption(
          "a log archive exists but the log itself is missing - refusing "
          "to initialize a fresh log over surviving history");
    }
    PRIMA_RETURN_IF_ERROR(device_->Create(file_, kBlockSize));
    append_lsn_ = durable_lsn_ = 0;
    checkpoint_lsn_ = truncate_lsn_ = 0;
    // Persist the geometry immediately: the LSN -> block mapping must be
    // identical on every reopen, whatever options the next run passes.
    PRIMA_RETURN_IF_ERROR(WriteMasterSlot(0, 0, 0, 1));
    master_seq_ = 1;
    master_slot_ = 1;
    if (options_.archive) {
      archiver_ = std::make_unique<LogArchiver>(device_);
      PRIMA_RETURN_IF_ERROR(archiver_->Open(0, 0));
    }
    return Status::Ok();
  }

  // Check the geometry before reading any block into a kBlockSize buffer.
  auto block_size = device_->BlockSizeOf(file_);
  if (!block_size.ok()) return block_size.status();
  if (*block_size != kBlockSize) {
    return Status::NotSupported(
        "log file has " + std::to_string(*block_size) + "-byte blocks, not " +
        std::to_string(kBlockSize) +
        ": an older log format (format 2 used 4096-byte blocks); this build "
        "reads only format-3 logs");
  }

  // Read both master slots and adopt the valid one with the higher seq:
  // a checkpoint torn mid master-write destroys at most the slot it was
  // rewriting, never the previous checkpoint's.
  checkpoint_lsn_ = truncate_lsn_ = 0;
  master_seq_ = 0;
  master_slot_ = 0;
  for (uint32_t slot = 0; slot < kMasterSlots; ++slot) {
    char master[kBlockSize];
    PRIMA_RETURN_IF_ERROR(device_->Read(file_, slot, master));
    if (util::DecodeFixed32(master) != kMasterMagic ||
        util::DecodeFixed32(master + 4) != kFormatVersion ||
        util::DecodeFixed32(master + 40) != util::Crc32(Slice(master, 40))) {
      continue;
    }
    const uint64_t seq = util::DecodeFixed64(master + 32);
    if (seq <= master_seq_) continue;
    master_seq_ = seq;
    master_slot_ = 1 - slot;  // alternate: the next write goes elsewhere
    checkpoint_lsn_ = util::DecodeFixed64(master + 8);
    truncate_lsn_ = util::DecodeFixed64(master + 16);
    // The stored geometry is authoritative for an existing log.
    ring_blocks_ =
        static_cast<uint32_t>(util::DecodeFixed64(master + 24) / kBlockSize);
  }

  // An existing archive is honored regardless of options: letting a run
  // with the flag off recycle unarchived blocks would punch a silent hole
  // in the history that media recovery relies on. The truncation floor
  // bounds the archive's committed end (archive-before-retire: copies are
  // synced before the master write that retires their source blocks).
  if (options_.archive || device_->Exists(storage::kArchiveSegmentId)) {
    archiver_ = std::make_unique<LogArchiver>(device_);
    const uint64_t floor_start = (truncate_lsn_ / kBlockSize) * kBlockSize;
    PRIMA_RETURN_IF_ERROR(archiver_->Open(floor_start, floor_start));
    if (archiver_->base_lsn() > floor_start) {
      // An archive claiming to start above the floor cannot belong to this
      // log's history — restart it at the floor.
      PRIMA_RETURN_IF_ERROR(archiver_->Rebase(floor_start));
    }
  }

  // Locate the durable end of log: scan from the checkpoint (or 0) until
  // the first invalid fragment.
  uint64_t end = checkpoint_lsn_;
  PRIMA_RETURN_IF_ERROR(Scan(
      checkpoint_lsn_, [](const LogRecord&) { return Status::Ok(); }, &end));

  append_lsn_ = durable_lsn_ = end;
  // Preload the partial tail block so future appends rewrite it correctly
  // (only a torn force leaves a non-aligned end; those bytes were never
  // acknowledged).
  pending_.clear();
  pending_base_ = (end / kBlockSize) * kBlockSize;
  if (OffsetIn(end) != 0) {
    char block[kBlockSize];
    PRIMA_RETURN_IF_ERROR(device_->Read(file_, BlockOf(end), block));
    pending_.assign(block, OffsetIn(end));
  }
  return Status::Ok();
}

uint64_t WalWriter::AppendPayloadLocked(const std::string& payload) {
  // Pad the current block if a fragment header no longer fits.
  auto in_block = [this] {
    return static_cast<uint32_t>((pending_base_ + pending_.size()) % kBlockSize);
  };
  if (kBlockSize - in_block() < kFragHeader) {
    pending_.append(kBlockSize - in_block(), '\0');
  }
  const uint64_t lsn = pending_base_ + pending_.size();

  size_t off = 0;
  bool first = true;
  do {
    const uint32_t room = kBlockSize - in_block() - kFragHeader;
    const size_t chunk = std::min<size_t>(room, payload.size() - off);
    const bool last = off + chunk == payload.size();
    const uint8_t kind = first ? (last ? kFull : kFirst)
                               : (last ? kLast : kMiddle);
    char head[kFragHeader];
    util::EncodeFixed16(head + 4, static_cast<uint16_t>(chunk));
    head[6] = static_cast<char>(kind);
    util::EncodeFixed32(head, FragCrc(pending_base_ + pending_.size(), kind,
                                      payload.data() + off, chunk));
    pending_.append(head, kFragHeader);
    pending_.append(payload.data() + off, chunk);
    off += chunk;
    first = false;
    if (!last && kBlockSize - in_block() < kFragHeader) {
      pending_.append(kBlockSize - in_block(), '\0');
    }
  } while (off < payload.size());

  append_lsn_ = pending_base_ + pending_.size();
  pending_records_++;
  stats_.records_appended++;
  stats_.bytes_appended += payload.size();
  return lsn;
}

uint64_t WalWriter::Append(const LogRecord& rec) {
  std::string payload;
  rec.EncodeInto(&payload);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = AppendPayloadLocked(payload);
  switch (rec.type) {
    case LogRecordType::kBegin:
      active_txns_.emplace(rec.txn_id, lsn);
      break;
    case LogRecordType::kCommit:
      pending_commits_++;
      active_txns_.erase(rec.txn_id);
      break;
    case LogRecordType::kAbort:
      active_txns_.erase(rec.txn_id);
      break;
    case LogRecordType::kCheckpointBegin:
      // New epoch: every page's next change is logged as a full image, so
      // redo from this checkpoint can rebuild pages torn on the device.
      epoch_++;
      break;
    default:
      break;
  }
  return lsn;
}

uint64_t WalWriter::LogPageDelta(storage::SegmentId segment, uint32_t page,
                                 uint32_t page_size, const char* before,
                                 const char* after) {
  LogRecord rec;
  rec.type = LogRecordType::kPageRedo;
  rec.segment = segment;
  rec.page = page;
  rec.page_size = page_size;
  rec.ranges = DiffPageImages(before, after, page_size);
  if (rec.ranges.empty()) return 0;
  return Append(rec);
}

uint64_t WalWriter::LogFullPage(storage::SegmentId segment, uint32_t page,
                               uint32_t page_size, const char* after) {
  // The header minus the checksum and page-LSN fields, then the body's
  // non-zero 64-byte chunks, runs merged: redo zeroes the page before
  // installing them, so the record rebuilds the whole page, whatever it
  // held before, without logging the page's free space.
  constexpr uint32_t kChunk = 64;
  static const char kZeros[kChunk] = {};
  LogRecord rec;
  rec.type = LogRecordType::kPageImage;
  rec.segment = segment;
  rec.page = page;
  rec.page_size = page_size;
  rec.ranges.push_back({4, std::string(after + 4, 20)});
  uint32_t run = 0;  // start of the open run of non-zero chunks, or 0
  for (uint32_t off = 32; off < page_size; off += kChunk) {
    const bool zero = std::memcmp(after + off, kZeros,
                                  std::min(kChunk, page_size - off)) == 0;
    if (!zero && run == 0) run = off;
    if (zero && run != 0) {
      rec.ranges.push_back({run, std::string(after + run, off - run)});
      run = 0;
    }
  }
  if (run != 0) {
    rec.ranges.push_back({run, std::string(after + run, page_size - run)});
  }
  for (const LogRecord::ByteRange& r : rec.ranges) {
    stats_.full_page_image_bytes += r.bytes.size();
  }
  return Append(rec);
}

uint64_t WalWriter::LogSegmentMeta(storage::SegmentId segment,
                                   uint8_t page_size_code, uint32_t page_count,
                                   uint32_t free_head) {
  return Append(
      LogRecord::SegMeta(segment, page_size_code, page_count, free_head));
}

void WalWriter::SealTailLocked() {
  const uint32_t tail = static_cast<uint32_t>(pending_.size() % kBlockSize);
  if (tail == 0) return;
  // Seal the trailing partial block with an explicit pad fragment so the
  // next force starts on a fresh block: durable bytes are write-once, and
  // a torn write can only ever hit bytes that were never acknowledged.
  const uint32_t room = kBlockSize - tail;
  stats_.pad_bytes += room;
  if (room >= kFragHeader) {
    static const char kZeroPad[kBlockSize] = {};
    const uint32_t len = room - kFragHeader;
    char head[kFragHeader];
    util::EncodeFixed16(head + 4, static_cast<uint16_t>(len));
    head[6] = static_cast<char>(kPad);
    util::EncodeFixed32(
        head, FragCrc(pending_base_ + pending_.size(), kPad, kZeroPad, len));
    pending_.append(head, kFragHeader);
    pending_.append(kZeroPad, len);
  } else {
    pending_.append(room, '\0');
  }
  append_lsn_ = pending_base_ + pending_.size();
}

Status WalWriter::FlushAsLeaderLocked(std::unique_lock<std::mutex>& lk) {
  if (pending_.empty() || pending_base_ + pending_.size() == durable_lsn_) {
    return Status::Ok();
  }

  if (ring_blocks_ != 0) {
    // The live window (truncation floor .. batch end, rounded up to the
    // seal's block boundary) must fit in the ring — overwriting a live
    // block would eat log bytes restart still needs. Checked BEFORE
    // sealing so a refused force is side-effect free: retry loops must not
    // burn a pad block of stream space per NoSpace. Non-checkpoint forces
    // additionally keep a headroom reserve so the checkpoint that will
    // free space can always complete; the bypass is per-thread (set via
    // SetCheckpointWindow) so concurrent committers cannot drain the
    // reserve mid-checkpoint.
    const uint64_t sealed_end =
        ((pending_base_ + pending_.size() + kBlockSize - 1) / kBlockSize) *
        kBlockSize;
    const uint64_t first_live = truncate_lsn_ / kBlockSize;
    const uint64_t last = (sealed_end - 1) / kBlockSize;
    const uint64_t needed = last - first_live + 1;
    const uint64_t reserve = std::this_thread::get_id() == ckpt_thread_
                                 ? 0
                                 : std::max<uint64_t>(
                                       kForceReserveBytes / kBlockSize,
                                       ring_blocks_ / 4);
    if (needed + reserve > ring_blocks_) {
      return Status::NoSpace(
          "WAL ring full (" + std::to_string(needed) + " of " +
          std::to_string(ring_blocks_) +
          " blocks live) - checkpoint required to recycle log space");
    }
  }
  SealTailLocked();
  const uint64_t batch_end = pending_base_ + pending_.size();

  // Swap the batch out and let appenders continue into a fresh buffer while
  // the device write runs without the lock.
  std::string batch;
  batch.swap(pending_);
  const uint64_t batch_base = pending_base_;
  const uint64_t batch_records = pending_records_;
  const uint64_t batch_commits = pending_commits_;
  pending_records_ = 0;
  pending_commits_ = 0;
  pending_base_ = batch_base + batch.size();

  const size_t n_blocks = batch.size() / kBlockSize;
  std::vector<uint64_t> blocks(n_blocks);
  for (size_t i = 0; i < n_blocks; ++i) {
    blocks[i] = BlockAt(batch_base / kBlockSize + i);
  }

  flushing_ = true;
  lk.unlock();
  // One chained device write regardless of how many committers queued up —
  // the group-commit batch — then one fsync for the whole group.
  Status st = device_->WriteChained(file_, blocks, batch.data());
  if (st.ok()) st = SyncDevice();
  lk.lock();
  flushing_ = false;

  if (st.ok()) {
    durable_lsn_ = batch_end;
    stats_.forces++;
    stats_.blocks_forced += n_blocks;
    stats_.records_forced += batch_records;
    stats_.commits_forced += batch_commits;
  } else {
    // Put the batch back in front of whatever was appended during the
    // failed write: stream offsets are unchanged, so the buffer is simply
    // contiguous again and a later force (or retry) covers everything.
    batch.append(pending_);
    pending_.swap(batch);
    pending_base_ = batch_base;
    pending_records_ += batch_records;
    pending_commits_ += batch_commits;
  }
  cv_.notify_all();
  return st;
}

Status WalWriter::ForceLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn) {
  // `lsn` is a record START offset: the record is durable only once
  // durable_lsn_ moved strictly past it. `<=` here once skipped the force
  // entirely when a record began exactly at the previous batch's sealed
  // boundary — an acknowledged commit whose record lived only in memory.
  for (;;) {
    if (durable_lsn_.load() > lsn) return Status::Ok();
    if (!flushing_) break;
    // A leader is writing; its batch may already cover our LSN — and if
    // not, we lead the next (accumulated) batch ourselves.
    cv_.wait(lk);
  }
  return FlushAsLeaderLocked(lk);
}

Status WalWriter::SyncDevice() { return device_->Sync(); }

Status WalWriter::ForceUpTo(uint64_t lsn) {
  if (lsn < durable_lsn_.load()) return Status::Ok();
  std::unique_lock<std::mutex> lk(mu_);
  return ForceLocked(lk, lsn);
}

Status WalWriter::CommitForce(uint64_t lsn) {
  if (lsn < durable_lsn_.load()) return Status::Ok();
  obs::StatementTrace* trace = obs::CurrentTrace();
  const uint64_t t0 =
      (trace != nullptr || force_wait_hist_ != nullptr) ? obs::NowNs() : 0;
  std::unique_lock<std::mutex> lk(mu_);
  Status st = ForceLocked(lk, lsn);
  if (t0 != 0) {
    const uint64_t dt = obs::NowNs() - t0;
    if (force_wait_hist_ != nullptr) force_wait_hist_->Record(dt / 1000);
    if (trace != nullptr) {
      trace->Add(obs::Phase::kCommit, dt);
      trace->Tally(obs::Phase::kCommit, 0);  // force_waits
    }
  }
  return st;
}

Status WalWriter::ForceAll() {
  std::unique_lock<std::mutex> lk(mu_);
  return ForceLocked(lk, append_lsn_.load());
}

Status WalWriter::WriteMasterSlot(uint32_t slot, uint64_t checkpoint_begin_lsn,
                                  uint64_t truncate_lsn, uint64_t seq) {
  char master[kBlockSize];
  std::memset(master, 0, sizeof(master));
  util::EncodeFixed32(master, kMasterMagic);
  util::EncodeFixed32(master + 4, kFormatVersion);
  util::EncodeFixed64(master + 8, checkpoint_begin_lsn);
  util::EncodeFixed64(master + 16, truncate_lsn);
  util::EncodeFixed64(master + 24,
                      static_cast<uint64_t>(ring_blocks_) * kBlockSize);
  util::EncodeFixed64(master + 32, seq);
  util::EncodeFixed32(master + 40, util::Crc32(Slice(master, 40)));
  PRIMA_RETURN_IF_ERROR(device_->Write(file_, slot, master));
  return SyncDevice();
}

Status WalWriter::WriteMaster(uint64_t checkpoint_begin_lsn,
                              uint64_t truncate_up_to) {
  // Serialize master writers, but do NOT hold mu_ across the device write
  // + fsync: appenders and committers keep running during it (checkpoints
  // are frequent on a bounded log, and stalling the whole commit pipeline
  // for the master fsync would undo the group-commit win).
  std::lock_guard<std::mutex> master_lock(master_mu_);
  uint64_t new_floor, old_floor, seq;
  uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_floor = truncate_lsn_.load();
    new_floor = std::max(old_floor, truncate_up_to);
    seq = master_seq_ + 1;
    slot = master_slot_;
  }
  if (archiver_ != nullptr && new_floor > old_floor) {
    // Archive-before-retire: the blocks this master write is about to
    // recycle must be durably copied first, or media recovery loses them.
    // A failure leaves the old floor in charge (the checkpoint fails, no
    // block is recycled, nothing is lost).
    PRIMA_RETURN_IF_ERROR(ArchiveUpTo(new_floor));
  }
  PRIMA_RETURN_IF_ERROR(
      WriteMasterSlot(slot, checkpoint_begin_lsn, new_floor, seq));
  // Only after the master is durable do the recycled blocks actually become
  // writable — a crash before this line leaves the old floor in charge.
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_lsn_ = checkpoint_begin_lsn;
  truncate_lsn_ = new_floor;
  master_seq_ = seq;
  master_slot_ = 1 - slot;
  return Status::Ok();
}

Status WalWriter::ArchiveUpTo(uint64_t new_floor) {
  if (ring_blocks_ == 0) return Status::Ok();  // nothing is ever recycled
  // Only whole blocks strictly below the floor's block are retired; the
  // floor block itself stays live and is archived by a later checkpoint.
  const uint64_t target = (new_floor / kBlockSize) * kBlockSize;
  // Every block in [next, target) is durable (below the forced checkpoint's
  // undo floor) and write-once (sealed by its force), so reading it off the
  // device without the log mutex is safe.
  char block[kBlockSize];
  for (uint64_t next = archiver_->archived_lsn(); next < target;
       next += kBlockSize) {
    PRIMA_RETURN_IF_ERROR(device_->Read(file_, BlockOf(next), block));
    PRIMA_RETURN_IF_ERROR(archiver_->AppendBlock(next, block));
    stats_.archived_bytes += kBlockSize;
  }
  // The copies must be durable BEFORE the master write commits the
  // recycling — from then on the archive is the only home of those bytes.
  // Synced even when nothing was copied NOW: a previous checkpoint may
  // have appended these blocks and then failed in ITS Sync, leaving them
  // in the page cache with archived_lsn() already advanced.
  return archiver_->Sync();
}

uint64_t WalWriter::ScanFloor() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_blocks_ == 0) return 0;  // the device still holds every block
  const uint64_t floor_start = (truncate_lsn_ / kBlockSize) * kBlockSize;
  if (archiver_ != nullptr && archiver_->archived_lsn() >= floor_start) {
    return archiver_->base_lsn();
  }
  return floor_start;
}

void WalWriter::SetCheckpointWindow(bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  ckpt_thread_ = active ? std::this_thread::get_id() : std::thread::id{};
}

std::vector<std::pair<uint64_t, uint64_t>> WalWriter::ActiveTxns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {active_txns_.begin(), active_txns_.end()};
}

WalStatsSnapshot WalWriter::StatsSnapshot() const {
  WalStatsSnapshot s{stats_};
  s.records_per_force = stats_.GroupCommitFactor();
  s.commits_per_force = stats_.CommitsPerForce();
  std::lock_guard<std::mutex> lock(mu_);
  s.active_txns = active_txns_.size();
  bool first_txn = true;
  for (const auto& [id, first_lsn] : active_txns_) {
    if (first_txn || first_lsn < s.oldest_active_lsn) {
      s.oldest_active_lsn = first_lsn;
      first_txn = false;
    }
  }
  const uint64_t durable = durable_lsn_.load();
  s.live_bytes = append_lsn_.load() - truncate_lsn_;
  s.capacity_bytes = static_cast<uint64_t>(ring_blocks_) * kBlockSize;
  uint64_t data_blocks = (durable + kBlockSize - 1) / kBlockSize;
  if (ring_blocks_ != 0) {
    data_blocks = std::min<uint64_t>(data_blocks, ring_blocks_);
  }
  s.footprint_bytes = (kMasterSlots + data_blocks) * kBlockSize;
  return s;
}

Status WalWriter::Scan(uint64_t from,
                       const std::function<Status(const LogRecord&)>& fn,
                       uint64_t* end_lsn) const {
  uint64_t cursor = from;
  uint64_t end = from;
  std::string assembled;
  uint64_t record_lsn = 0;
  bool in_record = false;
  char block[kBlockSize];
  uint64_t loaded_logical = 0;
  bool block_valid = false;

  for (;;) {
    // Hop over tails too short for a header.
    if (kBlockSize - OffsetIn(cursor) < kFragHeader && OffsetIn(cursor) != 0) {
      cursor += kBlockSize - OffsetIn(cursor);
    }
    // Cache by LOGICAL block: in circular mode several laps share a device
    // block, and a block below the truncation floor lives in the archive
    // now — its device slot was recycled for a later lap.
    const uint64_t logical = cursor / kBlockSize;
    if (!block_valid || logical != loaded_logical) {
      const bool recycled = ring_blocks_ != 0 && archiver_ != nullptr &&
                            logical < truncate_lsn_ / kBlockSize;
      if (recycled) {
        if (!archiver_->ReadBlock(logical * kBlockSize, block).ok()) break;
      } else if (!device_->Read(file_, BlockAt(logical), block).ok()) {
        break;
      }
      loaded_logical = logical;
      block_valid = true;
    }
    const uint32_t off = OffsetIn(cursor);
    const uint32_t stored_crc = util::DecodeFixed32(block + off);
    const uint16_t len = util::DecodeFixed16(block + off + 4);
    const uint8_t kind = static_cast<uint8_t>(block[off + 6]);

    if (stored_crc == 0 && len == 0 && kind == 0) {
      // Zero header: the never-written end of log (forced blocks are sealed
      // with pad fragments, so zeros only appear past the durable end).
      break;
    }
    if (kind < kFull || kind > kPad ||
        len > kBlockSize - off - kFragHeader) {
      break;  // torn or garbage tail
    }
    // Offset-seeded CRC: fails on torn writes AND on stale fragments left
    // from a previous lap of the circular log.
    if (FragCrc(cursor, kind, block + off + kFragHeader, len) != stored_crc) {
      break;
    }

    if (kind == kPad) {
      if (in_record) break;  // pad inside a record: torn tail
      cursor += kFragHeader + len;
      end = cursor;  // the seal is durable ground — resume appending after
      continue;
    }
    if (kind == kFull || kind == kFirst) {
      if (in_record) break;  // dangling unfinished record: treat as tail
      record_lsn = cursor;
      assembled.clear();
      in_record = true;
    } else if (!in_record) {
      break;  // continuation without a start
    }
    assembled.append(block + off + kFragHeader, len);
    cursor += kFragHeader + len;

    if (kind == kFull || kind == kLast) {
      auto rec_or = LogRecord::Decode(Slice(assembled));
      if (!rec_or.ok()) break;  // undecodable: stop at last good record
      rec_or->lsn = record_lsn;
      in_record = false;
      end = cursor;
      PRIMA_RETURN_IF_ERROR(fn(*rec_or));
    }
  }
  if (end_lsn != nullptr) *end_lsn = end;
  return Status::Ok();
}

}  // namespace prima::recovery
