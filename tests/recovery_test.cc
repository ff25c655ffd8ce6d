#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "recovery/backup.h"
#include "recovery/checkpoint_daemon.h"
#include "recovery/crash_device.h"
#include "recovery/log_archiver.h"
#include "recovery/log_record.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal_writer.h"
#include "storage/block_device.h"
#include "storage/page.h"
#include "storage/storage_system.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workloads/brep.h"
#include "temp_dir.h"

namespace prima::recovery {
namespace {

using access::AttrValue;
using access::Tid;
using access::Value;
using storage::MemoryBlockDevice;
using storage::PageHeader;
using util::Slice;
using util::Status;

// ---------------------------------------------------------------------------
// LogRecord framing
// ---------------------------------------------------------------------------

TEST(LogRecordTest, RoundTripAllTypes) {
  std::vector<LogRecord> records;
  records.push_back(LogRecord::Begin(7));
  records.push_back(LogRecord::Commit(7));
  records.push_back(LogRecord::Abort(9));
  {
    LogRecord r;
    r.type = LogRecordType::kPageRedo;
    r.txn_id = 3;
    r.segment = 12;
    r.page = 34;
    r.page_size = 4096;
    r.ranges.push_back({40, "hello"});
    r.ranges.push_back({200, std::string(300, 'x')});
    records.push_back(r);
    r.type = LogRecordType::kPageImage;
    records.push_back(r);
  }
  records.push_back(LogRecord::SegMeta(5, 3, 17, 4));
  {
    LogRecord r;
    r.type = LogRecordType::kAtomUndo;
    r.txn_id = 11;
    r.op = AtomOp::kModify;
    r.clr = true;
    r.tid = Tid(2, 99).Pack();
    r.rid = 0xDEADBEEF;
    r.before = "before-image-bytes";
    records.push_back(r);
  }
  records.push_back(LogRecord::Compensation(11, {100, 180, 260, 300}));
  {
    LogRecord r;
    r.type = LogRecordType::kCheckpointBegin;
    r.active_txns = {{3, 100}, {4, 220}};
    r.undo_low_lsn = 100;
    records.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kCheckpointEnd;
    records.push_back(r);
  }

  for (const LogRecord& rec : records) {
    std::string bytes;
    rec.EncodeInto(&bytes);
    auto back = LogRecord::Decode(Slice(bytes));
    ASSERT_TRUE(back.ok()) << bytes.size();
    EXPECT_EQ(back->type, rec.type);
    EXPECT_EQ(back->txn_id, rec.txn_id);
    EXPECT_EQ(back->segment, rec.segment);
    EXPECT_EQ(back->page, rec.page);
    EXPECT_EQ(back->ranges.size(), rec.ranges.size());
    EXPECT_EQ(back->op, rec.op);
    EXPECT_EQ(back->clr, rec.clr);
    EXPECT_EQ(back->tid, rec.tid);
    EXPECT_EQ(back->rid, rec.rid);
    EXPECT_EQ(back->before, rec.before);
    EXPECT_EQ(back->undo_count, rec.undo_count);
    EXPECT_EQ(back->comp_lsns, rec.comp_lsns);
    EXPECT_EQ(back->active_txns, rec.active_txns);
    EXPECT_EQ(back->undo_low_lsn, rec.undo_low_lsn);
  }
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(LogRecord::Decode(Slice("")).ok());
  EXPECT_FALSE(LogRecord::Decode(Slice("\xFFgarbage")).ok());
  std::string truncated;
  LogRecord::SegMeta(5, 3, 17, 4).EncodeInto(&truncated);
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(LogRecord::Decode(Slice(truncated)).ok());
}

TEST(LogRecordTest, DiffPageImagesSkipsChecksumAndLsn) {
  std::string before(512, 'a');
  std::string after = before;
  // Changes in the excluded fields only: no ranges.
  after[0] = 'z';                     // checksum field
  after[25] = 'z';                    // page-LSN field
  EXPECT_TRUE(DiffPageImages(before.data(), after.data(), 512).empty());

  after[100] = 'b';
  after[101] = 'c';
  after[400] = 'd';
  auto ranges = DiffPageImages(before.data(), after.data(), 512);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].offset, 100u);
  EXPECT_EQ(ranges[0].bytes, "bc");
  EXPECT_EQ(ranges[1].offset, 400u);
  EXPECT_EQ(ranges[1].bytes, "d");
}

TEST(LogRecordTest, DiffPageImagesCoalescesNearbyRuns) {
  std::string before(512, 'a');
  std::string after = before;
  after[100] = 'x';
  after[104] = 'y';  // 3 unchanged bytes between: cheaper as one range
  auto ranges = DiffPageImages(before.data(), after.data(), 512);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].offset, 100u);
  EXPECT_EQ(ranges[0].bytes.size(), 5u);
}

// The byte-at-a-time scan DiffPageImages replaced; its ranges are the
// specification the word-wise scan must reproduce exactly.
std::vector<LogRecord::ByteRange> BytewiseDiffPageImages(const char* before,
                                                         const char* after,
                                                         uint32_t page_size) {
  constexpr uint32_t kMergeGap = 8;
  auto excluded = [](uint32_t i) { return i < 4 || (i >= 24 && i < 32); };
  std::vector<LogRecord::ByteRange> out;
  uint32_t i = 0;
  while (i < page_size) {
    if (excluded(i) || before[i] == after[i]) {
      ++i;
      continue;
    }
    const uint32_t start = i;
    uint32_t last_change = i;
    ++i;
    while (i < page_size) {
      if (!excluded(i) && before[i] != after[i]) {
        last_change = i;
        ++i;
      } else if (i - last_change < kMergeGap && !excluded(i)) {
        ++i;
      } else {
        break;
      }
    }
    LogRecord::ByteRange r;
    r.offset = start;
    r.bytes.assign(after + start, last_change - start + 1);
    out.push_back(std::move(r));
  }
  return out;
}

void ExpectSameDiff(const std::string& before, const std::string& after) {
  ASSERT_EQ(before.size(), after.size());
  const auto size = static_cast<uint32_t>(before.size());
  const auto want = BytewiseDiffPageImages(before.data(), after.data(), size);
  const auto got = DiffPageImages(before.data(), after.data(), size);
  ASSERT_EQ(got.size(), want.size()) << "page size " << size;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].offset, want[i].offset) << "range " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "range " << i;
  }
}

TEST(LogRecordTest, DiffPageImagesMatchesBytewiseScanOnRandomPages) {
  util::Random rng(22);
  for (uint32_t size : {512u, 1024u, 2048u, 4096u, 8192u, 1u, 5u, 23u, 31u,
                        33u, 41u, 517u, 4099u}) {
    for (int round = 0; round < 200; ++round) {
      std::string before(size, '\0');
      for (char& c : before) c = static_cast<char>(rng.Uniform(4));
      std::string after = before;
      // Clusters of changes of random length and density, so gaps of every
      // width around the merge threshold occur.
      const uint64_t clusters = rng.Uniform(6);
      for (uint64_t k = 0; k < clusters; ++k) {
        const uint64_t at = rng.Uniform(size);
        const uint64_t len = 1 + rng.Uniform(40);
        const uint64_t every = 1 + rng.Uniform(10);
        for (uint64_t j = at; j < std::min<uint64_t>(size, at + len); j += every) {
          after[j] = static_cast<char>(after[j] + 1 + rng.Uniform(3));
        }
      }
      ExpectSameDiff(before, after);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LogRecordTest, DiffPageImagesMatchesBytewiseScanAtEdges) {
  const std::string before(512, 'a');
  auto changed = [&](std::initializer_list<uint32_t> offsets) {
    std::string after = before;
    for (uint32_t o : offsets) after[o] = 'b';
    return after;
  };
  // Runs straddling the excluded checksum [0,4) and page-LSN [24,32).
  ExpectSameDiff(before, changed({2, 3, 4, 5}));
  ExpectSameDiff(before, changed({22, 23, 24, 25}));
  ExpectSameDiff(before, changed({20, 30, 31, 32, 33}));
  ExpectSameDiff(before, changed({23, 32}));
  // Gaps of exactly 7 (merged) and 8 (split) equal bytes.
  ExpectSameDiff(before, changed({100, 108}));
  ExpectSameDiff(before, changed({100, 109}));
  ExpectSameDiff(before, changed({103, 111, 119, 127}));
  ExpectSameDiff(before, changed({103, 112, 121}));
  // The last byte, alone and merged into a run before it.
  ExpectSameDiff(before, changed({511}));
  ExpectSameDiff(before, changed({504, 511}));
  ExpectSameDiff(before, changed({503, 511}));
  // Every byte changed.
  ExpectSameDiff(before, std::string(512, 'b'));

  auto ranges = DiffPageImages(before.data(), changed({100, 108}).data(), 512);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].bytes.size(), 9u);
  ranges = DiffPageImages(before.data(), changed({100, 109}).data(), 512);
  EXPECT_EQ(ranges.size(), 2u);
}

// ---------------------------------------------------------------------------
// WalWriter: append / force / scan / reopen
// ---------------------------------------------------------------------------

TEST(WalWriterTest, AppendForceScanRoundTrip) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());

  std::vector<uint64_t> lsns;
  for (uint64_t t = 1; t <= 5; ++t) {
    lsns.push_back(wal.Append(LogRecord::Begin(t)));
  }
  EXPECT_EQ(wal.durable_lsn(), 0u);  // nothing forced yet
  ASSERT_TRUE(wal.ForceUpTo(lsns.back()).ok());
  EXPECT_GE(wal.durable_lsn(), lsns.back());
  // Group commit: five records, one force batch.
  EXPECT_EQ(wal.stats().forces.load(), 1u);
  EXPECT_EQ(wal.stats().records_forced.load(), 5u);
  EXPECT_GT(wal.stats().GroupCommitFactor(), 4.0);

  // A second writer on the same device recovers the same stream.
  WalWriter reader(device.get());
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.append_lsn(), wal.append_lsn());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(reader
                  .Scan(0,
                        [&](const LogRecord& rec) {
                          EXPECT_EQ(rec.type, LogRecordType::kBegin);
                          seen.push_back(rec.txn_id);
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(seen, std::vector<uint64_t>({1, 2, 3, 4, 5}));
}

TEST(WalWriterTest, RecordsSpanBlocks) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());

  // One record much larger than a log block.
  LogRecord big;
  big.type = LogRecordType::kAtomUndo;
  big.txn_id = 1;
  big.tid = 42;
  big.before = std::string(3 * WalWriter::kBlockSize, 'q');
  wal.Append(big);
  wal.Append(LogRecord::Commit(1));
  ASSERT_TRUE(wal.ForceAll().ok());

  WalWriter reader(device.get());
  ASSERT_TRUE(reader.Open().ok());
  int count = 0;
  ASSERT_TRUE(reader
                  .Scan(0,
                        [&](const LogRecord& rec) {
                          ++count;
                          if (rec.type == LogRecordType::kAtomUndo) {
                            EXPECT_EQ(rec.before, big.before);
                          }
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, 2);
}

TEST(WalWriterTest, TornForceTruncatesAtLastCompleteRecord) {
  auto base = std::make_shared<MemoryBlockDevice>();
  auto crash = std::make_shared<CrashingBlockDevice>(base);
  WalWriter wal(crash.get());
  ASSERT_TRUE(wal.Open().ok());

  for (uint64_t t = 1; t <= 3; ++t) wal.Append(LogRecord::Begin(t));
  ASSERT_TRUE(wal.ForceAll().ok());
  const uint64_t durable_end = wal.append_lsn();

  LogRecord big;
  big.type = LogRecordType::kAtomUndo;
  big.txn_id = 4;
  big.before = std::string(3 * WalWriter::kBlockSize, 'q');
  wal.Append(big);
  crash->SetWriteBudget(1);  // the chained force tears after one block
  ASSERT_TRUE(wal.ForceAll().ok());  // the device lies, as crashed disks do
  EXPECT_GT(crash->dropped_blocks(), 0u);

  // Reopen on the underlying bytes: the torn record fails its CRC framing
  // and the log ends at the last complete record.
  WalWriter reader(base.get());
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.append_lsn(), durable_end);
  int count = 0;
  ASSERT_TRUE(reader
                  .Scan(0,
                        [&](const LogRecord&) {
                          ++count;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST(WalWriterTest, CommitForceSharesOneForceAcrossCommitters) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());

  // Both commit records are appended before either committer forces: any
  // interleaving of the two CommitForce calls must share one device write.
  const uint64_t lsn1 = wal.Append(LogRecord::Commit(1));
  const uint64_t lsn2 = wal.Append(LogRecord::Commit(2));
  Status st1, st2;
  std::thread t1([&] { st1 = wal.CommitForce(lsn1); });
  std::thread t2([&] { st2 = wal.CommitForce(lsn2); });
  t1.join();
  t2.join();
  ASSERT_TRUE(st1.ok());
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(wal.stats().forces.load(), 1u);
  EXPECT_EQ(wal.stats().commits_forced.load(), 2u);
  EXPECT_DOUBLE_EQ(wal.stats().CommitsPerForce(), 2.0);
  EXPECT_GE(wal.durable_lsn(), lsn2);
}

/// MemoryBlockDevice whose fsync can be held open, to prove the force's
/// device I/O happens with the log mutex released.
class BlockingSyncDevice : public MemoryBlockDevice {
 public:
  util::Status Sync() override {
    std::unique_lock<std::mutex> lk(m_);
    if (!armed_) return util::Status::Ok();
    in_sync_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
    return util::Status::Ok();
  }
  void Arm() {
    std::lock_guard<std::mutex> lk(m_);
    armed_ = true;
  }
  void WaitUntilInSync() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return in_sync_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(m_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool in_sync_ = false;
  bool released_ = false;
};

TEST(WalWriterTest, AppendersNeverBlockOnAnInFlightForce) {
  auto device = std::make_shared<BlockingSyncDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());

  const uint64_t lsn1 = wal.Append(LogRecord::Begin(1));
  device->Arm();
  Status force_st;
  std::thread forcer([&] { force_st = wal.ForceAll(); });
  device->WaitUntilInSync();  // the force is now stuck inside fsync ...

  // ... and appends must still go through (with the old ForceUpTo holding
  // mu_ across the device write, this line deadlocks the test).
  const uint64_t lsn2 = wal.Append(LogRecord::Begin(2));
  EXPECT_GT(lsn2, lsn1);

  device->Release();
  forcer.join();
  ASSERT_TRUE(force_st.ok());
  EXPECT_GE(wal.durable_lsn(), lsn1);
  EXPECT_LT(wal.durable_lsn(), wal.append_lsn())
      << "record 2 arrived after the batch";
  ASSERT_TRUE(wal.ForceAll().ok());
  EXPECT_GE(wal.durable_lsn(), lsn2);
}

namespace {
/// Quarter-block filler record: with the force seal, one append+force
/// cycle consumes exactly one log block.
LogRecord FillerRecord(uint64_t id) {
  LogRecord r;
  r.type = LogRecordType::kAtomUndo;
  r.txn_id = id;
  r.tid = id;
  r.before = std::string(WalWriter::kBlockSize / 4, 'x');
  return r;
}

/// The smallest ring: a cap of the byte floor plus the two master slots.
constexpr uint64_t kRingBlocks =
    WalWriter::kMinRingBytes / WalWriter::kBlockSize;
constexpr uint64_t kMinRingCap =
    WalWriter::kMinRingBytes + 2 * WalWriter::kBlockSize;
/// Blocks non-checkpoint forces must leave free in that ring.
constexpr uint64_t kReserveBlocks = std::max<uint64_t>(
    WalWriter::kForceReserveBytes / WalWriter::kBlockSize, kRingBlocks / 4);
}  // namespace

TEST(WalWriterTest, CircularLogWrapsAndScansAfterReopen) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalOptions opts;
  opts.max_bytes = kMinRingCap;
  WalWriter wal(device.get(), opts);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_EQ(wal.capacity_bytes(), WalWriter::kMinRingBytes);

  // Append four rings' worth of records, checkpointing (master write +
  // truncation) every few blocks so the wrapped appends always land on
  // recycled blocks.
  uint64_t last_ckpt = 0;
  int records_since_ckpt = 0;
  for (uint64_t i = 0; i < 4 * kRingBlocks; ++i) {
    const uint64_t lsn = wal.Append(FillerRecord(i));
    ASSERT_TRUE(wal.ForceAll().ok()) << "i=" << i;
    records_since_ckpt++;
    if (i % 4 == 3) {
      ASSERT_TRUE(wal.WriteMaster(lsn, lsn).ok());
      last_ckpt = lsn;
      records_since_ckpt = 1;  // the checkpointed record itself stays live
    }
  }
  EXPECT_GE(wal.append_lsn(), 4 * wal.capacity_bytes()) << "log wrapped";
  EXPECT_LE(wal.StatsSnapshot().footprint_bytes, opts.max_bytes)
      << "circular log must not outgrow wal_max_bytes";

  // Reopen: geometry comes from the master record; the scan starts at the
  // checkpoint, sees exactly the live tail, and stops at the durable end
  // (stale previous-lap fragments fail their offset-seeded CRCs).
  WalWriter reader(device.get(), opts);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.checkpoint_lsn(), last_ckpt);
  EXPECT_EQ(reader.append_lsn(), wal.append_lsn());
  int count = 0;
  ASSERT_TRUE(reader
                  .Scan(reader.checkpoint_lsn(),
                        [&](const LogRecord&) {
                          ++count;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, records_since_ckpt);

  // The reopened log keeps appending (and wrapping) where the old one left.
  const uint64_t lsn = reader.Append(FillerRecord(99));
  ASSERT_TRUE(reader.ForceAll().ok());
  EXPECT_GT(reader.durable_lsn(), lsn);
}

TEST(WalWriterTest, FullRingRefusesForcesUntilCheckpointTruncates) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalOptions opts;
  opts.max_bytes = kMinRingCap;
  WalWriter wal(device.get(), opts);
  ASSERT_TRUE(wal.Open().ok());

  // Never checkpointing: the non-checkpoint force path must hit NoSpace
  // once the live window reaches ring - reserve blocks.
  uint64_t last_lsn = 0;
  Status st;
  uint64_t i = 0;
  for (; i < kRingBlocks + 4; ++i) {
    last_lsn = wal.Append(FillerRecord(i));
    st = wal.ForceAll();
    if (!st.ok()) break;
  }
  ASSERT_TRUE(st.IsNoSpace()) << st.ToString();
  EXPECT_LE(i, kRingBlocks - kReserveBlocks + 1)
      << "the checkpoint reserve must be held back";

  // The checkpoint path gets the reserve, truncates, and unblocks commits.
  wal.SetCheckpointWindow(true);
  ASSERT_TRUE(wal.ForceAll().ok());
  wal.SetCheckpointWindow(false);
  ASSERT_TRUE(wal.WriteMaster(last_lsn, last_lsn).ok());
  wal.Append(FillerRecord(100));
  ASSERT_TRUE(wal.ForceAll().ok());
}

TEST(WalWriterTest, CrashMidWraparoundWriteTruncatesAtLastRecord) {
  auto base = std::make_shared<MemoryBlockDevice>();
  auto crash = std::make_shared<CrashingBlockDevice>(base);
  WalOptions opts;
  opts.max_bytes = kMinRingCap;
  WalWriter wal(crash.get(), opts);
  ASSERT_TRUE(wal.Open().ok());

  // Fill all but the last two ring blocks, truncating along the way so the
  // wrap stays legal.
  uint64_t ckpt_lsn = 0;
  for (uint64_t i = 0; i < kRingBlocks - 2; ++i) {
    const uint64_t lsn = wal.Append(FillerRecord(i));
    ASSERT_TRUE(wal.ForceAll().ok()) << "i=" << i;
    if (i % 4 == 3) {  // keep the live window under ring - reserve
      ASSERT_TRUE(wal.WriteMaster(lsn, lsn).ok());
      ckpt_lsn = lsn;
    }
  }
  const uint64_t durable_end = wal.durable_lsn();

  // A record spanning four blocks: its chained force wraps from the last
  // two ring blocks onto two recycled ones — and tears after two blocks,
  // exactly at the wrap point.
  LogRecord big;
  big.type = LogRecordType::kAtomUndo;
  big.txn_id = 50;
  big.before =
      std::string(3 * WalWriter::kBlockSize + WalWriter::kBlockSize / 2, 'q');
  wal.Append(big);
  crash->SetWriteBudget(2);
  ASSERT_TRUE(wal.ForceAll().ok());  // the device lies, as crashed disks do
  EXPECT_GT(crash->dropped_blocks(), 0u);

  // Reopen on the underlying bytes: the half-written record's continuation
  // landed on recycled blocks that still hold stale previous-lap data, so
  // the scan must stop exactly at the pre-force durable end.
  WalWriter reader(base.get(), opts);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.append_lsn(), durable_end);
  int count = 0;
  ASSERT_TRUE(reader
                  .Scan(ckpt_lsn,
                        [&](const LogRecord& rec) {
                          EXPECT_EQ(rec.type, LogRecordType::kAtomUndo);
                          ++count;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, 3);  // the last three fillers — the torn one is gone

  // Appending resumes over the torn bytes.
  reader.Append(FillerRecord(60));
  ASSERT_TRUE(reader.ForceAll().ok());
  EXPECT_GT(reader.durable_lsn(), durable_end);
}

TEST(WalWriterTest, TornMasterWriteFallsBackToPreviousSlot) {
  // Master writes alternate between two slots; destroying the newest slot
  // (a checkpoint torn mid master-write) must fall back to the previous
  // checkpoint, not silently discard the log.
  auto device = std::make_shared<MemoryBlockDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());
  const uint64_t lsn_a = wal.Append(LogRecord::Begin(1));
  ASSERT_TRUE(wal.ForceAll().ok());
  ASSERT_TRUE(wal.WriteMaster(lsn_a, lsn_a).ok());
  const uint64_t lsn_b = wal.Append(LogRecord::Begin(2));
  ASSERT_TRUE(wal.ForceAll().ok());
  ASSERT_TRUE(wal.WriteMaster(lsn_b, lsn_b).ok());

  // Creation wrote slot 0, the checkpoints wrote slots 1 then 0 — the
  // newest master (checkpoint at lsn_b) lives in slot 0. Tear it.
  char junk[WalWriter::kBlockSize];
  std::memset(junk, 0xAB, sizeof(junk));
  ASSERT_TRUE(device->Write(storage::kWalSegmentId, 0, junk).ok());

  WalWriter reader(device.get());
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.checkpoint_lsn(), lsn_a) << "previous slot takes over";
  EXPECT_EQ(reader.append_lsn(), wal.append_lsn());
  int count = 0;
  ASSERT_TRUE(reader
                  .Scan(reader.checkpoint_lsn(),
                        [&](const LogRecord&) {
                          ++count;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, 2) << "both records remain reachable from the fallback";
}

/// MemoryBlockDevice that records the device blocks of every chained WAL
/// write (one per force), in order.
class ForceRecordingDevice : public MemoryBlockDevice {
 public:
  util::Status WriteChained(FileId file, const std::vector<uint64_t>& blocks,
                            const char* src) override {
    if (file == storage::kWalSegmentId) wal_forces.push_back(blocks);
    return MemoryBlockDevice::WriteChained(file, blocks, src);
  }
  std::vector<std::vector<uint64_t>> wal_forces;
};

TEST(WalWriterTest, DurableBlocksAreWriteOnce) {
  // Many one-commit forces of varying size, on an unbounded log and on the
  // smallest ring (checkpointed so it wraps). Every force must end on a
  // sealed block boundary, pad less than a block, and never rewrite a
  // block an earlier force made durable: on a ring a device block comes
  // back only after a whole lap of later blocks.
  for (const uint64_t max_bytes : {uint64_t{0}, kMinRingCap}) {
    SCOPED_TRACE(max_bytes);
    auto device = std::make_shared<ForceRecordingDevice>();
    WalOptions opts;
    opts.max_bytes = max_bytes;
    WalWriter wal(device.get(), opts);
    ASSERT_TRUE(wal.Open().ok());

    const uint64_t laps_end = max_bytes == 0 ? 256 * WalWriter::kBlockSize
                                             : 3 * wal.capacity_bytes();
    uint64_t forces = 0;
    for (uint64_t t = 1; wal.append_lsn() < laps_end; ++t) {
      wal.Append(LogRecord::Begin(t));
      LogRecord undo = FillerRecord(t);
      undo.before.assign((t * 37) % (3 * WalWriter::kBlockSize), 'u');
      wal.Append(undo);
      const uint64_t commit = wal.Append(LogRecord::Commit(t));
      const uint64_t pad_before = wal.stats().pad_bytes.load();
      ASSERT_TRUE(wal.CommitForce(commit).ok()) << "t=" << t;
      ++forces;
      EXPECT_LT(wal.stats().pad_bytes.load() - pad_before,
                WalWriter::kBlockSize);
      EXPECT_EQ(wal.durable_lsn() % WalWriter::kBlockSize, 0u)
          << "every force ends on a sealed block boundary";
      if (max_bytes != 0 && t % 8 == 0) {
        ASSERT_TRUE(wal.WriteMaster(commit, commit).ok());
      }
    }
    EXPECT_GT(wal.stats().pad_bytes.load(), 0u) << "forces seal their tail";
    EXPECT_LT(wal.stats().pad_bytes.load(), forces * WalWriter::kBlockSize);
    ASSERT_EQ(device->wal_forces.size(), forces);

    // Write-once forces cover consecutive stream blocks, so the running
    // block count is the stream block index. A rewrite of a device block
    // by a later force must be a whole ring lap later.
    const uint64_t lap = max_bytes == 0
                             ? std::numeric_limits<uint64_t>::max()
                             : wal.capacity_bytes() / WalWriter::kBlockSize;
    std::map<uint64_t, std::pair<size_t, uint64_t>> last;  // force, index
    uint64_t index = 0;
    for (size_t f = 0; f < device->wal_forces.size(); ++f) {
      for (const uint64_t block : device->wal_forces[f]) {
        auto it = last.find(block);
        if (it != last.end()) {
          EXPECT_NE(it->second.first, f) << "block " << block << " twice";
          EXPECT_GE(index - it->second.second, lap)
              << "force " << f << " rewrote durable block " << block
              << " of force " << it->second.first;
        }
        last[block] = {f, index++};
      }
    }
    EXPECT_EQ(index * WalWriter::kBlockSize, wal.durable_lsn());
  }
}

TEST(WalWriterTest, TornForceAtEveryBlockBoundaryKeepsAcknowledgedCommits) {
  constexpr uint64_t kAcked = 5;
  auto commit_prefix = [](WalWriter& wal) {
    for (uint64_t t = 1; t <= kAcked; ++t) {
      wal.Append(LogRecord::Begin(t));
      ASSERT_TRUE(wal.CommitForce(wal.Append(LogRecord::Commit(t))).ok());
    }
  };
  // One record spanning several blocks: any torn prefix of its force
  // leaves it incomplete.
  LogRecord big;
  big.type = LogRecordType::kAtomUndo;
  big.txn_id = 99;
  big.before = std::string(5 * WalWriter::kBlockSize, 'q');

  uint64_t force_blocks = 0;
  {
    MemoryBlockDevice device;
    WalWriter wal(&device);
    ASSERT_TRUE(wal.Open().ok());
    commit_prefix(wal);
    const uint64_t before = wal.stats().blocks_forced.load();
    wal.Append(big);
    ASSERT_TRUE(wal.ForceAll().ok());
    force_blocks = wal.stats().blocks_forced.load() - before;
  }
  ASSERT_GE(force_blocks, 6u);

  for (uint64_t tear = 0; tear < force_blocks; ++tear) {
    SCOPED_TRACE(tear);
    auto base = std::make_shared<MemoryBlockDevice>();
    uint64_t durable_end = 0;
    {
      auto crash = std::make_shared<CrashingBlockDevice>(base);
      WalWriter wal(crash.get());
      ASSERT_TRUE(wal.Open().ok());
      commit_prefix(wal);
      durable_end = wal.durable_lsn();
      wal.Append(big);
      crash->SetWriteBudget(tear);  // the chained force lands `tear` blocks
      ASSERT_TRUE(wal.ForceAll().ok());  // the device lies
      EXPECT_EQ(crash->dropped_blocks(), force_blocks - tear);
    }

    auto commits = [&] {
      std::vector<uint64_t> ids;
      WalWriter reader(base.get());
      EXPECT_TRUE(reader.Open().ok());
      EXPECT_TRUE(reader
                      .Scan(0,
                            [&](const LogRecord& rec) {
                              EXPECT_NE(rec.txn_id, 99u) << "torn record";
                              if (rec.type == LogRecordType::kCommit) {
                                ids.push_back(rec.txn_id);
                              }
                              return Status::Ok();
                            })
                      .ok());
      return ids;
    };
    {
      WalWriter reader(base.get());
      ASSERT_TRUE(reader.Open().ok());
      EXPECT_EQ(reader.append_lsn(), durable_end);
      // Appending resumes over the torn bytes.
      ASSERT_TRUE(
          reader.CommitForce(reader.Append(LogRecord::Commit(100))).ok());
    }
    EXPECT_EQ(commits(), std::vector<uint64_t>({1, 2, 3, 4, 5, 100}));
  }
}

TEST(WalWriterTest, RefusesLogsWithOlderBlockSize) {
  // A format-2 log: 4096-byte blocks with a valid master in slot 0. Open
  // must refuse it before reading a block into its 512-byte buffers.
  auto base = std::make_shared<MemoryBlockDevice>();
  ASSERT_TRUE(base->Create(storage::kWalSegmentId, 4096).ok());
  std::string master(4096, '\0');
  util::EncodeFixed32(master.data(), 0x5057414Cu);  // "PWAL"
  util::EncodeFixed32(master.data() + 4, 2);
  util::EncodeFixed64(master.data() + 32, 1);
  util::EncodeFixed32(master.data() + 40,
                      util::Crc32(Slice(master.data(), 40)));
  ASSERT_TRUE(base->Write(storage::kWalSegmentId, 0, master.data()).ok());
  CrashingBlockDevice counting(base);
  WalWriter wal(&counting);
  Status st = wal.Open();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.ToString().find("format 2"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(counting.stats().blocks_read, 0u) << "nothing read before refusal";

  // The same for an archive left by an older log next to a current one.
  auto device = std::make_shared<MemoryBlockDevice>();
  {
    WalOptions opts;
    opts.max_bytes = kMinRingCap;
    opts.archive = true;
    WalWriter fresh(device.get(), opts);
    ASSERT_TRUE(fresh.Open().ok());
  }
  ASSERT_TRUE(device->Remove(storage::kArchiveSegmentId).ok());
  ASSERT_TRUE(device->Create(storage::kArchiveSegmentId, 4096).ok());
  WalWriter reader(device.get());
  st = reader.Open();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.ToString().find("format 2"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// LogArchiver: framing, reopen, uncommitted tail
// ---------------------------------------------------------------------------

TEST(LogArchiverTest, FramingRoundTripAndReopen) {
  constexpr uint32_t kBs = LogArchiver::kWalBlockSize;
  auto device = std::make_shared<MemoryBlockDevice>();
  LogArchiver arch(device.get());
  ASSERT_TRUE(arch.Open(0, 0).ok());
  EXPECT_EQ(arch.base_lsn(), 0u);
  EXPECT_EQ(arch.archived_lsn(), 0u);

  std::vector<std::string> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.emplace_back(kBs, static_cast<char>('a' + i));
    ASSERT_TRUE(arch.AppendBlock(uint64_t{i} * kBs, blocks[i].data()).ok());
  }
  ASSERT_TRUE(arch.Sync().ok());
  EXPECT_EQ(arch.archived_lsn(), 5u * kBs);

  // Contiguity is enforced; already-archived offsets rewrite idempotently.
  EXPECT_FALSE(arch.AppendBlock(7 * kBs, blocks[0].data()).ok());
  EXPECT_FALSE(arch.AppendBlock(100, blocks[0].data()).ok());  // unaligned
  ASSERT_TRUE(arch.AppendBlock(0, blocks[0].data()).ok());
  EXPECT_EQ(arch.archived_lsn(), 5u * kBs);

  // Reopen: the header's base wins over the caller's create-default, and
  // the committed end comes from the caller's floor hint.
  LogArchiver reader(device.get());
  ASSERT_TRUE(reader.Open(999 * kBs, 3 * kBs).ok());
  EXPECT_EQ(reader.base_lsn(), 0u);
  EXPECT_EQ(reader.archived_lsn(), 3u * kBs);
  char buf[kBs];
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(reader.ReadBlock(uint64_t{i} * kBs, buf).ok());
    EXPECT_EQ(0, std::memcmp(buf, blocks[i].data(), kBs)) << "block " << i;
  }
  EXPECT_TRUE(reader.ReadBlock(3 * kBs, buf).IsNotFound());
}

TEST(LogArchiverTest, UncommittedTailIsRewrittenAfterReopen) {
  // A copy whose truncation never committed (crash between the archive
  // write and the master write) is logically dropped by the reopen's floor
  // hint and physically rewritten by the next checkpoint's archive pass.
  constexpr uint32_t kBs = LogArchiver::kWalBlockSize;
  auto device = std::make_shared<MemoryBlockDevice>();
  LogArchiver arch(device.get());
  ASSERT_TRUE(arch.Open(0, 0).ok());
  const std::string committed(kBs, 'a');
  const std::string torn(kBs, 'X');  // stale bytes from the crashed copy
  ASSERT_TRUE(arch.AppendBlock(0, committed.data()).ok());
  ASSERT_TRUE(arch.AppendBlock(kBs, torn.data()).ok());

  LogArchiver reopened(device.get());
  ASSERT_TRUE(reopened.Open(0, kBs).ok());  // floor says: only [0, 4K) committed
  EXPECT_EQ(reopened.archived_lsn(), kBs);
  char buf[kBs];
  EXPECT_TRUE(reopened.ReadBlock(kBs, buf).IsNotFound());

  const std::string real(kBs, 'b');
  ASSERT_TRUE(reopened.AppendBlock(kBs, real.data()).ok());
  ASSERT_TRUE(reopened.ReadBlock(kBs, buf).ok());
  EXPECT_EQ(0, std::memcmp(buf, real.data(), kBs));
}

TEST(WalWriterTest, ArchiveExtendsScanAcrossRecycledBlocks) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalOptions opts;
  opts.max_bytes = kMinRingCap;
  opts.archive = true;
  WalWriter wal(device.get(), opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_NE(wal.archiver(), nullptr);

  constexpr uint64_t kRecords = 4 * kRingBlocks;
  uint64_t last_ckpt = 0;
  for (uint64_t i = 0; i < kRecords; ++i) {
    const uint64_t lsn = wal.Append(FillerRecord(i));
    ASSERT_TRUE(wal.ForceAll().ok()) << "i=" << i;
    if (i % 4 == 3) {
      ASSERT_TRUE(wal.WriteMaster(lsn, lsn).ok());
      last_ckpt = lsn;
    }
  }
  EXPECT_GE(wal.append_lsn(), 4 * wal.capacity_bytes()) << "log wrapped";
  EXPECT_GT(wal.stats().archived_bytes.load(), 2 * wal.capacity_bytes())
      << "recycled blocks must be archived, not lost";
  EXPECT_EQ(wal.ScanFloor(), 0u) << "history is contiguous from LSN 0";

  // Scan the WHOLE history. On a plain circular log the offset-seeded CRCs
  // reject everything below the floor (those device blocks hold later
  // laps); the archive supplies the original bytes instead.
  std::vector<uint64_t> ids;
  ASSERT_TRUE(wal.Scan(0,
                       [&](const LogRecord& rec) {
                         ids.push_back(rec.txn_id);
                         return Status::Ok();
                       })
                  .ok());
  ASSERT_EQ(ids.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) EXPECT_EQ(ids[i], i);

  // Reopen WITHOUT the flag: an existing archive is honored regardless, so
  // later runs cannot silently punch holes in the history.
  WalOptions reopen_opts;
  reopen_opts.max_bytes = opts.max_bytes;
  WalWriter reader(device.get(), reopen_opts);
  ASSERT_TRUE(reader.Open().ok());
  ASSERT_NE(reader.archiver(), nullptr);
  uint64_t count = 0;
  ASSERT_TRUE(reader
                  .Scan(0,
                        [&](const LogRecord&) {
                          ++count;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(count, kRecords);

  // Damage the first archived block: the historical scan ends there (the
  // WAL fragment CRCs reject the junk) without fabricating records, and
  // the live restart window from the checkpoint is untouched.
  char junk[WalWriter::kBlockSize];
  std::memset(junk, 0xEE, sizeof(junk));
  ASSERT_TRUE(device->Write(storage::kArchiveSegmentId, 1, junk).ok());
  int damaged = 0;
  ASSERT_TRUE(reader
                  .Scan(0,
                        [&](const LogRecord&) {
                          ++damaged;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_EQ(damaged, 0);
  int live = 0;
  ASSERT_TRUE(reader
                  .Scan(last_ckpt,
                        [&](const LogRecord&) {
                          ++live;
                          return Status::Ok();
                        })
                  .ok());
  EXPECT_GE(live, 1);
}

// ---------------------------------------------------------------------------
// CheckpointDaemon: threshold trigger + synchronous requests
// ---------------------------------------------------------------------------

TEST(CheckpointDaemonTest, TriggersOnRingFractionThreshold) {
  auto storage = std::make_unique<storage::StorageSystem>(
      std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  WalOptions wal_opts;
  wal_opts.max_bytes = kMinRingCap;  // 64 KiB ring
  WalWriter wal(&storage->device(), wal_opts);
  ASSERT_TRUE(wal.Open().ok());
  storage->SetWal(&wal);
  RecoveryManager recovery(storage.get(), &wal);

  CheckpointDaemon::Options opts;
  opts.ring_fraction = 0.25;  // trigger at 16KB live
  opts.poll_ms = 1;
  CheckpointDaemon daemon(&recovery, &wal, nullptr, opts);
  daemon.Start();
  ASSERT_TRUE(daemon.running());

  // Below the threshold the daemon must stay idle.
  wal.Append(FillerRecord(1));
  ASSERT_TRUE(wal.ForceAll().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wal.stats().auto_checkpoints.load(), 0u);

  // Cross it: more one-block records put the live window at 7/16 of the
  // ring (28KB). The daemon must checkpoint and truncate on its own.
  for (uint64_t i = 2; i <= 7 * kRingBlocks / 16; ++i) {
    wal.Append(FillerRecord(i));
    ASSERT_TRUE(wal.ForceAll().ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wal.stats().auto_checkpoints.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(wal.stats().auto_checkpoints.load(), 1u);
  EXPECT_GT(wal.truncate_lsn(), 0u) << "the daemon's checkpoint truncates";

  // Explicit request: served synchronously by a full checkpoint.
  ASSERT_TRUE(daemon.RequestCheckpoint().ok());
  EXPECT_GE(daemon.stats().requested_checkpoints, 1u);

  daemon.Stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_TRUE(daemon.RequestCheckpoint().IsAborted());
}

TEST(WalWriterTest, MasterRecordSurvivesReopen) {
  auto device = std::make_shared<MemoryBlockDevice>();
  WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());
  const uint64_t lsn = wal.Append(LogRecord::Begin(1));
  ASSERT_TRUE(wal.ForceAll().ok());
  ASSERT_TRUE(wal.WriteMaster(lsn).ok());

  WalWriter reader(device.get());
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.checkpoint_lsn(), lsn);
}

// ---------------------------------------------------------------------------
// Storage integration: page-LSN stamping and the WAL rule
// ---------------------------------------------------------------------------

TEST(WalRuleTest, PageWritesAreLoggedAndForcedBeforeWriteback) {
  auto base = std::make_shared<MemoryBlockDevice>();
  auto storage = std::make_unique<storage::StorageSystem>(
      std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  WalWriter wal(&storage->device());
  ASSERT_TRUE(wal.Open().ok());
  storage->SetWal(&wal);

  ASSERT_TRUE(storage->CreateSegment(1, storage::PageSize::k4K).ok());
  uint64_t page_lsn = 0;
  {
    auto guard = storage->NewPage(1, storage::PageType::kSlotted);
    ASSERT_TRUE(guard.ok());
    char* data = guard->mutable_data();
    data[100] = 'x';
  }
  {
    auto guard = storage->FixPage(1, 1, storage::LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    page_lsn = PageHeader::lsn(guard->data());
  }
  EXPECT_GT(page_lsn, 0u) << "exclusive guard must stamp the page-LSN";
  EXPECT_GT(page_lsn, wal.durable_lsn()) << "log should still be buffered";

  // Write-back (flush) must force the log first — afterwards the durable
  // LSN covers the page-LSN of everything on the device.
  ASSERT_TRUE(storage->Flush().ok());
  EXPECT_GE(wal.durable_lsn(), page_lsn);

}

// ---------------------------------------------------------------------------
// Full-stack crash / recovery via Prima
// ---------------------------------------------------------------------------

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { base_ = std::make_shared<MemoryBlockDevice>(); }

  /// Open a database incarnation over the shared device bytes.
  std::unique_ptr<core::Prima> OpenDb(uint64_t wal_max_bytes = 0) {
    core::PrimaOptions options;
    options.wal_max_bytes = wal_max_bytes;
    return OpenDbWith(std::move(options));
  }

  /// Same, with full control over the options (daemon, archive, restore).
  std::unique_ptr<core::Prima> OpenDbWith(core::PrimaOptions options) {
    crash_ = std::make_shared<CrashingBlockDevice>(base_);
    options.device = crash_;
    auto db = core::Prima::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// Minimal schema for the bounded-WAL tests (BREP would flood a small
  /// ring with schema pages).
  static void CreateItemType(core::Prima* db) {
    ASSERT_TRUE(db->Execute("CREATE ATOM_TYPE item"
                            " ( item_id : IDENTIFIER,"
                            "   num : INTEGER,"
                            "   name : CHAR_VAR )"
                            " KEYS_ARE (num)")
                    .ok());
  }

  util::Result<Tid> InsertItem(core::Prima* db, int64_t num) {
    const auto* item = db->access().catalog().FindAtomType("item");
    PRIMA_ASSIGN_OR_RETURN(core::Transaction * txn, db->Begin());
    auto tid = txn->InsertAtom(
        item->id, {AttrValue{1, Value::Int(num)},
                   AttrValue{2, Value::String("n" + std::to_string(num))}});
    if (!tid.ok()) return tid.status();
    PRIMA_RETURN_IF_ERROR(txn->Commit());
    return tid;
  }

  /// Pull the plug: every write from now on (including the exit
  /// checkpoint) is silently dropped.
  void Crash(std::unique_ptr<core::Prima>* db) {
    crash_->CrashNow();
    db->reset();
  }

  util::Result<Tid> InsertSolid(core::Transaction* txn,
                                const access::AtomTypeDef* def, int64_t no) {
    return txn->InsertAtom(
        def->id, {AttrValue{def->FindAttr("solid_no")->id, Value::Int(no)},
                  AttrValue{def->FindAttr("description")->id,
                            Value::String("s" + std::to_string(no))}});
  }

  std::shared_ptr<MemoryBlockDevice> base_;
  std::shared_ptr<CrashingBlockDevice> crash_;
};

TEST_F(CrashRecoveryTest, CommittedTransactionsSurviveCrash) {
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());  // checkpoint: DDL durable
  const auto* solid = db->access().catalog().FindAtomType("solid");
  ASSERT_NE(solid, nullptr);

  std::vector<Tid> tids;
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  for (int64_t i = 1; i <= 3; ++i) {
    auto tid = InsertSolid(*txn, solid, i);
    ASSERT_TRUE(tid.ok()) << tid.status().ToString();
    tids.push_back(*tid);
  }
  ASSERT_TRUE((*txn)->Commit().ok());

  auto txn2 = db->Begin();
  ASSERT_TRUE(
      (*txn2)
          ->ModifyAtom(tids[0], {AttrValue{solid->FindAttr("description")->id,
                                           Value::String("updated")}})
          .ok());
  ASSERT_TRUE((*txn2)->Commit().ok());

  Crash(&db);

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* solid2 = db2->access().catalog().FindAtomType("solid");
  ASSERT_NE(solid2, nullptr);
  EXPECT_EQ(db2->access().AtomCount(solid2->id), 3u);
  for (const Tid& tid : tids) {
    auto atom = db2->access().GetAtom(tid);
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
  }
  auto updated = db2->access().GetAtom(tids[0]);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->attrs[solid2->FindAttr("description")->id].AsString(),
            "updated");
  // The recovered database accepts new work.
  auto set = db2->Query("SELECT ALL FROM solid");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 3u);
}

TEST_F(CrashRecoveryTest, UncommittedTransactionRolledBackOnRecovery) {
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto* solid = db->access().catalog().FindAtomType("solid");

  auto committed = db->Begin();
  auto keep = InsertSolid(*committed, solid, 1);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE((*committed)->Commit().ok());

  // The loser: inserts and modifies, never commits. Force its log records
  // onto the device so recovery actually has something to undo (a purely
  // buffered loser simply evaporates).
  auto loser = db->Begin();
  auto lost = InsertSolid(*loser, solid, 2);
  ASSERT_TRUE(lost.ok());
  ASSERT_TRUE((*loser)
                  ->ModifyAtom(*keep, {AttrValue{solid->FindAttr("description")->id,
                                                 Value::String("dirty")}})
                  .ok());
  ASSERT_TRUE(db->wal()->ForceAll().ok());
  // Some of the loser's pages may even reach the device: flush storage
  // directly (bypassing the checkpoint) to simulate eviction pressure.
  ASSERT_TRUE(db->storage().Flush().ok());

  Crash(&db);

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  EXPECT_GE(db2->recovery()->stats().loser_txns, 1u);
  const auto* solid2 = db2->access().catalog().FindAtomType("solid");
  EXPECT_EQ(db2->access().AtomCount(solid2->id), 1u);
  EXPECT_FALSE(db2->access().AtomExists(*lost));
  auto kept = db2->access().GetAtom(*keep);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->attrs[solid2->FindAttr("description")->id].AsString(), "s1")
      << "loser's modify must be rolled back";
}

TEST_F(CrashRecoveryTest, SurvivesTornFlush) {
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto* solid = db->access().catalog().FindAtomType("solid");

  std::vector<Tid> tids;
  for (int64_t i = 1; i <= 8; ++i) {
    auto txn = db->Begin();
    auto tid = InsertSolid(*txn, solid, i);
    ASSERT_TRUE(tid.ok());
    tids.push_back(*tid);
    ASSERT_TRUE((*txn)->Commit().ok());
  }

  // The flush dies a few blocks in: some pages land, some don't, the
  // checkpoint's master record never commits. Exactly the torn multi-page
  // state WAL recovery exists for.
  crash_->SetWriteBudget(3);
  (void)db->Flush();  // reports success; the device dropped most of it
  Crash(&db);

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* solid2 = db2->access().catalog().FindAtomType("solid");
  EXPECT_EQ(db2->access().AtomCount(solid2->id), 8u);
  for (size_t i = 0; i < tids.size(); ++i) {
    auto atom = db2->access().GetAtom(tids[i]);
    ASSERT_TRUE(atom.ok()) << "solid " << i << ": " << atom.status().ToString();
    EXPECT_EQ(atom->attrs[solid2->FindAttr("solid_no")->id].AsInt(),
              static_cast<int64_t>(i + 1));
  }
}

TEST_F(CrashRecoveryTest, RuntimeAbortStaysAbortedAfterCrash) {
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto* solid = db->access().catalog().FindAtomType("solid");

  auto txn = db->Begin();
  auto tid = InsertSolid(*txn, solid, 1);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*txn)->Abort().ok());  // compensated + CLR-logged
  ASSERT_TRUE(db->wal()->ForceAll().ok());

  Crash(&db);

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* solid2 = db2->access().catalog().FindAtomType("solid");
  EXPECT_EQ(db2->access().AtomCount(solid2->id), 0u);
  EXPECT_FALSE(db2->access().AtomExists(*tid));
}

TEST_F(CrashRecoveryTest, RecoveryIsIdempotentAcrossRestarts) {
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto* solid = db->access().catalog().FindAtomType("solid");
  auto txn = db->Begin();
  ASSERT_TRUE(InsertSolid(*txn, solid, 1).ok());
  ASSERT_TRUE((*txn)->Commit().ok());
  Crash(&db);

  // First recovery, then crash again immediately (its post-recovery
  // checkpoint dropped), then recover once more.
  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  Crash(&db2);
  auto db3 = OpenDb();
  ASSERT_NE(db3, nullptr);
  const auto* solid3 = db3->access().catalog().FindAtomType("solid");
  EXPECT_EQ(db3->access().AtomCount(solid3->id), 1u);
}

TEST_F(CrashRecoveryTest, InterleavedChildAbortCompensatesExactRecords) {
  // Parent works while a child is active, the child aborts, the parent
  // never commits, the process crashes. Restart must undo the PARENT's
  // operation but not re-wind the child's (already compensated) — the
  // compensation record names exact LSNs, not a count off the tail.
  auto db = OpenDb();
  workloads::BrepWorkload brep(db.get());
  ASSERT_TRUE(brep.CreateSchema().ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto* solid = db->access().catalog().FindAtomType("solid");

  auto setup = db->Begin();
  auto base = InsertSolid(*setup, solid, 1);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*setup)->Commit().ok());

  auto parent = db->Begin();
  auto child_or = (*parent)->BeginChild();
  ASSERT_TRUE(child_or.ok());
  auto child_tid = InsertSolid(*child_or, solid, 2);  // child op C1
  ASSERT_TRUE(child_tid.ok());
  ASSERT_TRUE((*parent)
                  ->ModifyAtom(*base, {AttrValue{solid->FindAttr("description")->id,
                                                 Value::String("parent-dirty")}})
                  .ok());  // parent op P1, interleaved
  ASSERT_TRUE((*child_or)->Abort().ok());  // compensates C1 only
  ASSERT_TRUE(db->wal()->ForceAll().ok());

  Crash(&db);  // parent never committed -> loser

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* solid2 = db2->access().catalog().FindAtomType("solid");
  EXPECT_EQ(db2->access().AtomCount(solid2->id), 1u);
  EXPECT_FALSE(db2->access().AtomExists(*child_tid));
  auto kept = db2->access().GetAtom(*base);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->attrs[solid2->FindAttr("description")->id].AsString(), "s1")
      << "parent's interleaved modify must be undone at restart";
}

TEST_F(CrashRecoveryTest, CheckpointShortensRedo) {
  auto run = [this](bool mid_checkpoint) -> uint64_t {
    base_ = std::make_shared<MemoryBlockDevice>();  // fresh database
    auto db = OpenDb();
    workloads::BrepWorkload brep(db.get());
    EXPECT_TRUE(brep.CreateSchema().ok());
    EXPECT_TRUE(db->Flush().ok());
    const auto* solid = db->access().catalog().FindAtomType("solid");
    for (int64_t i = 1; i <= 10; ++i) {
      auto txn = db->Begin();
      EXPECT_TRUE(InsertSolid(*txn, solid, i).ok());
      EXPECT_TRUE((*txn)->Commit().ok());
      if (mid_checkpoint && i == 8) {
        EXPECT_TRUE(db->Flush().ok());  // fuzzy checkpoint
      }
    }
    Crash(&db);
    auto db2 = OpenDb();
    EXPECT_NE(db2, nullptr);
    const auto* solid2 = db2->access().catalog().FindAtomType("solid");
    EXPECT_EQ(db2->access().AtomCount(solid2->id), 10u);
    return db2->recovery()->stats().records_scanned;
  };

  const uint64_t without_ckpt = run(false);
  const uint64_t with_ckpt = run(true);
  EXPECT_GT(without_ckpt, 0u);
  EXPECT_LT(with_ckpt, without_ckpt)
      << "a checkpoint must shorten the restart scan";
}

// ---------------------------------------------------------------------------
// Circular WAL: truncation / wraparound under crashes, via Prima
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, BoundedWalSurvivesCrashAfterCheckpointCommit) {
  static constexpr uint64_t kWalCap = 1u << 20;  // 1 MiB ring
  auto db = OpenDb(kWalCap);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());

  // Sustained checkpointed workload: run until the log has wrapped at
  // least twice, checkpointing every few commits so truncation keeps up.
  int inserted = 0;
  while (db->wal()->append_lsn() < 3 * db->wal()->capacity_bytes()) {
    ASSERT_LT(inserted, 5000) << "log never wrapped - ring far too large?";
    auto tid = InsertItem(db.get(), ++inserted);
    ASSERT_TRUE(tid.ok()) << tid.status().ToString();
    if (inserted % 10 == 0) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  EXPECT_LE(db->wal_stats().footprint_bytes, kWalCap)
      << "the WAL file must stay bounded by wal_max_bytes";

  // Crash in the exact window between the checkpoint's master-record
  // commit (inside Flush) and any append that would reuse recycled blocks.
  ASSERT_TRUE(db->Flush().ok());
  Crash(&db);

  auto db2 = OpenDb(kWalCap);
  ASSERT_NE(db2, nullptr);
  const auto* item = db2->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db2->access().AtomCount(item->id),
            static_cast<size_t>(inserted));
  // The recovered ring keeps rotating.
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(InsertItem(db2.get(), 10000 + i).ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(db2->Flush().ok());
    }
  }
  ASSERT_TRUE(db2->Flush().ok());
  EXPECT_EQ(db2->access().AtomCount(item->id),
            static_cast<size_t>(inserted) + 25);
  EXPECT_LE(db2->wal_stats().footprint_bytes, kWalCap);
}

TEST_F(CrashRecoveryTest, DoubleCrashRecoveryWithWrappedLog) {
  static constexpr uint64_t kWalCap = 1u << 20;
  auto db = OpenDb(kWalCap);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());

  int inserted = 0;
  while (db->wal()->append_lsn() < 2 * db->wal()->capacity_bytes()) {
    ASSERT_LT(inserted, 5000) << "log never wrapped - ring far too large?";
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
    if (inserted % 10 == 0) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  // A few more commits AFTER the last checkpoint so recovery has live
  // wrapped log to redo, then crash mid-interval.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  Crash(&db);

  // Recover, then crash again before the post-recovery checkpoint's work
  // is extended — recovery over the wrapped ring must be idempotent.
  auto db2 = OpenDb(kWalCap);
  ASSERT_NE(db2, nullptr);
  Crash(&db2);
  auto db3 = OpenDb(kWalCap);
  ASSERT_NE(db3, nullptr);
  const auto* item = db3->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db3->access().AtomCount(item->id), static_cast<size_t>(inserted));
  auto set = db3->Query("SELECT ALL FROM item");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), static_cast<size_t>(inserted));
}

TEST_F(CrashRecoveryTest, RecoveredPartitionCopyIsNotDuplicated) {
  // A partition copy that was drained (materialized in the partition file,
  // pages WAL-logged) but whose address-table registration died with the
  // process: the restart re-enqueue must update that copy in place, not
  // insert an orphan duplicate.
  auto db = OpenDb();
  CreateItemType(db.get());
  ASSERT_TRUE(db->ExecuteLdl("CREATE PARTITION pnum ON item (num)").ok());
  ASSERT_TRUE(db->Flush().ok());  // DDL + empty partition durable

  auto tid = InsertItem(db.get(), 1);
  ASSERT_TRUE(tid.ok());
  // Drain: the copy lands in the partition record file and is registered
  // in the (memory-resident) address table.
  ASSERT_TRUE(db->access().DrainAll().ok());
  ASSERT_TRUE(db->wal()->ForceAll().ok());  // its pages are on the device
  Crash(&db);  // ... but the registration is not

  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  ASSERT_TRUE(db2->access().DrainAll().ok());
  const auto* part = db2->access().catalog().FindStructure("pnum");
  ASSERT_NE(part, nullptr);
  auto* file = db2->access().PartitionFile(part->id);
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->record_count(), 1u)
      << "re-enqueued upsert must reuse the recovered copy";
  // And the mapping actually points at the surviving record.
  auto rid = db2->access().addresses().Lookup(*tid, part->id);
  EXPECT_TRUE(rid.ok());
}

TEST_F(CrashRecoveryTest, CleanReopenAfterRecoveryKeepsMultiPageBlob) {
  // Regression (latent since PR 1): ~Prima checkpointed, detached the WAL,
  // and then ~AccessSystem re-persisted the metadata blobs UNLOGGED —
  // RewriteSequence reshuffles the blob's component pages and Format wipes
  // their page-LSNs, so the NEXT restart's redo (replaying the committed
  // checkpoint window over the device) reassembled a corrupt address blob
  // and silently emptied the database. Needs a blob larger than one page
  // (several hundred atoms); the shutdown flushes are now suppressed
  // whenever a WAL owns durability.
  auto db = OpenDb();
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());
  const int kAtoms = 700;  // ~13KB address blob: needs component pages
  for (int i = 0; i < kAtoms; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), i).ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  Crash(&db);  // crash with post-checkpoint commits to redo

  auto db2 = OpenDb();  // recovery pass
  ASSERT_NE(db2, nullptr);
  const auto* item2 = db2->access().catalog().FindAtomType("item");
  ASSERT_EQ(db2->access().AtomCount(item2->id), size_t{kAtoms});
  db2.reset();  // CLEAN shutdown: exit checkpoint, then destructors

  auto db3 = OpenDb();
  ASSERT_NE(db3, nullptr);
  const auto* item3 = db3->access().catalog().FindAtomType("item");
  ASSERT_NE(item3, nullptr);
  EXPECT_EQ(db3->access().AtomCount(item3->id), size_t{kAtoms})
      << "clean reopen after recovery must not lose the address blob";
  db3.reset();
  auto db4 = OpenDb();  // and once more, for the ping-pong page sets
  const auto* item4 = db4->access().catalog().FindAtomType("item");
  EXPECT_EQ(db4->access().AtomCount(item4->id), size_t{kAtoms});
}

/// In-memory device whose fsync takes a while, as a disk barrier does:
/// committers that arrive during one force wait and share the next one.
class LatentSyncDevice : public MemoryBlockDevice {
 public:
  util::Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    return util::Status::Ok();
  }
};

TEST_F(CrashRecoveryTest, ConcurrentCommittersShareForcesAndSurviveCrash) {
  static constexpr int kThreads = 8;
  static constexpr int kCommitsPerThread = 8;
  base_ = std::make_shared<LatentSyncDevice>();
  auto db = OpenDb();
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> committers;
  committers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto tid = InsertItem(db.get(), t * 1000 + i);
        if (!tid.ok()) failures++;
      }
    });
  }
  for (auto& th : committers) th.join();
  ASSERT_EQ(failures.load(), 0);

  const auto stats = db->wal_stats();
  EXPECT_EQ(stats.commits_forced, uint64_t{kThreads * kCommitsPerThread});
  EXPECT_GT(stats.records_per_force, 1.0);
  EXPECT_GT(stats.commits_per_force, 1.0)
      << "committers arriving during a force must share the next one";

  Crash(&db);
  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* item = db2->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db2->access().AtomCount(item->id),
            size_t{kThreads * kCommitsPerThread})
      << "every acknowledged commit must survive the crash";
}

// ---------------------------------------------------------------------------
// Checkpoint daemon via Prima: NoSpace never reaches a well-behaved committer
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, DaemonKeepsSustainedWorkloadOutOfNoSpace) {
  static constexpr uint64_t kWalCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kWalCap;  // daemon active by default (fraction 0.5)
  auto db = OpenDbWith(options);
  ASSERT_NE(db->checkpoint_daemon(), nullptr);
  CreateItemType(db.get());

  // ZERO manual Flush() calls from here on: checkpoint scheduling is
  // entirely the daemon's job (plus the commit retry hook when a burst
  // outruns its poll). PR 2 semantics would hit NoSpace inside one lap.
  int inserted = 0;
  while (db->wal()->append_lsn() < 3 * db->wal()->capacity_bytes()) {
    ASSERT_LT(inserted, 10000) << "log never wrapped - ring far too large?";
    auto tid = InsertItem(db.get(), ++inserted);
    ASSERT_TRUE(tid.ok()) << "commit " << inserted << ": "
                          << tid.status().ToString();
  }
  const auto stats = db->wal_stats();
  EXPECT_LE(stats.footprint_bytes, kWalCap);
  EXPECT_GE(stats.auto_checkpoints +
                db->checkpoint_daemon()->stats().requested_checkpoints,
            1u);

  // Observability: an open transaction pins the undo floor and is visible
  // as the oldest active LSN; finishing it clears the gauge.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(db->wal_stats().active_txns, 1u);
  EXPECT_GT(db->wal_stats().oldest_active_lsn, 0u);
  ASSERT_TRUE((*txn)->Commit().ok());
  EXPECT_EQ(db->wal_stats().active_txns, 0u);
  EXPECT_EQ(db->wal_stats().oldest_active_lsn, 0u);

  // And the crash contract is unchanged: every acknowledged commit is
  // recovered, whoever scheduled the checkpoints.
  Crash(&db);
  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  const auto* item = db2->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db2->access().AtomCount(item->id), static_cast<size_t>(inserted));
}

TEST_F(CrashRecoveryTest, CommitNoSpacePokesDaemonAndRetries) {
  core::PrimaOptions options;
  options.wal_max_bytes = 128 * 4096;  // ring of 511 KiB, reserve 1/4:
                                       // commits refused at ~383 KiB live,
                                       // with ample reserve left for the
                                       // checkpoint's own log traffic
  options.checkpoint_ring_fraction = 0.99;  // threshold above the NoSpace
                                            // point: only the poke path can
                                            // save a committer
  auto db = OpenDbWith(options);
  ASSERT_NE(db->checkpoint_daemon(), nullptr);
  CreateItemType(db.get());

  int inserted = 0;
  while (db->wal()->append_lsn() < 2 * db->wal()->capacity_bytes()) {
    ASSERT_LT(inserted, 5000);
    auto tid = InsertItem(db.get(), ++inserted);
    ASSERT_TRUE(tid.ok()) << "commit " << inserted
                          << " should have poked the daemon and retried: "
                          << tid.status().ToString();
  }
  EXPECT_GE(db->checkpoint_daemon()->stats().requested_checkpoints, 1u)
      << "the full ring must have triggered at least one poke";
}

// ---------------------------------------------------------------------------
// Media recovery: fuzzy backup + archived log rebuild a destroyed device
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, MediaRecoveryRebuildsDestroyedDataDevice) {
  static constexpr uint64_t kWalCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kWalCap;
  options.wal_archive = true;
  auto db = OpenDbWith(options);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());

  int inserted = 0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  // Fuzzy online backup mid-workload, then keep writing until the ring has
  // wrapped well past the dump: from here on the archive is the ONLY log
  // covering the dump's replay window.
  auto info = db->Backup();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->segments, 0u);
  EXPECT_GT(info->start_lsn, 0u);
  while (db->wal()->append_lsn() < info->start_lsn + 2 * kWalCap) {
    ASSERT_LT(inserted, 10000);
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  EXPECT_GT(db->wal_stats().archived_bytes, 0u);
  Crash(&db);

  // The disaster: every data segment is destroyed. Only the WAL, the
  // archive, and the backup dump — the "separate media" — survive.
  for (storage::SegmentId id : base_->ListFiles()) {
    if (!storage::IsReservedFileId(id)) {
      ASSERT_TRUE(base_->Remove(id).ok());
    }
  }

  core::PrimaOptions restore;
  restore.wal_max_bytes = kWalCap;
  restore.restore_from_backup = true;
  auto db2 = OpenDbWith(restore);
  ASSERT_NE(db2, nullptr);
  const auto* item = db2->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db2->access().AtomCount(item->id), static_cast<size_t>(inserted));
  auto set = db2->Query("SELECT ALL FROM item");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), static_cast<size_t>(inserted));

  // The rebuilt database accepts new work and then reopens normally,
  // WITHOUT the restore flag.
  ASSERT_TRUE(InsertItem(db2.get(), ++inserted).ok());
  db2.reset();  // clean shutdown: exit checkpoint
  core::PrimaOptions plain;
  plain.wal_max_bytes = kWalCap;
  auto db3 = OpenDbWith(plain);
  ASSERT_NE(db3, nullptr);
  const auto* item3 = db3->access().catalog().FindAtomType("item");
  ASSERT_NE(item3, nullptr);
  EXPECT_EQ(db3->access().AtomCount(item3->id), static_cast<size_t>(inserted));
  db3.reset();

  // A damaged archived block INSIDE the replay window must fail media
  // recovery loudly: silently treating the CRC failure as end-of-log
  // would "recover" an ancient state. (Plain restart never reads the
  // archive and is unaffected — covered above by db3's clean reopen.)
  char junk[LogArchiver::kWalBlockSize];
  std::memset(junk, 0xEE, sizeof(junk));
  const uint64_t bad_block =
      1 + info->start_lsn / LogArchiver::kWalBlockSize + 2;
  ASSERT_TRUE(
      base_->Write(storage::kArchiveSegmentId, bad_block, junk).ok());
  for (storage::SegmentId id : base_->ListFiles()) {
    if (!storage::IsReservedFileId(id)) {
      ASSERT_TRUE(base_->Remove(id).ok());
    }
  }
  core::PrimaOptions damaged;
  damaged.wal_max_bytes = kWalCap;
  damaged.restore_from_backup = true;
  damaged.device = std::make_shared<CrashingBlockDevice>(base_);
  auto failed = core::Prima::Open(std::move(damaged));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
}

TEST_F(CrashRecoveryTest, MediaRecoveryRefusesWhenLiveWalIsMissing) {
  // Losing the WAL file alongside the data device must fail media
  // recovery LOUDLY — an empty fresh log would otherwise pass every scan
  // check vacuously and "recover" the raw fuzzy dump pages with zero
  // replay.
  static constexpr uint64_t kWalCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kWalCap;
  options.wal_archive = true;
  auto db = OpenDbWith(options);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), i).ok());
  }
  ASSERT_TRUE(db->Backup().ok());
  Crash(&db);
  for (storage::SegmentId id : base_->ListFiles()) {
    if (!storage::IsReservedFileId(id)) {
      ASSERT_TRUE(base_->Remove(id).ok());
    }
  }
  ASSERT_TRUE(base_->Remove(storage::kWalSegmentId).ok());

  // (a) WAL gone, archive present: refused before a fresh log can be
  // initialized over the surviving history.
  core::PrimaOptions restore;
  restore.wal_max_bytes = kWalCap;
  restore.restore_from_backup = true;
  restore.device = std::make_shared<CrashingBlockDevice>(base_);
  auto failed = core::Prima::Open(std::move(restore));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();

  // The refusal is stable across retries: the refused attempt must not
  // have left a fresh WAL behind (that would flip a retry onto the
  // existing-log path, which rebases the surviving archive away).
  EXPECT_FALSE(base_->Exists(storage::kWalSegmentId));
  EXPECT_TRUE(base_->Exists(storage::kArchiveSegmentId));
  core::PrimaOptions retry;
  retry.wal_max_bytes = kWalCap;
  retry.restore_from_backup = true;
  retry.device = std::make_shared<CrashingBlockDevice>(base_);
  auto failed_retry = core::Prima::Open(std::move(retry));
  ASSERT_FALSE(failed_retry.ok());
  EXPECT_TRUE(failed_retry.status().IsCorruption())
      << failed_retry.status().ToString();

  // (b) WAL and archive both gone: the fresh log's durable end (0) lies
  // below the dump's start LSN — refused by MediaRecover.
  ASSERT_TRUE(base_->Remove(storage::kArchiveSegmentId).ok());
  core::PrimaOptions restore2;
  restore2.wal_max_bytes = kWalCap;
  restore2.restore_from_backup = true;
  restore2.device = std::make_shared<CrashingBlockDevice>(base_);
  auto failed2 = core::Prima::Open(std::move(restore2));
  ASSERT_FALSE(failed2.ok());
  EXPECT_TRUE(failed2.status().IsCorruption()) << failed2.status().ToString();
}

TEST_F(CrashRecoveryTest, BackupRefusedOnBoundedWalWithoutArchive) {
  // A dump that the next truncation would orphan must be refused at
  // backup time, not discovered unrestorable at disaster time.
  core::PrimaOptions options;
  options.wal_max_bytes = 256u << 10;  // bounded ring, wal_archive OFF
  auto db = OpenDbWith(options);
  CreateItemType(db.get());
  auto info = db->Backup();
  ASSERT_FALSE(info.ok());
  EXPECT_TRUE(info.status().IsInvalidArgument()) << info.status().ToString();
}

TEST_F(CrashRecoveryTest, TornNewerDumpFallsBackToPreviousBackupSlot) {
  // Dumps alternate between two slots (like the WAL's master slots): a
  // crash tearing the dump being written must leave the previous
  // committed dump restorable — and replay through archive + live WAL
  // still recovers EVERYTHING committed, not just the older dump's state.
  static constexpr uint64_t kWalCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kWalCap;
  options.wal_archive = true;
  auto db = OpenDbWith(options);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());
  int inserted = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  ASSERT_TRUE(db->Backup().ok());  // seq 1 -> kBackupSegmentId
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  ASSERT_TRUE(db->Backup().ok());  // seq 2 -> kBackupAltSegmentId
  EXPECT_TRUE(base_->Exists(storage::kBackupSegmentId));
  EXPECT_TRUE(base_->Exists(storage::kBackupAltSegmentId));
  Crash(&db);

  // Tear the newer dump's header, destroy the data device.
  char junk[4096];
  std::memset(junk, 0xAB, sizeof(junk));
  ASSERT_TRUE(base_->Write(storage::kBackupAltSegmentId, 0, junk).ok());
  for (storage::SegmentId id : base_->ListFiles()) {
    if (!storage::IsReservedFileId(id)) {
      ASSERT_TRUE(base_->Remove(id).ok());
    }
  }

  core::PrimaOptions restore;
  restore.wal_max_bytes = kWalCap;
  restore.restore_from_backup = true;
  auto db2 = OpenDbWith(restore);
  ASSERT_NE(db2, nullptr);
  const auto* item = db2->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db2->access().AtomCount(item->id), static_cast<size_t>(inserted));
}

TEST_F(CrashRecoveryTest, MediaRecoveryCrossProcessDrive) {
  // The full drive, with real process death and a real file-backed device:
  // a child works a bounded archived ring with daemon-scheduled
  // checkpoints (zero manual Flush), takes a fuzzy backup mid-workload,
  // keeps committing until the ring wraps past it, and _exit()s without
  // any shutdown. The parent then destroys the data device and rebuilds
  // from backup + archive + live WAL.
  const TempDir temp("prima_media_recovery_");
  ASSERT_FALSE(temp.path().empty());
  const std::string& dir = temp.path();
  static constexpr uint64_t kWalCap = 256u << 10;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: no gtest here; failures are exit codes ---
    core::PrimaOptions options;
    options.in_memory = false;
    options.path = dir;
    options.wal_max_bytes = kWalCap;
    options.wal_archive = true;
    auto db_or = core::Prima::Open(std::move(options));
    if (!db_or.ok()) ::_exit(10);
    auto db = std::move(*db_or);
    if (!db->Execute("CREATE ATOM_TYPE item"
                     " ( item_id : IDENTIFIER,"
                     "   num : INTEGER,"
                     "   name : CHAR_VAR )"
                     " KEYS_ARE (num)")
             .ok()) {
      ::_exit(11);
    }
    const auto* item = db->access().catalog().FindAtomType("item");
    if (item == nullptr) ::_exit(12);
    int committed = 0;
    auto insert_one = [&]() -> bool {
      auto txn = db->Begin();
      if (!txn.ok()) return false;
      auto tid = (*txn)->InsertAtom(
          item->id,
          {AttrValue{1, Value::Int(committed + 1)},
           AttrValue{2, Value::String("n" + std::to_string(committed + 1))}});
      if (!tid.ok()) return false;
      if (!(*txn)->Commit().ok()) return false;
      ++committed;
      return true;
    };
    while (db->wal()->append_lsn() < 2 * db->wal()->capacity_bytes()) {
      if (committed > 5000) ::_exit(13);
      if (!insert_one()) ::_exit(14);
      if (committed == 50 && !db->Backup().ok()) ::_exit(15);
    }
    if (committed <= 50) ::_exit(16);
    {
      std::ofstream out(dir + "/committed.txt");
      out << committed;
    }
    ::_exit(42);  // the machine dies: no destructors, no exit checkpoint
  }

  // --- parent ---
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42) << "child workload failed";
  int committed = 0;
  {
    std::ifstream in(dir + "/committed.txt");
    in >> committed;
  }
  ASSERT_GT(committed, 50);

  // Destroy the data device: every data segment file is deleted; the WAL,
  // archive, and backup files survive as the separate media.
  {
    storage::FileBlockDevice device(dir);
    for (storage::SegmentId id : device.ListFiles()) {
      if (!storage::IsReservedFileId(id)) {
        ASSERT_TRUE(device.Remove(id).ok());
      }
    }
  }

  core::PrimaOptions restore;
  restore.in_memory = false;
  restore.path = dir;
  restore.wal_max_bytes = kWalCap;
  restore.restore_from_backup = true;
  auto db_or = core::Prima::Open(std::move(restore));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);
  const auto* item = db->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(db->access().AtomCount(item->id), static_cast<size_t>(committed));

  // Every committed atom survived, value for value.
  std::set<int64_t> nums;
  for (const Tid& tid : db->access().AllAtoms(item->id)) {
    auto atom = db->access().GetAtom(tid);
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    nums.insert(atom->attrs[1].AsInt());
  }
  EXPECT_EQ(nums.size(), static_cast<size_t>(committed));
  if (!nums.empty()) {
    EXPECT_EQ(*nums.begin(), 1);
    EXPECT_EQ(*nums.rbegin(), committed);
  }
  auto set = db->Query("SELECT ALL FROM item");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), static_cast<size_t>(committed));
}

// ---------------------------------------------------------------------------
// Redo chains: per-page record chains, replayed in first-record order
// ---------------------------------------------------------------------------

// Build a full-image redo entry over `image` (the whole page but the
// checksum and page-LSN). The caller keeps `image` alive for the entry's
// lifetime.
storage::StorageSystem::RedoEntry FullImageEntry(const char* image,
                                                 uint32_t page_size,
                                                 uint64_t lsn) {
  storage::StorageSystem::RedoEntry e;
  e.lsn = lsn;
  e.full_image = true;
  e.ranges.emplace_back(4, Slice(image + 4, PageHeader::kSize - 12));
  e.ranges.emplace_back(PageHeader::kSize,
                        Slice(image + PageHeader::kSize,
                              page_size - PageHeader::kSize));
  return e;
}

TEST(RedoChainTest, ChainApplyGatesOnPageLsnAndHealsTornPages) {
  auto base = std::make_shared<MemoryBlockDevice>();
  constexpr uint32_t kPs = 4096;
  char image[kPs];
  PageHeader::Format(image, kPs, 1, storage::PageType::kSlotted);
  std::memset(image + PageHeader::kSize, 'a', 64);

  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    ASSERT_TRUE(storage->CreateSegment(1, storage::PageSize::k4K).ok());
    auto result = storage->RecoverApplyPageRedoChain(
        1, 1, kPs, {FullImageEntry(image, kPs, 100)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->applied, 1u);
    EXPECT_FALSE(result->torn);
    auto guard = storage->FixPage(1, 1, storage::LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(PageHeader::lsn(guard->data()), 100u);
    EXPECT_EQ(guard->data()[PageHeader::kSize], 'a');
    ASSERT_TRUE(storage->Flush().ok());
  }

  // Redo idempotence on a fresh incarnation: the device page already
  // carries LSN 100, so the same record (and anything older) skips.
  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    auto result = storage->RecoverApplyPageRedoChain(
        1, 1, kPs, {FullImageEntry(image, kPs, 100)});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->applied, 0u);
    EXPECT_EQ(result->skipped, 1u);
  }

  // Tear the device image: a delta-only chain must report the page torn
  // (a delta onto a zeroed base would destroy the rest of the page)...
  char junk[kPs];
  std::memset(junk, 0xEE, sizeof(junk));
  ASSERT_TRUE(base->Write(1, 1, junk).ok());
  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    storage::StorageSystem::RedoEntry delta;
    delta.lsn = 300;
    delta.ranges.emplace_back(PageHeader::kSize, Slice("zz", 2));
    auto result = storage->RecoverApplyPageRedoChain(1, 1, kPs, {delta});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->torn);
    EXPECT_EQ(result->applied, 0u);
  }
  // ... while a chain whose full image precedes the delta heals and
  // replays the page completely.
  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    storage::StorageSystem::RedoEntry delta;
    delta.lsn = 500;
    delta.ranges.emplace_back(PageHeader::kSize, Slice("zz", 2));
    auto result = storage->RecoverApplyPageRedoChain(
        1, 1, kPs, {FullImageEntry(image, kPs, 400), delta});
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->torn);
    EXPECT_EQ(result->applied, 2u);
    auto guard = storage->FixPage(1, 1, storage::LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(PageHeader::lsn(guard->data()), 500u);
    EXPECT_EQ(guard->data()[PageHeader::kSize], 'z');
    EXPECT_EQ(guard->data()[PageHeader::kSize + 2], 'a');
  }
}

TEST(RedoChainTest, LogOrderFirstErrorSurfaces) {
  // A poison redo record (unsupported page size -> segment create fails
  // during the apply) must fail the restart loudly, and with two of them
  // the reported error is the one a record-by-record log replay meets
  // first: chains apply in first-record order, not page order.
  auto base = std::make_shared<MemoryBlockDevice>();
  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    WalWriter wal(&storage->device());
    ASSERT_TRUE(wal.Open().ok());
    storage->SetWal(&wal);
    ASSERT_TRUE(storage->CreateSegment(1, storage::PageSize::k4K).ok());
    for (int i = 0; i < 6; ++i) {
      auto guard = storage->NewPage(1, storage::PageType::kSlotted);
      ASSERT_TRUE(guard.ok());
      guard->mutable_data()[PageHeader::kSize + 1] = static_cast<char>('A' + i);
    }
    // TWO poison records, arranged so page order (segment 98 first)
    // disagrees with log order (segment 99 appended first): the reported
    // error must be the OLDER one.
    LogRecord poison;
    poison.type = LogRecordType::kPageRedo;
    poison.segment = 99;
    poison.page = 1;
    poison.page_size = 1234;  // not a device block size
    poison.ranges.push_back({40, "zz"});
    wal.Append(poison);
    LogRecord poison2 = poison;
    poison2.segment = 98;
    poison2.page_size = 777;  // a DIFFERENT invalid size: messages differ
    wal.Append(poison2);
    ASSERT_TRUE(wal.ForceAll().ok());
  }

  auto storage = std::make_unique<storage::StorageSystem>(
      std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  WalWriter wal(&storage->device());
  ASSERT_TRUE(wal.Open().ok());
  RecoveryManager recovery(storage.get(), &wal);
  const Status st = recovery.AnalyzeAndRedo();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("1234"), std::string::npos)
      << "must report the log-order-first failure: " << st.ToString();
}

TEST(RedoChainTest, TornPageWithoutFullImageFailsRestartLoudly) {
  // The scan window holds only a DELTA for a page whose device image is
  // torn: no full image can rebuild it, so the apply phase must surface
  // the torn page as a loud Corruption instead of replaying onto garbage.
  auto base = std::make_shared<MemoryBlockDevice>();
  {
    auto storage = std::make_unique<storage::StorageSystem>(
        std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
    ASSERT_TRUE(storage->Open().ok());
    WalWriter wal(&storage->device());
    ASSERT_TRUE(wal.Open().ok());
    storage->SetWal(&wal);
    ASSERT_TRUE(storage->CreateSegment(1, storage::PageSize::k4K).ok());
    {
      auto guard = storage->NewPage(1, storage::PageType::kSlotted);
      ASSERT_TRUE(guard.ok());
      guard->mutable_data()[PageHeader::kSize] = 'x';
    }
    // Checkpoint: the page (and its full-image record) drop out of the
    // next restart's scan window.
    RecoveryManager recovery(storage.get(), &wal);
    ASSERT_TRUE(recovery.Checkpoint(nullptr).ok());
    // Tear the page on the device, then log a post-checkpoint delta for it.
    char junk[4096];
    std::memset(junk, 0xEE, sizeof(junk));
    ASSERT_TRUE(base->Write(1, 1, junk).ok());
    LogRecord delta;
    delta.type = LogRecordType::kPageRedo;
    delta.segment = 1;
    delta.page = 1;
    delta.page_size = 4096;
    delta.ranges.push_back({PageHeader::kSize, "yy"});
    wal.Append(delta);
    ASSERT_TRUE(wal.ForceAll().ok());
  }

  auto storage = std::make_unique<storage::StorageSystem>(
      std::make_unique<CrashingBlockDevice>(base), storage::StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  WalWriter wal(&storage->device());
  ASSERT_TRUE(wal.Open().ok());
  RecoveryManager recovery(storage.get(), &wal);
  const Status st = recovery.AnalyzeAndRedo();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("torn page"), std::string::npos)
      << st.ToString();
}

TEST_F(CrashRecoveryTest, RestartReplaysManyPageChains) {
  // Grow a crashed image whose redo window spans many pages, then restart:
  // every atom and every modified value must come back through redo.
  auto db = OpenDb();
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());
  std::vector<Tid> tids;
  for (int i = 1; i <= 300; ++i) {
    auto tid = InsertItem(db.get(), i);
    ASSERT_TRUE(tid.ok());
    tids.push_back(*tid);
  }
  // A second wave of modifies layers deltas over the full images.
  for (int i = 0; i < 300; i += 3) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)
                    ->ModifyAtom(tids[i],
                                 {AttrValue{2, Value::String(
                                                "mod" + std::to_string(i))}})
                    .ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  Crash(&db);

  core::PrimaOptions options;
  options.device = std::shared_ptr<storage::BlockDevice>(base_->Clone());
  auto recovered = core::Prima::Open(std::move(options));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT((*recovered)->wal_stats().redo_records_applied, 0u);
  EXPECT_EQ((*recovered)->recovery()->stats().redo_threads, 1u);

  const auto* item = (*recovered)->access().catalog().FindAtomType("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ((*recovered)->access().AtomCount(item->id), 300u);
  for (size_t i = 0; i < tids.size(); ++i) {
    auto atom = (*recovered)->access().GetAtom(tids[i]);
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    EXPECT_EQ(atom->attrs[1].AsInt(), static_cast<int64_t>(i + 1));
    EXPECT_EQ(atom->attrs[2].AsString(), i % 3 == 0
                                             ? "mod" + std::to_string(i)
                                             : "n" + std::to_string(i + 1));
  }
}

TEST_F(CrashRecoveryTest, WrappedArchivedRecoveryStableAcrossClones) {
  // A wrapped, archived circular log: repeated recovery of clones of the
  // same crashed image must converge to the same atom values — including
  // a second crash-recover cycle per clone.
  static constexpr uint64_t kWalCap = 256u << 10;
  core::PrimaOptions options;
  options.wal_max_bytes = kWalCap;
  options.wal_archive = true;
  auto db = OpenDbWith(options);
  CreateItemType(db.get());
  ASSERT_TRUE(db->Flush().ok());
  int inserted = 0;
  while (db->wal()->append_lsn() < 2 * db->wal()->capacity_bytes()) {
    ASSERT_LT(inserted, 10000);
    ASSERT_TRUE(InsertItem(db.get(), ++inserted).ok());
  }
  Crash(&db);

  std::vector<std::set<int64_t>> recovered_nums;
  for (int round = 0; round < 2; ++round) {
    auto clone = std::shared_ptr<MemoryBlockDevice>(base_->Clone());
    auto crash = std::make_shared<CrashingBlockDevice>(clone);
    core::PrimaOptions o;
    o.device = crash;
    o.wal_max_bytes = kWalCap;
    auto db2 = core::Prima::Open(o);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    const auto* item = (*db2)->access().catalog().FindAtomType("item");
    ASSERT_NE(item, nullptr);
    EXPECT_EQ((*db2)->access().AtomCount(item->id),
              static_cast<size_t>(inserted));
    // Crash the recovered instance (post-recovery checkpoint dropped) and
    // recover the same image once more.
    crash->CrashNow();
    db2->reset();
    o.device = std::make_shared<CrashingBlockDevice>(clone);
    auto db3 = core::Prima::Open(std::move(o));
    ASSERT_TRUE(db3.ok()) << db3.status().ToString();
    const auto* item3 = (*db3)->access().catalog().FindAtomType("item");
    ASSERT_NE(item3, nullptr);
    std::set<int64_t> nums;
    for (const Tid& tid : (*db3)->access().AllAtoms(item3->id)) {
      auto atom = (*db3)->access().GetAtom(tid);
      ASSERT_TRUE(atom.ok()) << atom.status().ToString();
      nums.insert(atom->attrs[1].AsInt());
    }
    EXPECT_EQ(nums.size(), static_cast<size_t>(inserted));
    recovered_nums.push_back(std::move(nums));
  }
  EXPECT_EQ(recovered_nums[0], recovered_nums[1]);
}

}  // namespace
}  // namespace prima::recovery
