#include "recovery/log_record.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace prima::recovery {

using util::Result;
using util::Slice;
using util::Status;

void LogRecord::EncodeInto(std::string* out) const {
  out->push_back(static_cast<char>(type));
  util::PutVarint64(out, txn_id);
  switch (type) {
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpointEnd:
      break;
    case LogRecordType::kPageRedo:
    case LogRecordType::kPageImage:
      util::PutVarint64(out, segment);
      util::PutVarint64(out, page);
      util::PutVarint64(out, page_size);
      util::PutVarint64(out, ranges.size());
      for (const ByteRange& r : ranges) {
        util::PutVarint64(out, r.offset);
        util::PutLengthPrefixed(out, r.bytes);
      }
      break;
    case LogRecordType::kSegMeta:
      util::PutVarint64(out, segment);
      out->push_back(static_cast<char>(page_size_code));
      util::PutVarint64(out, page_count);
      util::PutVarint64(out, free_head);
      break;
    case LogRecordType::kStructRoot:
      util::PutVarint64(out, segment);  // structure id
      util::PutVarint64(out, page);     // new root/meta page
      break;
    case LogRecordType::kAtomUndo:
      out->push_back(static_cast<char>(op));
      out->push_back(clr ? 1 : 0);
      util::PutFixed64(out, tid);
      util::PutFixed64(out, rid);
      util::PutLengthPrefixed(out, before);
      break;
    case LogRecordType::kCompensation:
      util::PutVarint64(out, undo_count);
      util::PutVarint64(out, comp_lsns.size());
      for (uint64_t lsn : comp_lsns) util::PutVarint64(out, lsn);
      break;
    case LogRecordType::kCheckpointBegin:
      util::PutVarint64(out, active_txns.size());
      for (const auto& [id, first_lsn] : active_txns) {
        util::PutVarint64(out, id);
        util::PutVarint64(out, first_lsn);
      }
      util::PutVarint64(out, undo_low_lsn);
      break;
  }
}

namespace {
Status Truncated() { return Status::Corruption("truncated log record"); }
}  // namespace

Result<LogRecord> LogRecord::Decode(Slice in) {
  LogRecord rec;
  if (in.empty()) return Truncated();
  const uint8_t raw_type = static_cast<uint8_t>(in[0]);
  if (raw_type < static_cast<uint8_t>(LogRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(LogRecordType::kPageImage)) {
    return Status::Corruption("unknown log record type " +
                              std::to_string(raw_type));
  }
  rec.type = static_cast<LogRecordType>(raw_type);
  in.RemovePrefix(1);
  if (!util::GetVarint64(&in, &rec.txn_id)) return Truncated();

  uint64_t v = 0;
  switch (rec.type) {
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpointEnd:
      break;
    case LogRecordType::kPageRedo:
    case LogRecordType::kPageImage: {
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.segment = static_cast<uint32_t>(v);
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.page = static_cast<uint32_t>(v);
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.page_size = static_cast<uint32_t>(v);
      uint64_t n = 0;
      if (!util::GetVarint64(&in, &n)) return Truncated();
      rec.ranges.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        ByteRange r;
        if (!util::GetVarint64(&in, &v)) return Truncated();
        r.offset = static_cast<uint32_t>(v);
        Slice bytes;
        if (!util::GetLengthPrefixed(&in, &bytes)) return Truncated();
        r.bytes.assign(bytes.data(), bytes.size());
        if (r.offset + r.bytes.size() > rec.page_size) {
          return Status::Corruption("page redo range beyond page end");
        }
        rec.ranges.push_back(std::move(r));
      }
      break;
    }
    case LogRecordType::kSegMeta:
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.segment = static_cast<uint32_t>(v);
      if (in.empty()) return Truncated();
      rec.page_size_code = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.page_count = static_cast<uint32_t>(v);
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.free_head = static_cast<uint32_t>(v);
      break;
    case LogRecordType::kStructRoot:
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.segment = static_cast<uint32_t>(v);
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.page = static_cast<uint32_t>(v);
      break;
    case LogRecordType::kAtomUndo: {
      if (in.size() < 2) return Truncated();
      const uint8_t raw_op = static_cast<uint8_t>(in[0]);
      if (raw_op > static_cast<uint8_t>(AtomOp::kDelete)) {
        return Status::Corruption("unknown atom op");
      }
      rec.op = static_cast<AtomOp>(raw_op);
      rec.clr = in[1] != 0;
      in.RemovePrefix(2);
      if (!util::GetFixed64(&in, &rec.tid)) return Truncated();
      if (!util::GetFixed64(&in, &rec.rid)) return Truncated();
      Slice before;
      if (!util::GetLengthPrefixed(&in, &before)) return Truncated();
      rec.before.assign(before.data(), before.size());
      break;
    }
    case LogRecordType::kCompensation: {
      if (!util::GetVarint64(&in, &v)) return Truncated();
      rec.undo_count = static_cast<uint32_t>(v);
      uint64_t n = 0;
      if (!util::GetVarint64(&in, &n)) return Truncated();
      rec.comp_lsns.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        if (!util::GetVarint64(&in, &v)) return Truncated();
        rec.comp_lsns.push_back(v);
      }
      break;
    }
    case LogRecordType::kCheckpointBegin: {
      uint64_t n = 0;
      if (!util::GetVarint64(&in, &n)) return Truncated();
      rec.active_txns.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t id = 0, first = 0;
        if (!util::GetVarint64(&in, &id) || !util::GetVarint64(&in, &first)) {
          return Truncated();
        }
        rec.active_txns.emplace_back(id, first);
      }
      if (!util::GetVarint64(&in, &rec.undo_low_lsn)) return Truncated();
      break;
    }
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after log record");
  }
  return rec;
}

LogRecord LogRecord::Begin(uint64_t txn) {
  LogRecord r;
  r.type = LogRecordType::kBegin;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::Commit(uint64_t txn) {
  LogRecord r;
  r.type = LogRecordType::kCommit;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::Abort(uint64_t txn) {
  LogRecord r;
  r.type = LogRecordType::kAbort;
  r.txn_id = txn;
  return r;
}

LogRecord LogRecord::SegMeta(uint32_t segment, uint8_t page_size_code,
                             uint32_t page_count, uint32_t free_head) {
  LogRecord r;
  r.type = LogRecordType::kSegMeta;
  r.segment = segment;
  r.page_size_code = page_size_code;
  r.page_count = page_count;
  r.free_head = free_head;
  return r;
}

LogRecord LogRecord::StructRoot(uint32_t structure_id, uint32_t root_page) {
  LogRecord r;
  r.type = LogRecordType::kStructRoot;
  r.segment = structure_id;
  r.page = root_page;
  return r;
}

LogRecord LogRecord::Compensation(uint64_t txn, std::vector<uint64_t> lsns) {
  LogRecord r;
  r.type = LogRecordType::kCompensation;
  r.txn_id = txn;
  r.undo_count = static_cast<uint32_t>(lsns.size());
  r.comp_lsns = std::move(lsns);
  return r;
}

namespace {

// First index in [i, end) where `a` and `b` differ, or `end`. Compares eight
// bytes at a time and resolves a differing word byte by byte.
uint32_t NextDifference(const char* a, const char* b, uint32_t i,
                        uint32_t end) {
  for (; i + 8 <= end; i += 8) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    if (x != y) break;
  }
  while (i < end && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::vector<LogRecord::ByteRange> DiffPageImages(const char* before,
                                                 const char* after,
                                                 uint32_t page_size) {
  // Gaps shorter than this are folded into the surrounding range: each range
  // costs ~3 bytes of framing, so tiny gaps are cheaper logged than split.
  constexpr uint32_t kMergeGap = 8;
  // The excluded header fields, [0,4) checksum and [24,32) page-LSN, split
  // the page into two spans that no range crosses: [4,24) and [32,size).
  const uint32_t spans[2][2] = {{4, std::min<uint32_t>(24, page_size)},
                                {32, page_size}};

  std::vector<LogRecord::ByteRange> out;
  for (const auto& [lo, hi] : spans) {
    uint32_t i = NextDifference(before, after, lo, hi);
    while (i < hi) {
      // A changed run extends to the next change while fewer than kMergeGap
      // equal bytes lie between the two.
      const uint32_t start = i;
      uint32_t last_change = i;
      for (;;) {
        i = NextDifference(before, after, last_change + 1, hi);
        if (i >= hi || i - last_change > kMergeGap) break;
        last_change = i;
      }
      LogRecord::ByteRange r;
      r.offset = start;
      r.bytes.assign(after + start, last_change - start + 1);
      out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace prima::recovery
