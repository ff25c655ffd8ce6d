// Golden checksums: the CRC-32 every persistent and wire format stores,
// pinned to values computed by the plain slicing-by-8 implementation. A
// change to how Crc32 is computed that changed any value would make every
// existing page, log and backup unreadable and every older peer's frames
// corrupt; these cases show it without a crash drive.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>

#include "net/protocol.h"
#include "recovery/log_record.h"
#include "recovery/wal_writer.h"
#include "storage/block_device.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "util/coding.h"

namespace prima {
namespace {

std::string Pattern(size_t n, uint32_t mul, uint32_t add) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(i * mul + add);
  return s;
}

uint32_t SealedChecksum(uint32_t page_size) {
  std::string page = Pattern(page_size, 37, 11);
  storage::PageHeader::Seal(page.data(), page_size);
  EXPECT_TRUE(storage::PageHeader::Verify(page.data(), page_size));
  return util::DecodeFixed32(page.data());
}

TEST(ChecksumFormatTest, SealedPages) {
  EXPECT_EQ(SealedChecksum(512), 0x22AE3B7Au);
  EXPECT_EQ(SealedChecksum(8192), 0x178655E6u);
}

TEST(ChecksumFormatTest, WalRecordAndPadFragments) {
  // One page-redo record with a 200-byte range, forced: the first data
  // block holds its fragment, then the pad fragment that seals the block.
  auto device = std::make_shared<storage::MemoryBlockDevice>();
  recovery::WalWriter wal(device.get());
  ASSERT_TRUE(wal.Open().ok());
  recovery::LogRecord rec;
  rec.type = recovery::LogRecordType::kPageRedo;
  rec.txn_id = 7;
  rec.segment = 3;
  rec.page = 5;
  rec.page_size = 8192;
  rec.ranges.push_back({100, Pattern(200, 13, 5)});
  ASSERT_TRUE(wal.CommitForce(wal.Append(rec)).ok());

  constexpr uint64_t kFirstDataBlock = 2;  // after the two master slots
  char block[recovery::WalWriter::kBlockSize];
  ASSERT_TRUE(
      device->Read(storage::kWalSegmentId, kFirstDataBlock, block).ok());
  // A fragment is crc32 + len:u16 + kind:u8, then len payload bytes.
  const uint16_t len = util::DecodeFixed16(block + 4);
  ASSERT_LT(7u + len + 7u, sizeof(block));
  const char* pad = block + 7 + len;
  EXPECT_EQ(7u + len + 7u + util::DecodeFixed16(pad + 4), sizeof(block));
  EXPECT_EQ(util::DecodeFixed32(block), 0x65FA63DEu);
  EXPECT_EQ(util::DecodeFixed32(pad), 0x7A8E1AC7u);
}

TEST(ChecksumFormatTest, NetFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = Pattern(100, 29, 3);
  ASSERT_TRUE(net::WriteFrame(fds[0], net::MsgKind::kExecute, payload).ok());
  std::string frame(4 + 1 + payload.size() + 4, '\0');
  ASSERT_EQ(::read(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(util::DecodeFixed32(frame.data() + frame.size() - 4),
            0x6D29CFF6u);
  // The same bytes decode as a frame.
  ASSERT_TRUE(net::WriteFrame(fds[0], net::MsgKind::kExecute, payload).ok());
  net::Frame out;
  ASSERT_TRUE(net::ReadFrame(fds[1], net::kMaxRequestFrame, &out).ok());
  EXPECT_EQ(out.payload, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace prima
