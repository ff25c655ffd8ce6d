// Network server tests: framed-protocol codecs, handshake versioning,
// protocol robustness (malformed / truncated / oversized frames, mid-frame
// disconnects, double-closed ids, retired message kinds, malformed kBegun
// wrappers), one request per statement (local binds, BEGIN WORK riding
// with the transaction's first request, a cursor opening with its first
// batch, drained cursors released server-side), remote transactions and
// cursors with results byte-equal to in-process execution, the wedged-ring
// gauge on the wire, the shared statement cache, and a
// kill-the-server-mid-commit-storm crash drive proving acknowledged remote
// commits survive process death.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/prima.h"
#include "net/client.h"
#include "net/server.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "temp_dir.h"

namespace prima::net {
namespace {

using access::Value;
using core::Prima;
using core::PrimaOptions;
using util::Slice;
using util::Status;

std::unique_ptr<Prima> OpenServerDb(PrimaOptions options = {}) {
  options.listen_port = 0;
  auto db = Prima::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

std::unique_ptr<Client> ConnectTo(const Prima& db) {
  auto client = Client::Connect(
      "127.0.0.1", const_cast<Prima&>(db).net_server()->port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

/// One metric of a stats reply, by name; an absent name fails the test.
uint64_t Stat(const StatsMap& stats, const std::string& name) {
  const auto it = stats.find(name);
  if (it == stats.end()) {
    ADD_FAILURE() << name << " missing from the stats reply";
    return 0;
  }
  return it->second;
}

void CreateItemType(Client* client) {
  auto r = client->Execute(
      "CREATE ATOM_TYPE item (item_id: IDENTIFIER, num: INTEGER, "
      "name: CHAR_VAR) KEYS_ARE (num)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

Status InsertItem(Client* client, int64_t num) {
  return client
      ->Execute("INSERT item (num = " + std::to_string(num) + ", name = 'n" +
                std::to_string(num) + "')")
      .status();
}

/// Drain a remote cursor, returning every item's name attribute.
std::vector<std::string> DrainNames(RemoteCursor* cursor) {
  std::vector<std::string> names;
  for (;;) {
    auto m = cursor->Next();
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok() || !m->has_value()) break;
    names.push_back((*m)->groups[0].atoms[0].attrs[2].AsString());
  }
  return names;
}

// --- raw-socket helpers (protocol robustness tests speak bytes) -----------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer already closed - fine for these tests
    sent += static_cast<size_t>(n);
  }
}

std::string BuildFrame(MsgKind kind, const std::string& payload) {
  std::string body;
  body.push_back(static_cast<char>(kind));
  body.append(payload);
  std::string frame;
  util::PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(body);
  util::PutFixed32(&frame, util::Crc32(body));
  return frame;
}

std::string HelloPayload(uint32_t magic = kHandshakeMagic,
                         uint32_t version = kProtocolVersion) {
  std::string p;
  util::PutFixed32(&p, magic);
  util::PutFixed32(&p, version);
  return p;
}

/// Read one frame off a raw socket (no limit checks - test side).
bool RawReadFrame(int fd, Frame* out) {
  return ReadFrame(fd, kMaxReplyFrame, out).ok();
}

// --- codec round trips -----------------------------------------------------

TEST(NetProtocolTest, StatusRoundTrip) {
  const Status cases[] = {
      Status::Ok(),
      Status::NotFound("x"),
      Status::InvalidArgument("bad arg"),
      Status::Corruption("torn"),
      Status::NoSpace("full"),
      Status::Conflict("locked"),
      Status::ParseError("near 'FROM'"),
      Status::Aborted("rolled back"),
  };
  for (const Status& st : cases) {
    std::string wire;
    EncodeStatus(st, &wire);
    Slice in(wire);
    const Status back = DecodeStatus(&in);
    EXPECT_EQ(back.code(), st.code());
    EXPECT_EQ(back.message(), st.message());
  }
  // An unknown code byte must never decode as success.
  std::string wire;
  wire.push_back(static_cast<char>(0xEE));
  util::PutLengthPrefixed(&wire, "future error");
  Slice in(wire);
  EXPECT_TRUE(DecodeStatus(&in).IsIoError());
}

void PutStatsPair(std::string* wire, const std::string& name,
                  uint64_t value) {
  util::PutLengthPrefixed(wire, name);
  util::PutVarint64(wire, value);
}

TEST(NetProtocolTest, StatsReplyRoundTripsByName) {
  std::vector<obs::MetricSample> samples(3);
  samples[0].name = "prima_net_connections_accepted";
  samples[0].value = 7;
  samples[1].name = "prima_wal_oldest_active_lsn";
  samples[1].type = obs::MetricSample::Type::kGauge;
  samples[1].value = 0xDEADBEEF;
  samples[2].name = "prima_statement_us";
  samples[2].type = obs::MetricSample::Type::kHistogram;
  obs::Histogram latency;
  for (uint64_t v : {120u, 130u, 800u, 2500u}) latency.Record(v);
  samples[2].histogram = latency.Snapshot();

  std::string wire;
  EncodeStats(samples, &wire);
  Slice in(wire);
  auto back = DecodeStats(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(in.empty());
  // Counters and gauges one pair each; a histogram four.
  EXPECT_EQ(back->size(), 6u);
  EXPECT_EQ(back->at("prima_net_connections_accepted"), 7u);
  EXPECT_EQ(back->at("prima_wal_oldest_active_lsn"), 0xDEADBEEFu);
  const obs::HistogramSnapshot& h = samples[2].histogram;
  EXPECT_EQ(back->at("prima_statement_us_count"), 4u);
  EXPECT_EQ(back->at("prima_statement_us_p50"), h.p50());
  EXPECT_EQ(back->at("prima_statement_us_p95"), h.p95());
  EXPECT_EQ(back->at("prima_statement_us_p99"), h.p99());
  // A name the server did not send reads as absent, not as zero.
  EXPECT_EQ(back->count("prima_net_connections_active"), 0u);
}

TEST(NetProtocolTest, StatsReplySkipsUnknownNames) {
  // A newer server publishes a metric this build has never heard of; the
  // names this build reads keep their values around it.
  std::string wire;
  util::PutVarint64(&wire, 3);
  PutStatsPair(&wire, "prima_txns_committed", 11);
  PutStatsPair(&wire, "prima_from_a_newer_server", 99);
  PutStatsPair(&wire, "prima_txns_aborted", 22);
  Slice in(wire);
  auto back = DecodeStats(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->at("prima_txns_committed"), 11u);
  EXPECT_EQ(back->at("prima_txns_aborted"), 22u);
}

TEST(NetProtocolTest, StatsReplyRejectsMalformedInput) {
  const auto decode = [](const std::string& wire) {
    Slice in(wire);
    return DecodeStats(&in).status();
  };
  // The count promises two pairs, the payload holds one.
  std::string truncated;
  util::PutVarint64(&truncated, 2);
  PutStatsPair(&truncated, "prima_txns_committed", 11);
  EXPECT_TRUE(decode(truncated).IsCorruption());
  // Cut inside a pair's value.
  std::string mid_pair;
  util::PutVarint64(&mid_pair, 1);
  PutStatsPair(&mid_pair, "prima_wal_live_bytes", 1ull << 40);
  mid_pair.pop_back();
  EXPECT_TRUE(decode(mid_pair).IsCorruption());
  // No count at all.
  EXPECT_TRUE(decode("").IsCorruption());
  // An implausible count is refused before any pair is read.
  std::string bomb;
  util::PutVarint64(&bomb, 1ull << 40);
  EXPECT_TRUE(decode(bomb).IsCorruption());
  // So is an implausibly long name.
  std::string long_name;
  util::PutVarint64(&long_name, 1);
  PutStatsPair(&long_name, std::string(4096, 'x'), 1);
  EXPECT_TRUE(decode(long_name).IsCorruption());
}

TEST(NetProtocolTest, TextExecResultRoundTrip) {
  mql::ExecResult r;
  r.kind = mql::ExecResult::Kind::kText;
  r.text = "EXPLAIN ANALYZE: 3 molecule(s)\ntotal 42 us (0 ms)\nparse ...";
  std::string wire;
  EncodeExecResult(r, &wire);
  Slice in(wire);
  auto back = DecodeExecResult(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, mql::ExecResult::Kind::kText);
  EXPECT_EQ(back->text, r.text);
}

TEST(NetProtocolTest, FramesOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "SELECT ALL FROM part";
  ASSERT_TRUE(WriteFrame(fds[0], MsgKind::kExecute, payload).ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(fds[1], kMaxRequestFrame, &frame).ok());
  EXPECT_EQ(frame.kind, MsgKind::kExecute);
  EXPECT_EQ(frame.payload, payload);

  // Flipped payload bit -> CRC mismatch -> Corruption.
  std::string raw = BuildFrame(MsgKind::kExecute, payload);
  raw[7] ^= 0x01;
  SendAll(fds[0], raw);
  EXPECT_TRUE(ReadFrame(fds[1], kMaxRequestFrame, &frame).IsCorruption());

  // Oversized length header is refused without reading the claimed body.
  std::string huge;
  util::PutFixed32(&huge, kMaxRequestFrame + 1);
  huge.push_back(static_cast<char>(MsgKind::kExecute));
  SendAll(fds[0], huge);
  EXPECT_TRUE(ReadFrame(fds[1], kMaxRequestFrame, &frame).IsInvalidArgument());
  ::close(fds[0]);
  ::close(fds[1]);

  // A peer vanishing mid-frame surfaces IoError, not a hang or garbage.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string partial = BuildFrame(MsgKind::kExecute, payload);
  partial.resize(partial.size() / 2);
  SendAll(fds[0], partial);
  ::close(fds[0]);
  EXPECT_TRUE(ReadFrame(fds[1], kMaxRequestFrame, &frame).IsIoError());
  ::close(fds[1]);
}

// --- server basics ---------------------------------------------------------

TEST(NetServerTest, ExecuteAndQueryOverTheWire) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(InsertItem(client.get(), i).ok());
  }
  auto result = client->Execute("SELECT ALL FROM item WHERE num >= 4");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->molecules.size(), 7u);

  // Streaming cursor with a tiny batch size forces several fetch round
  // trips; the total must still be exact.
  auto cursor = client->OpenCursor("SELECT ALL FROM item", 3);
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  for (;;) {
    auto m = cursor->Next();
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    if (!m->has_value()) break;
    ++n;
  }
  EXPECT_EQ(n, 10u);
  EXPECT_TRUE(cursor->Close().ok());
  EXPECT_TRUE(client->Close().ok());
}

TEST(NetServerTest, StaleProtocolVersionRefused) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  // 2 is the previous version (a bind request per placeholder).
  for (const uint32_t version : {2u, 99u}) {
    const int fd = RawConnect(db->net_server()->port());
    SendAll(fd, BuildFrame(MsgKind::kHello,
                           HelloPayload(kHandshakeMagic, version)));
    Frame reply;
    ASSERT_TRUE(RawReadFrame(fd, &reply));
    ASSERT_EQ(reply.kind, MsgKind::kError);
    Slice in(reply.payload);
    EXPECT_TRUE(DecodeStatus(&in).IsNotSupported()) << version;
    ::close(fd);
  }
}

/// A hello of `version` gets NotSupported naming that version, then a close.
void ExpectHelloRefused(uint32_t version) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  const int fd = RawConnect(db->net_server()->port());
  SendAll(fd,
          BuildFrame(MsgKind::kHello, HelloPayload(kHandshakeMagic, version)));
  Frame reply;
  ASSERT_TRUE(RawReadFrame(fd, &reply));
  ASSERT_EQ(reply.kind, MsgKind::kError);
  Slice in(reply.payload);
  const Status st = DecodeStatus(&in);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.message().find("protocol version " + std::to_string(version)),
            std::string::npos)
      << st.ToString();
  EXPECT_FALSE(RawReadFrame(fd, &reply)) << "the server closes after refusing";
  ::close(fd);
}

// Version 3 chose an isolation per connection and per cursor; version 4
// has one read path, so a version-3 peer is refused at the handshake
// rather than have its cursor frames (one byte longer) misread.
TEST(NetServerTest, Version3HelloRefused) { ExpectHelloRefused(3); }

// Version 4 sent BEGIN WORK as a request of its own; version 5 holds it
// back and wraps it into the next request, so a version-4 peer is refused.
TEST(NetServerTest, Version4HelloRefused) { ExpectHelloRefused(4); }

TEST(NetServerTest, MalformedFramesDoNotKillTheServer) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  const uint16_t port = db->net_server()->port();

  {  // wrong magic
    const int fd = RawConnect(port);
    SendAll(fd, BuildFrame(MsgKind::kHello, HelloPayload(0x12345678)));
    Frame reply;
    ASSERT_TRUE(RawReadFrame(fd, &reply));
    EXPECT_EQ(reply.kind, MsgKind::kError);
    ::close(fd);
  }
  {  // raw garbage: a length header claiming an over-limit frame
    const int fd = RawConnect(port);
    SendAll(fd, std::string(64, '\xFF'));
    Frame reply;
    (void)RawReadFrame(fd, &reply);  // error frame or straight close - both fine
    ::close(fd);
  }
  {  // corrupted CRC after a clean handshake
    const int fd = RawConnect(port);
    SendAll(fd, BuildFrame(MsgKind::kHello, HelloPayload()));
    Frame reply;
    ASSERT_TRUE(RawReadFrame(fd, &reply));
    ASSERT_EQ(reply.kind, MsgKind::kHelloOk);
    std::string bad = BuildFrame(MsgKind::kExecute, "SELECT ALL FROM item");
    bad[bad.size() - 1] ^= 0x55;
    SendAll(fd, bad);
    ASSERT_TRUE(RawReadFrame(fd, &reply));
    ASSERT_EQ(reply.kind, MsgKind::kError);
    Slice in(reply.payload);
    EXPECT_TRUE(DecodeStatus(&in).IsCorruption());
    ::close(fd);
  }
  {  // mid-frame disconnect
    const int fd = RawConnect(port);
    std::string partial = BuildFrame(MsgKind::kHello, HelloPayload());
    partial.resize(6);
    SendAll(fd, partial);
    ::close(fd);
  }
  // After a clean handshake, each of these frames gets an error, then a
  // close: unknown request kinds, among them the retired 4 (version 2's
  // bind request), 10 (version 4's BEGIN WORK request) and 16 (version 3's
  // isolation choice), and kBegun frames that do not wrap exactly one
  // request (empty, wrapping another kBegun or a hello, wrapping an
  // unknown kind).
  auto kind = [](uint8_t k) { return std::string(1, static_cast<char>(k)); };
  const uint8_t begun = static_cast<uint8_t>(MsgKind::kBegun);
  const std::vector<std::pair<uint8_t, std::string>> refused = {
      {4, "???"},
      {10, ""},
      {16, "???"},
      {42, "???"},
      {begun, ""},
      {begun, kind(begun) + kind(static_cast<uint8_t>(MsgKind::kExecute)) +
                   "BEGIN WORK"},
      {begun, kind(static_cast<uint8_t>(MsgKind::kHello)) + HelloPayload()},
      {begun, kind(42) + "???"},
  };
  for (const auto& [k, payload] : refused) {
    const int fd = RawConnect(port);
    SendAll(fd, BuildFrame(MsgKind::kHello, HelloPayload()));
    Frame reply;
    ASSERT_TRUE(RawReadFrame(fd, &reply));
    SendAll(fd, BuildFrame(static_cast<MsgKind>(k), payload));
    ASSERT_TRUE(RawReadFrame(fd, &reply)) << int{k} << " " << payload.size();
    EXPECT_EQ(reply.kind, MsgKind::kError) << int{k} << " " << payload.size();
    EXPECT_FALSE(RawReadFrame(fd, &reply)) << int{k} << " " << payload.size();
    ::close(fd);
  }

  // After all that abuse the server still serves clean clients, and no
  // session leaked a connection slot (active connections drained to just
  // ours). A mid-frame disconnect is noticed asynchronously, so wait for
  // the slots to drain first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->net_server()->connections_active() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(db->net_server()->connections_active(), 0u);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Stat(*stats, "prima_net_connections_active"), 1u);
}

TEST(NetServerTest, DoubleCloseRejectedCleanly) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());

  auto stmt = client->Prepare("SELECT ALL FROM item WHERE num = ?");
  ASSERT_TRUE(stmt.ok());
  auto cursor = client->OpenCursor("SELECT ALL FROM item");
  ASSERT_TRUE(cursor.ok());

  EXPECT_TRUE(cursor->Close().ok());
  EXPECT_TRUE(cursor->Close().IsNotFound());  // stale id, clean refusal
  EXPECT_TRUE(stmt->Close().ok());
  EXPECT_TRUE(stmt->Close().IsNotFound());

  // The connection survived both refusals.
  auto result = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->molecules.size(), 1u);
}

TEST(NetServerTest, ConnectionLimitRefusesTheOverflow) {
  PrimaOptions options;
  options.net_max_connections = 2;
  auto db = OpenServerDb(options);
  ASSERT_NE(db, nullptr);
  auto c1 = ConnectTo(*db);
  auto c2 = ConnectTo(*db);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  // Make sure both connections are established server-side before the
  // third tries its luck.
  auto stats = c1->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Stat(*stats, "prima_net_connections_active"), 2u);

  auto c3 = Client::Connect("127.0.0.1", db->net_server()->port());
  EXPECT_FALSE(c3.ok());
  EXPECT_TRUE(c3.status().IsNoSpace()) << c3.status().ToString();

  // Dropping one admits the next.
  ASSERT_TRUE(c2->Close().ok());
  for (int i = 0; i < 100; ++i) {  // reap is lazy; poll briefly
    c3 = Client::Connect("127.0.0.1", db->net_server()->port());
    if (c3.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(c3.ok()) << c3.status().ToString();
}

TEST(NetServerTest, IdleConnectionsAreClosed) {
  PrimaOptions options;
  options.net_idle_timeout_ms = 100;
  auto db = OpenServerDb(options);
  ASSERT_NE(db, nullptr);
  auto idle = ConnectTo(*db);
  ASSERT_NE(idle, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server told us (or simply closed); either way the next call fails
  // and the server counted an idle close.
  EXPECT_FALSE(idle->Execute("SELECT ALL FROM item").ok());
  auto observer = ConnectTo(*db);
  ASSERT_NE(observer, nullptr);
  auto stats = observer->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(Stat(*stats, "prima_net_idle_closes"), 1u);
}

// --- transactions & cursors over the wire ---------------------------------

TEST(NetServerTest, RemoteTransactionsCommitAndRollBack) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());
  ASSERT_TRUE(InsertItem(client.get(), 2).ok());
  ASSERT_TRUE(client->Abort().ok());
  auto after_abort = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(after_abort.ok());
  EXPECT_EQ(after_abort->molecules.size(), 0u);

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(InsertItem(client.get(), 3).ok());
  ASSERT_TRUE(client->Commit().ok());
  auto after_commit = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(after_commit.ok());
  EXPECT_EQ(after_commit->molecules.size(), 1u);

  // Transaction state is per-connection, and a remote reader sees exactly
  // what a local session would: readers stream current (including
  // uncommitted) state, so the second connection observes the first's
  // open insert — and keeps the row only if that transaction commits.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(InsertItem(client.get(), 4).ok());
  auto other = ConnectTo(*db);
  ASSERT_NE(other, nullptr);
  auto local = db->OpenSession()->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(local.ok());
  auto other_view = other->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(other_view.ok());
  EXPECT_EQ(other_view->molecules.size(), local->molecules.size());
  ASSERT_TRUE(client->Commit().ok());
}

TEST(NetServerTest, AbortInvalidatesRemoteCursors) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(InsertItem(client.get(), i).ok());
  }
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(InsertItem(client.get(), 7).ok());
  auto cursor = client->OpenCursor("SELECT ALL FROM item", 2);
  ASSERT_TRUE(cursor.ok());
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  ASSERT_TRUE(client->Abort().ok());
  // The rollback pulled state the cursor would stream. Molecules already
  // buffered client-side — the rest of the first batch, which arrived with
  // the open — are still served locally; the next fetch that reaches the
  // server reports Aborted, exactly like a local cursor.
  Status st = Status::Ok();
  for (int i = 0; i < 8 && st.ok(); ++i) {
    auto m = cursor->Next();
    st = m.status();
    if (st.ok() && !m->has_value()) break;
  }
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
}

TEST(NetServerTest, PreparedStatementsOverTheWire) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());

  auto insert = client->Prepare("INSERT item (num = ?, name = :label)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->param_count(), 2u);
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(insert->Bind(0, Value::Int(i)).ok());
    ASSERT_TRUE(insert->Bind("label", Value::String("n" + std::to_string(i)))
                    .ok());
    auto r = insert->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  auto select = client->Prepare("SELECT ALL FROM item WHERE num >= ?");
  ASSERT_TRUE(select.ok());
  ASSERT_TRUE(select->Bind(0, Value::Int(15)).ok());
  auto cursor = select->Query(4);
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  for (;;) {
    auto m = cursor->Next();
    ASSERT_TRUE(m.ok());
    if (!m->has_value()) break;
    ++n;
  }
  EXPECT_EQ(n, 6u);

  // Binding an out-of-range slot / unknown name errors without killing
  // the statement.
  EXPECT_FALSE(select->Bind(9, Value::Int(1)).ok());
  EXPECT_FALSE(select->Bind("nope", Value::Int(1)).ok());
  ASSERT_TRUE(select->Bind(0, Value::Int(20)).ok());
  auto r = select->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->molecules.size(), 1u);
}

TEST(NetServerTest, RemotePreparedKeyedSelectRebindsWithoutReplanning) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  for (int i = 1; i <= 20; ++i) ASSERT_TRUE(InsertItem(client.get(), i).ok());
  auto local = db->OpenSession();

  auto select = client->Prepare("SELECT ALL FROM item WHERE num = ?");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  uint64_t plans = 0;
  for (int i = 1; i <= 20; ++i) {
    // Keys 20, 1, 19, 2, ...: every execution binds a different key.
    const int key = (i % 2 == 1) ? 21 - (i + 1) / 2 : i / 2;
    ASSERT_TRUE(select->Bind(0, Value::Int(key)).ok());
    auto remote = select->Execute();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto in_process = local->Execute("SELECT ALL FROM item WHERE num = " +
                                     std::to_string(key));
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    ASSERT_EQ(remote->molecules.size(), 1u);
    EXPECT_EQ(db->data().Format(*remote), db->data().Format(*in_process));
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (i == 1) plans = Stat(*stats, "prima_prepared_plans");
    EXPECT_EQ(Stat(*stats, "prima_prepared_plans"), plans)
        << "re-binding the key must not re-plan";
  }
}

// --- one request per statement ---------------------------------------------

/// Requests the server has handled for `client` since `*mark`, not counting
/// the stats request that took `*mark`; advances the mark past this read.
uint64_t RequestsSince(Client* client, uint64_t* mark) {
  auto stats = client->Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return 0;
  const uint64_t now = Stat(*stats, "prima_net_request_us_count");
  const uint64_t since = now - *mark - 1;  // the stats read behind *mark
  *mark = now;
  return since;
}

TEST(NetServerTest, EveryStatementIsOneRequest) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(InsertItem(client.get(), i).ok());
  uint64_t mark = 0;
  (void)RequestsSince(client.get(), &mark);

  auto insert = client->Prepare("INSERT item (num = ?, name = :label)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(RequestsSince(client.get(), &mark), 1u) << "prepare";
  ASSERT_TRUE(insert->Bind(0, Value::Int(6)).ok());
  ASSERT_TRUE(insert->Bind("label", Value::String("n6")).ok());
  ASSERT_TRUE(insert->Execute().ok());
  EXPECT_EQ(RequestsSince(client.get(), &mark), 1u) << "two binds + execute";

  // A result smaller than the batch arrives with the open: the drain and
  // the close send nothing.
  auto select = client->Prepare("SELECT ALL FROM item WHERE num >= ?");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  (void)RequestsSince(client.get(), &mark);
  ASSERT_TRUE(select->Bind(0, Value::Int(3)).ok());
  auto cursor = select->Query(16);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(DrainNames(&*cursor).size(), 4u);
  EXPECT_TRUE(cursor->Close().ok());
  EXPECT_EQ(RequestsSince(client.get(), &mark), 1u) << "query + drain + close";
  EXPECT_TRUE(cursor->Close().IsNotFound()) << "a second close still refuses";

  // Bind refusals are local, and word-for-word what a local prepared
  // statement says.
  auto local = db->OpenSession()->Prepare(
      "INSERT item (num = ?, name = :label)");
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const Value v = Value::Int(1);
  EXPECT_EQ(insert->Bind(2, v).ToString(), local->Bind(2, v).ToString());
  EXPECT_EQ(insert->Bind("", v).ToString(), local->Bind("", v).ToString());
  EXPECT_EQ(insert->Bind("nope", v).ToString(),
            local->Bind("nope", v).ToString());
  EXPECT_TRUE(insert->Bind(2, v).IsInvalidArgument());
  EXPECT_TRUE(insert->Bind("", v).IsInvalidArgument());
  EXPECT_TRUE(insert->Bind("nope", v).IsInvalidArgument());
  EXPECT_EQ(RequestsSince(client.get(), &mark), 0u) << "failed binds";

  // An unbound slot is still refused by the server, when the statement runs.
  auto fresh = client->Prepare("INSERT item (num = ?, name = :label)");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->Bind(0, Value::Int(7)).ok());
  const Status unbound = fresh->Execute().status();
  EXPECT_TRUE(unbound.IsInvalidArgument()) << unbound.ToString();
  EXPECT_NE(unbound.ToString().find("parameter 1 (:label) is unbound"),
            std::string::npos)
      << unbound.ToString();

  // BEGIN WORK sends nothing: it rides with the transaction's first
  // request, so BEGIN + INSERT + COMMIT is two requests, whether it is
  // spelled Begin() or statement text in any case, spacing or comments.
  (void)RequestsSince(client.get(), &mark);
  const std::string begins[] = {"", "begin  work", "(* tx *) Begin\tWork"};
  int64_t num = 100;
  for (const std::string& begin : begins) {
    if (begin.empty()) {
      ASSERT_TRUE(client->Begin().ok());
    } else {
      auto r = client->Execute(begin);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->kind, mql::ExecResult::Kind::kNone);
    }
    ASSERT_TRUE(InsertItem(client.get(), ++num).ok());
    ASSERT_TRUE(client->Commit().ok());
    EXPECT_EQ(RequestsSince(client.get(), &mark), 2u)
        << "BEGIN + INSERT + COMMIT, '" << begin << "'";
  }
  auto committed = db->OpenSession()->Execute(
      "SELECT ALL FROM item WHERE num > 100");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->molecules.size(), 3u);
}

// A deferred BEGIN's error arrives with the next call, which did not run.
TEST(NetServerTest, DeferredBeginInsideReadOnlyFailsTheNextCall) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());

  ASSERT_TRUE(client->Begin(/*read_only=*/true).ok());
  EXPECT_TRUE(client->Begin().ok()) << "a deferred BEGIN answers locally";
  const Status refused = InsertItem(client.get(), 2);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_NE(refused.message().find("BEGIN WORK inside a READ ONLY transaction"),
            std::string::npos)
      << refused.ToString();
  ASSERT_TRUE(client->Commit().ok());

  auto all = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->molecules.size(), 1u) << "the refused INSERT never ran";
}

// Nested transactions over the wire — including a BEGIN issued while
// another is still held back — leave what the same statements leave in
// process.
TEST(NetServerTest, NestedTransactionsMatchInProcess) {
  const std::vector<std::string> script = {
      "BEGIN WORK",  "INSERT item (num = 1, name = 'n1')",
      "BEGIN WORK",  "INSERT item (num = 2, name = 'n2')",
      "ABORT WORK",  "COMMIT WORK",
      "BEGIN WORK",  "BEGIN WORK",
      "INSERT item (num = 3, name = 'n3')",
      "ABORT WORK",  "INSERT item (num = 4, name = 'n4')",
      "COMMIT WORK",
  };
  auto remote_db = OpenServerDb();
  auto local_db = OpenServerDb();
  ASSERT_NE(remote_db, nullptr);
  ASSERT_NE(local_db, nullptr);
  auto client = ConnectTo(*remote_db);
  ASSERT_NE(client, nullptr);
  auto session = local_db->OpenSession();
  CreateItemType(client.get());
  ASSERT_TRUE(session
                  ->Execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                            "num: INTEGER, name: CHAR_VAR) KEYS_ARE (num)")
                  .ok());
  for (const std::string& statement : script) {
    const Status remote = client->Execute(statement).status();
    const Status local = session->Execute(statement).status();
    EXPECT_EQ(remote.ToString(), local.ToString()) << statement;
  }
  const std::string all = "SELECT ALL FROM item";
  auto remote = client->Execute(all);
  auto local = session->Execute(all);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(remote->molecules.size(), 2u);
  std::string remote_wire, local_wire;
  EncodeMoleculeSet(remote->molecules, &remote_wire);
  EncodeMoleculeSet(local->molecules, &local_wire);
  EXPECT_EQ(remote_wire, local_wire);
}

// Close() drops a BEGIN still held back: the server never begins it, and
// no transaction is left open.
TEST(NetServerTest, CloseDropsAPendingBegin) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto observer = ConnectTo(*db);
  ASSERT_NE(observer, nullptr);
  auto before = observer->Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Close().ok());
  auto after = observer->Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Stat(*after, "prima_txns_begun"),
            Stat(*before, "prima_txns_begun"));
  EXPECT_EQ(Stat(*after, "prima_wal_active_txns"), 0u);
}

TEST(NetServerTest, OversizedRequestFailsLocallyAndKeepsTheConnection) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());

  auto insert = client->Prepare("INSERT item (num = ?, name = ?)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  ASSERT_TRUE(insert->Bind(0, Value::Int(1)).ok());
  ASSERT_TRUE(
      insert->Bind(1, Value::String(std::string(kMaxRequestFrame + 1, 'x')))
          .ok());
  const Status oversized = insert->Execute().status();
  EXPECT_TRUE(oversized.IsInvalidArgument()) << oversized.ToString();
  EXPECT_TRUE(client->connected());

  ASSERT_TRUE(insert->Bind(1, Value::String("small")).ok());
  auto r = insert->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto all = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->molecules.size(), 1u);
}

TEST(NetServerTest, DrainedUnclosedCursorsDoNotPinServerState) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  ServerOptions options;
  options.max_cursors = 4;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client* client = connected->get();
  CreateItemType(client);
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(InsertItem(client, i).ok());

  // Each result fits in its first batch, so the server released the cursor
  // with its open reply; never closing them must not run into the cap.
  auto select = client->Prepare("SELECT ALL FROM item WHERE num >= ?");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  std::vector<RemoteCursor> unclosed;
  for (uint32_t i = 0; i < options.max_cursors + 4; ++i) {
    ASSERT_TRUE(select->Bind(0, Value::Int(1 + i % 3)).ok());
    auto cursor = select->Query();
    ASSERT_TRUE(cursor.ok()) << "open " << i << ": "
                             << cursor.status().ToString();
    EXPECT_EQ(DrainNames(&*cursor).size(), 3 - i % 3);
    unclosed.push_back(std::move(*cursor));
  }

  // A drained cursor releases its pin without a close.
  auto snap = client->OpenCursor("SELECT ALL FROM item", 1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(DrainNames(&*snap).size(), 3u);
  for (int i = 0; i < 1000; ++i) {
    auto s = client->Stats();
    ASSERT_TRUE(s.ok());
    if (Stat(*s, "prima_snapshots_active") == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "a drained, unclosed cursor still pins its view";
}

// --- stats & statement cache -----------------------------------------------

TEST(NetServerTest, StatsServeTheWedgedRingGauge) {
  PrimaOptions options;
  options.wal_max_bytes = 256u << 10;
  auto db = OpenServerDb(options);
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());

  // Hold a transaction open on a second connection: the gauge must show it
  // as an active transaction pinning an undo floor.
  auto pinner = ConnectTo(*db);
  ASSERT_NE(pinner, nullptr);
  ASSERT_TRUE(pinner->Begin().ok());
  ASSERT_TRUE(InsertItem(pinner.get(), 2).ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(Stat(*stats, "prima_net_connections_accepted"), 2u);
  EXPECT_EQ(Stat(*stats, "prima_net_connections_active"), 2u);
  EXPECT_GE(Stat(*stats, "prima_net_statements_executed"), 2u);
  // The ring's usable capacity (master record & alignment come off the
  // configured cap).
  EXPECT_GT(Stat(*stats, "prima_wal_capacity_bytes"), 0u);
  EXPECT_LE(Stat(*stats, "prima_wal_capacity_bytes"), 256u << 10);
  EXPECT_GT(Stat(*stats, "prima_wal_live_bytes"), 0u);
  EXPECT_GE(Stat(*stats, "prima_wal_active_txns"), 1u);
  EXPECT_GT(Stat(*stats, "prima_wal_oldest_active_lsn"), 0u);
  ASSERT_TRUE(pinner->Commit().ok());

  auto after = client->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Stat(*after, "prima_wal_active_txns"), 0u);
}

TEST(NetServerTest, SharedStatementCacheServesRepeatedExecutes) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());

  const std::string query = "SELECT ALL FROM item WHERE num >= 1";
  ASSERT_TRUE(client->Execute(query).ok());
  auto before = client->Stats();
  ASSERT_TRUE(before.ok());

  // The same text from a DIFFERENT connection (different session) hits the
  // shared cache: one-shot Execute gets the prepared fast path.
  auto other = ConnectTo(*db);
  ASSERT_NE(other, nullptr);
  for (int i = 0; i < 5; ++i) {
    auto r = other->Execute(query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->molecules.size(), 1u);
  }
  auto after = client->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_GE(Stat(*after, "prima_stmt_cache_hits"),
            Stat(*before, "prima_stmt_cache_hits") + 5);

  // DDL bumps the schema version; the stale entry must recompile, not
  // serve a plan over a dropped world.
  ASSERT_TRUE(client
                  ->Execute("CREATE ATOM_TYPE other (other_id: IDENTIFIER, "
                            "v: INTEGER)")
                  .ok());
  auto post_ddl = client->Execute(query);
  ASSERT_TRUE(post_ddl.ok());
  EXPECT_EQ(post_ddl->molecules.size(), 1u);
  auto final_stats = client->Stats();
  ASSERT_TRUE(final_stats.ok());
  EXPECT_GT(Stat(*final_stats, "prima_stmt_cache_misses"),
            Stat(*before, "prima_stmt_cache_misses"));
}

TEST(NetServerTest, ExplainAnalyzeAndMetricsOverTheWire) {
  auto db = OpenServerDb();
  ASSERT_NE(db, nullptr);
  auto client = ConnectTo(*db);
  ASSERT_NE(client, nullptr);
  CreateItemType(client.get());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(InsertItem(client.get(), i).ok());
  }

  // The span tree travels the wire as a kText result: same phases a local
  // session would report, rendered server-side.
  auto plan = client->Execute(
      "EXPLAIN ANALYZE SELECT ALL FROM item WHERE num = 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->kind, mql::ExecResult::Kind::kText);
  EXPECT_NE(plan->text.find("EXPLAIN ANALYZE: 1 molecule(s)"),
            std::string::npos)
      << plan->text;
  EXPECT_NE(plan->text.find("parse"), std::string::npos);
  EXPECT_NE(plan->text.find("plan"), std::string::npos);
  EXPECT_NE(plan->text.find("execute"), std::string::npos);

  // The metrics page round-trips through the kMetrics message.
  auto page = client->MetricsText();
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->find("prima_statement_us"), std::string::npos);
  EXPECT_NE(page->find("prima_buffer_hits"), std::string::npos);
  EXPECT_NE(page->find("prima_net_connections_active"), std::string::npos);

  // The stats reply carries the statement-latency summary by name too.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(Stat(*stats, "prima_statement_us_p99"), 0u);
  EXPECT_GE(Stat(*stats, "prima_statement_us_p99"),
            Stat(*stats, "prima_statement_us_p50"));
  // The EXPLAIN ANALYZE above.
  EXPECT_GE(Stat(*stats, "prima_statements_traced"), 1u);
}

// --- concurrency (the *Concurrent* filter runs under TSan in CI) ----------

TEST(NetServerTest, ConcurrentConnectionsByteEqualToInProcess) {
  constexpr int kClients = 64;
  constexpr int kRowsPerClient = 8;
  PrimaOptions options;
  options.net_max_connections = kClients + 8;
  auto db = OpenServerDb(options);
  ASSERT_NE(db, nullptr);
  {
    auto admin = ConnectTo(*db);
    ASSERT_NE(admin, nullptr);
    CreateItemType(admin.get());
  }

  // Phase 1: a storm of concurrent connections, each running an explicit
  // transaction of inserts into its own key range.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", db->net_server()->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!(*client)->Begin().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRowsPerClient; ++i) {
        if (!InsertItem(client->get(), t * 1000 + i).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      if (!(*client)->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Phase 2: every client's range, streamed over the wire, must be
  // byte-equal (wire encoding) to the same query run in-process.
  auto session = db->OpenSession();
  std::vector<std::thread> verifiers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kClients; ++t) {
    verifiers.emplace_back([&, t] {
      const std::string query =
          "SELECT ALL FROM item WHERE num >= " + std::to_string(t * 1000) +
          " AND num <= " + std::to_string(t * 1000 + kRowsPerClient - 1);
      auto client = Client::Connect("127.0.0.1", db->net_server()->port());
      if (!client.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      auto cursor = (*client)->OpenCursor(query, 3);
      if (!cursor.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      mql::MoleculeSet remote;
      for (;;) {
        auto m = cursor->Next();
        if (!m.ok()) {
          mismatches.fetch_add(1);
          return;
        }
        if (!m->has_value()) break;
        remote.molecules.push_back(std::move(**m));
      }
      if (remote.size() != static_cast<size_t>(kRowsPerClient)) {
        mismatches.fetch_add(1);
        return;
      }
      // In-process execution of the identical statement (own session: a
      // Session is a single-threaded context).
      auto local_session = db->OpenSession();
      auto local = local_session->Execute(query);
      if (!local.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      std::string remote_wire, local_wire;
      EncodeMoleculeSet(remote, &remote_wire);
      EncodeMoleculeSet(local->molecules, &local_wire);
      if (remote_wire != local_wire) mismatches.fetch_add(1);
    });
  }
  for (auto& th : verifiers) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  auto admin = ConnectTo(*db);
  ASSERT_NE(admin, nullptr);
  auto total = admin->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->molecules.size(),
            static_cast<size_t>(kClients * kRowsPerClient));
}

TEST(NetServerTest, ConcurrentStatementStormWhileStopping) {
  // Drain-on-shutdown under fire: clients keep issuing statements while
  // the database (and its server) is torn down. Every client must see
  // either success or a clean connection error - never a hang or crash.
  PrimaOptions options;
  options.net_max_connections = 64;
  auto db = OpenServerDb(options);
  ASSERT_NE(db, nullptr);
  {
    auto admin = ConnectTo(*db);
    ASSERT_NE(admin, nullptr);
    CreateItemType(admin.get());
  }
  const uint16_t port = db->net_server()->port();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      int seq = 0;
      while (!stop.load()) {
        auto client = Client::Connect("127.0.0.1", port);
        if (!client.ok()) break;
        while (!stop.load()) {
          if (!InsertItem(client->get(), t * 100000 + seq++).ok()) break;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  db->net_server()->Stop();  // drain: joins every connection thread
  stop.store(true);
  for (auto& th : threads) th.join();
  db.reset();  // full teardown after the drain - must not deadlock
}

// --- durability: kill the server mid-commit-storm --------------------------

TEST(NetServerTest, KilledServerLosesNoAcknowledgedCommits) {
  // A child process runs a file-backed database with the network server;
  // the parent storms it with remote auto-commit inserts over many
  // connections, records every acknowledged statement, and SIGKILLs the
  // child mid-storm. After restart recovery, every acknowledged insert
  // must be present: an ack means the commit record was forced to the log.
  const TempDir temp("prima_net_crash_");
  ASSERT_FALSE(temp.path().empty());
  const std::string& dir = temp.path();
  const std::string port_file = dir + "/port";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: serve until killed; no gtest here ---
    PrimaOptions options;
    options.in_memory = false;
    options.path = dir;
    options.listen_port = 0;
    options.net_max_connections = 64;
    auto db_or = Prima::Open(std::move(options));
    if (!db_or.ok()) ::_exit(10);
    auto child_db = std::move(*db_or);
    if (!child_db
             ->Execute(
                 "CREATE ATOM_TYPE item (item_id: IDENTIFIER, num: INTEGER, "
                 "name: CHAR_VAR) KEYS_ARE (num)")
             .ok()) {
      ::_exit(11);
    }
    // Checkpoint the DDL so the segment files are fully formed on disk;
    // everything after this point must survive on the strength of forced
    // commit records alone.
    if (!child_db->Flush().ok()) ::_exit(12);
    {
      std::ofstream out(port_file + ".tmp");
      out << child_db->net_server()->port();
    }
    std::rename((port_file + ".tmp").c_str(), port_file.c_str());
    for (;;) ::pause();  // serve until SIGKILL
  }

  // --- parent: wait for the port, then storm ---
  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::ifstream in(port_file);
    int p = 0;
    if (in >> p && p > 0) {
      port = static_cast<uint16_t>(p);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(port, 0) << "server child never published its port";

  constexpr int kStormThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> total_acked{0};
  std::vector<int> acked(kStormThreads, 0);  // per-thread high-water mark
  std::vector<std::thread> threads;
  for (int t = 0; t < kStormThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      int seq = 0;
      while (!stop.load()) {
        // Auto-commit insert: the ack implies a forced commit record.
        if (!InsertItem(client->get(), t * 1000000 + seq).ok()) return;
        acked[t] = seq;  // this thread is the only writer of its slot
        ++seq;
        total_acked.fetch_add(1);
      }
    });
  }
  while (total_acked.load() < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);  // mid-storm, no shutdown of any kind
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  stop.store(true);
  for (auto& th : threads) th.join();
  ASSERT_GE(total_acked.load(), 200);

  // Restart recovery on the survivor files, then verify every ack.
  PrimaOptions reopen;
  reopen.in_memory = false;
  reopen.path = dir;
  auto db_or = Prima::Open(std::move(reopen));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);
  auto all = db->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::set<int64_t> present;
  for (const auto& m : all->molecules.molecules) {
    ASSERT_FALSE(m.groups.empty());
    ASSERT_FALSE(m.groups[0].atoms.empty());
    present.insert(m.groups[0].atoms[0].attrs[1].AsInt());
  }
  size_t verified = 0;
  for (int t = 0; t < kStormThreads; ++t) {
    for (int seq = 0; seq <= acked[t]; ++seq) {
      EXPECT_TRUE(present.count(t * 1000000 + seq) == 1)
          << "acknowledged insert lost: thread " << t << " seq " << seq;
      ++verified;
    }
  }
  EXPECT_GE(verified, 200u);
}

TEST(NetServerTest, ShutdownRollsBackOpenRemoteTransactions) {
  // A clean Stop() (not a crash) drains connections: an open remote
  // transaction rolls back through its session destructor, logged, so the
  // reopened database has the committed rows and nothing else.
  const TempDir temp("prima_net_drain_");
  ASSERT_FALSE(temp.path().empty());
  const std::string& dir = temp.path();
  {
    PrimaOptions options;
    options.in_memory = false;
    options.path = dir;
    options.listen_port = 0;
    auto db = OpenServerDb(options);
    ASSERT_NE(db, nullptr);
    auto client = ConnectTo(*db);
    ASSERT_NE(client, nullptr);
    CreateItemType(client.get());
    ASSERT_TRUE(InsertItem(client.get(), 1).ok());  // committed
    ASSERT_TRUE(client->Begin().ok());
    ASSERT_TRUE(InsertItem(client.get(), 2).ok());  // never committed
    db.reset();  // ~Prima stops the server first; the drain rolls back
  }
  PrimaOptions reopen;
  reopen.in_memory = false;
  reopen.path = dir;
  auto db_or = Prima::Open(std::move(reopen));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto all = (*db_or)->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->molecules.size(), 1u);
  EXPECT_EQ(all->molecules.molecules[0].groups[0].atoms[0].attrs[1].AsInt(),
            1);
}

// --- reads on the wire ----------------------------------------------------

// A remote cursor pins its view server-side at open: pulled in batches
// after another connection clobbers every name, it still drains the
// pre-clobber population, while a cursor opened afterwards sees the new
// world.
TEST(NetServerTest, CursorOverTheWireDrainsPreClobberPopulation) {
  auto db = OpenServerDb();
  auto client = ConnectTo(*db);
  CreateItemType(client.get());
  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(InsertItem(client.get(), i).ok());

  auto pinned = client->OpenCursor("SELECT ALL FROM item", 2);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  auto writer = ConnectTo(*db);
  ASSERT_TRUE(writer->Execute("MODIFY item SET name = 'clobbered'").ok());

  const std::vector<std::string> old_names = DrainNames(&*pinned);
  ASSERT_EQ(old_names.size(), 6u);
  for (const std::string& n : old_names) EXPECT_EQ(n[0], 'n') << n;

  auto later = client->OpenCursor("SELECT ALL FROM item");
  ASSERT_TRUE(later.ok());
  for (const std::string& n : DrainNames(&*later)) {
    EXPECT_EQ(n, "clobbered");
  }
}

TEST(NetServerTest, ReadOnlyTransactionOverTheWire) {
  auto db = OpenServerDb();
  auto client = ConnectTo(*db);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 1).ok());

  ASSERT_TRUE(client->Begin(/*read_only=*/true).ok());
  EXPECT_FALSE(InsertItem(client.get(), 2).ok()) << "DML must be refused";
  EXPECT_FALSE(
      client->Execute("CREATE ATOM_TYPE refused (x: INTEGER)").ok());

  // Repeatable: another connection's commit stays invisible until COMMIT.
  auto writer = ConnectTo(*db);
  ASSERT_TRUE(writer->Execute("MODIFY item SET name = 'later'").ok());
  auto inside = client->Execute("SELECT ALL FROM item");
  ASSERT_TRUE(inside.ok());
  ASSERT_EQ(inside->molecules.size(), 1u);
  EXPECT_EQ(
      inside->molecules.molecules[0].groups[0].atoms[0].attrs[2].AsString(),
      "n1");

  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(InsertItem(client.get(), 2).ok()) << "writable again";
}

// A remote prepared query pins at each open, not at Prepare.
TEST(NetServerTest, PreparedQueryOverTheWirePinsAtEachOpen) {
  auto db = OpenServerDb();
  auto client = ConnectTo(*db);
  CreateItemType(client.get());
  ASSERT_TRUE(InsertItem(client.get(), 7).ok());

  auto stmt = client->Prepare("SELECT ALL FROM item WHERE num = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Bind(0, Value::Int(7)).ok());
  auto first = stmt->Query();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto writer = ConnectTo(*db);
  ASSERT_TRUE(writer->Execute("MODIFY item SET name = 'rewritten'").ok());

  const std::vector<std::string> names = DrainNames(&*first);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "n7");

  auto again = stmt->Query();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(DrainNames(&*again).at(0), "rewritten");
}

TEST(NetServerTest, StatsServeVersionStoreGauges) {
  auto db = OpenServerDb();
  auto client = ConnectTo(*db);
  CreateItemType(client.get());
  // Enough items that the open's first batch (and the assembly running
  // ahead of it) leaves molecules unassembled when the writer commits, so
  // the drain must resolve versions.
  for (int i = 1; i <= 64; ++i) ASSERT_TRUE(InsertItem(client.get(), i).ok());

  auto snap = client->OpenCursor("SELECT ALL FROM item", 1);
  ASSERT_TRUE(snap.ok());
  auto writer = ConnectTo(*db);
  ASSERT_TRUE(writer->Execute("MODIFY item SET name = 'churn'").ok());

  auto pinned = client->Stats();
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(Stat(*pinned, "prima_snapshots_active"), 1u);
  EXPECT_GT(Stat(*pinned, "prima_versions_retained"), 0u);

  ASSERT_EQ(DrainNames(&*snap).size(), 64u);
  ASSERT_TRUE(snap->Close().ok());
  // The pin may lag the close by a worker's beat; poll the gauge down.
  for (int i = 0; i < 1000; ++i) {
    auto s = client->Stats();
    ASSERT_TRUE(s.ok());
    if (Stat(*s, "prima_snapshots_active") == 0 &&
        Stat(*s, "prima_versions_retained") == 0) {
      EXPECT_GT(Stat(*s, "prima_versions_resolved"), 0u);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "version store never drained after the remote cursor closed";
}

}  // namespace
}  // namespace prima::net
