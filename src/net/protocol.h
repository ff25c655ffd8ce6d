#ifndef PRIMA_NET_PROTOCOL_H_
#define PRIMA_NET_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mql/data_system.h"
#include "mql/molecule.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::net {

/// PRIMA wire protocol: a length-prefixed, CRC-framed request/response
/// stream mapping 1:1 onto the core::Session API. One frame on the wire is
///
///   [len : u32] [kind : u8] [payload : len bytes] [crc : u32]
///
/// little-endian, with crc = CRC-32 over kind + payload (the same polynomial
/// as the page and WAL framing), so a torn or bit-flipped frame is rejected
/// before any payload decoding runs. Requests and replies alternate in
/// lockstep per connection; every connection starts with a versioned
/// handshake (kHello -> kHelloOk) and owns one server-side session, so
/// transaction and cursor state live on the server and an abort invalidates
/// remote cursors exactly as local ones.
///
/// Payloads reuse the kernel's wire-safe encodings: access::Value and
/// access::Atom serialize self-describing (molecule frames prefix each atom
/// with its attribute arity, so a client decodes result sets without the
/// catalog in hand).

inline constexpr uint32_t kHandshakeMagic = 0x50524D4Eu;  ///< "PRMN"
/// Version 4: one request per statement, and one way to read. Placeholder
/// values travel inside kExecutePrepared and the prepared kOpenCursor, and
/// kCursorOpened carries the cursor's first batch. Every remote cursor
/// reads the committed view pinned server-side when it opens, as a session
/// cursor does, so there is no isolation to choose: version 3's
/// kSetIsolation message and kOpenCursor isolation byte are gone. A peer
/// speaking any other version is refused at the handshake instead of
/// misread.
///
/// Version 5: BEGIN WORK costs no request of its own. The client holds a
/// BEGIN back and sends it inside the next request as one kBegun frame; the
/// server runs the BEGIN, and runs the wrapped request only if the BEGIN
/// succeeded, with one reply either way. Version 4's kBeginWork is gone.
inline constexpr uint32_t kProtocolVersion = 5;

/// Requests are statements, their bound values and control messages. A
/// frame claiming more is malformed (and must be rejected BEFORE allocating
/// the claimed length, or a hostile header is a memory bomb); the client
/// refuses to send one.
inline constexpr uint32_t kMaxRequestFrame = 1u << 20;
/// Replies carry molecule batches; the server additionally bounds each
/// batch by kFetchByteTarget well below this.
inline constexpr uint32_t kMaxReplyFrame = 64u << 20;
/// A batch (a fetch reply, or the first batch of kCursorOpened) stops
/// adding molecules once it crosses this many payload bytes, whatever batch
/// size the client asked for.
inline constexpr uint32_t kFetchByteTarget = 1u << 20;

/// Payload layouts. `text` is the whole rest of the payload; `string` is
/// varint length + bytes; `bindings` is varint n + n x (u8 present, Value
/// if present), one entry per placeholder in slot order; `batch` is u8 done
/// + varint n + n molecules. A cursor whose batch reports done is released
/// server-side by that reply, so closing it needs no request. kBegun wraps
/// exactly one request: u8 inner kind + the inner request's payload, never
/// a kHello or another kBegun; its reply is the inner request's reply, or
/// kError if the BEGIN failed.
enum class MsgKind : uint8_t {
  // Requests (client -> server).
  kHello = 1,           ///< u32 magic + u32 version
  kExecute = 2,         ///< text mql -> kResult
  kPrepare = 3,         ///< text mql -> kPrepared
  // 4 is retired (version 2's bind request); do not reuse it.
  kExecutePrepared = 5, ///< u32 stmt + bindings -> kResult
  kOpenCursor = 6,      ///< u8 form (1: u32 stmt + bindings | 2: string
                        ///< mql) + u32 batch size -> kCursorOpened
  kFetch = 7,           ///< u32 cursor, u32 max_n -> kMolecules
  kCloseCursor = 8,     ///< u32 cursor -> kOk
  kCloseStatement = 9,  ///< u32 stmt -> kOk
  // 10 is retired (version 4's BEGIN WORK request); do not reuse it.
  kCommitWork = 11,     ///< -> kOk
  kAbortWork = 12,      ///< -> kOk
  kStats = 13,          ///< -> kStatsReply
  kGoodbye = 14,        ///< -> kOk, then both sides close
  kMetrics = 15,        ///< -> kMetricsReply (Prometheus text exposition)
  // 16 is retired (version 3's isolation choice); do not reuse it.
  kBegun = 17,          ///< u8 inner kind + inner payload -> the inner reply

  // Replies (server -> client).
  kHelloOk = 64,        ///< u32 version + u64 connection id
  kOk = 65,             ///< empty
  kError = 66,          ///< u8 status code + string message
  kResult = 67,         ///< ExecResult
  kPrepared = 68,       ///< u32 stmt id + u32 param count + one string
                        ///< name per placeholder ("" for `?`)
  kCursorOpened = 69,   ///< u32 cursor id + the first batch
  kMolecules = 70,      ///< batch
  kStatsReply = 71,     ///< varint n + n x (string name, varint value)
  kMetricsReply = 72,   ///< text (Prima::MetricsText output)
};

/// One decoded frame.
struct Frame {
  MsgKind kind = MsgKind::kError;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Socket framing. fd is a connected stream socket; all calls block (a
// server with an idle timeout bounds them with poll). Errors:
//   IoError     - peer vanished / syscall failed (connection is dead)
//   Corruption  - CRC mismatch (stream integrity lost, close the connection)
//   InvalidArgument - frame length over `max_frame` (reject before reading)
// ---------------------------------------------------------------------------

util::Status WriteFrame(int fd, MsgKind kind, util::Slice payload);
util::Status ReadFrame(int fd, uint32_t max_frame, Frame* out);

// ---------------------------------------------------------------------------
// Payload encodings.
// ---------------------------------------------------------------------------

/// Status <-> wire: code byte + message. Unknown codes decode as IoError so
/// a newer server's error never reads as success.
void EncodeStatus(const util::Status& st, std::string* out);
util::Status DecodeStatus(util::Slice* in);

/// Atom with explicit arity (the catalog-free decode form).
void EncodeWireAtom(const access::Atom& atom, std::string* out);
util::Result<access::Atom> DecodeWireAtom(util::Slice* in);

void EncodeMolecule(const mql::Molecule& m, std::string* out);
util::Result<mql::Molecule> DecodeMolecule(util::Slice* in);

void EncodeMoleculeSet(const mql::MoleculeSet& set, std::string* out);
util::Result<mql::MoleculeSet> DecodeMoleculeSet(util::Slice* in);

void EncodeExecResult(const mql::ExecResult& r, std::string* out);
util::Result<mql::ExecResult> DecodeExecResult(util::Slice* in);

/// The kStats reply: the server database's metrics registry flattened to a
/// count-prefixed list of (name, value) pairs — every counter and gauge
/// under its metric name, and each histogram as <name>_count, _p50, _p95
/// and _p99. A reader looks the names it knows up and ignores the rest, so
/// adding a metric needs no protocol change; a name the server does not
/// publish is simply absent from the map.
using StatsMap = std::map<std::string, uint64_t>;

void EncodeStats(const std::vector<obs::MetricSample>& samples,
                 std::string* out);
util::Result<StatsMap> DecodeStats(util::Slice* in);

}  // namespace prima::net

#endif  // PRIMA_NET_PROTOCOL_H_
