#include "net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/coding.h"
#include "util/crc32.h"

namespace prima::net {

using util::Result;
using util::Slice;
using util::Status;

namespace {

constexpr size_t kFrameHeader = 5;  // len:u32 + kind:u8

Status WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE,
    // not kill the server process with SIGPIPE.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status ReadExact(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError("connection closed mid-frame");
    }
    data += r;
    n -= static_cast<size_t>(r);
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, MsgKind kind, Slice payload) {
  std::string frame;
  frame.reserve(kFrameHeader + payload.size() + 4);
  util::PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.push_back(static_cast<char>(kind));
  frame.append(payload.data(), payload.size());
  const uint32_t crc =
      util::Crc32(Slice(frame.data() + 4, 1 + payload.size()));
  util::PutFixed32(&frame, crc);
  return WriteAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, uint32_t max_frame, Frame* out) {
  char header[kFrameHeader];
  PRIMA_RETURN_IF_ERROR(ReadExact(fd, header, kFrameHeader));
  const uint32_t len = util::DecodeFixed32(header);
  if (len > max_frame) {
    // Reject on the header alone — a hostile length must never reach the
    // allocator. The caller closes the connection: the stream position is
    // lost for good once we refuse to consume the claimed bytes.
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(max_frame) + "-byte limit");
  }
  std::string body(static_cast<size_t>(len) + 4, '\0');
  PRIMA_RETURN_IF_ERROR(ReadExact(fd, body.data(), body.size()));
  uint32_t crc = util::Crc32(Slice(header + 4, 1));
  crc = util::Crc32Extend(crc, Slice(body.data(), len));
  if (crc != util::DecodeFixed32(body.data() + len)) {
    return Status::Corruption("frame checksum mismatch");
  }
  out->kind = static_cast<MsgKind>(header[4]);
  out->payload.assign(body.data(), len);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

void EncodeStatus(const Status& st, std::string* out) {
  out->push_back(static_cast<char>(st.code()));
  util::PutLengthPrefixed(out, st.message());
}

Status DecodeStatus(Slice* in) {
  if (in->empty()) return Status::Corruption("status truncated");
  const uint8_t code = static_cast<uint8_t>((*in)[0]);
  in->RemovePrefix(1);
  Slice msg_slice;
  if (!util::GetLengthPrefixed(in, &msg_slice)) {
    return Status::Corruption("status message truncated");
  }
  std::string m(msg_slice.data(), msg_slice.size());
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::Ok();
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(m));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(m));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(m));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(m));
    case Status::Code::kNoSpace:
      return Status::NoSpace(std::move(m));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(m));
    case Status::Code::kConstraint:
      return Status::Constraint(std::move(m));
    case Status::Code::kConflict:
      return Status::Conflict(std::move(m));
    case Status::Code::kParseError:
      return Status::ParseError(std::move(m));
    case Status::Code::kIoError:
      return Status::IoError(std::move(m));
    case Status::Code::kAborted:
      return Status::Aborted(std::move(m));
  }
  // A code this client does not know must never read as success.
  return Status::IoError("unknown remote status code " + std::to_string(code) +
                         ": " + m);
}

// ---------------------------------------------------------------------------
// Atoms / molecules / results
// ---------------------------------------------------------------------------

void EncodeWireAtom(const access::Atom& atom, std::string* out) {
  // Prefix the arity so the peer decodes without the catalog; the body is
  // the kernel's own self-describing atom encoding.
  util::PutVarint64(out, atom.attrs.size());
  atom.EncodeInto(out);
}

Result<access::Atom> DecodeWireAtom(Slice* in) {
  uint64_t arity;
  if (!util::GetVarint64(in, &arity)) {
    return Status::Corruption("atom arity truncated");
  }
  if (arity > 4096) return Status::Corruption("implausible atom arity");
  return access::Atom::Decode(in, static_cast<size_t>(arity));
}

void EncodeMolecule(const mql::Molecule& m, std::string* out) {
  util::PutVarint64(out, m.groups.size());
  for (const mql::MoleculeGroup& g : m.groups) {
    util::PutLengthPrefixed(out, g.component);
    util::PutVarint64(out, g.type);
    util::PutVarint64(out, g.atoms.size());
    for (const access::Atom& a : g.atoms) EncodeWireAtom(a, out);
  }
  util::PutVarint64(out, m.levels.size());
  for (const auto& level : m.levels) {
    util::PutVarint64(out, level.size());
    for (const access::Tid& t : level) util::PutFixed64(out, t.Pack());
  }
}

Result<mql::Molecule> DecodeMolecule(Slice* in) {
  mql::Molecule m;
  uint64_t groups;
  if (!util::GetVarint64(in, &groups)) {
    return Status::Corruption("molecule group count truncated");
  }
  for (uint64_t i = 0; i < groups; ++i) {
    mql::MoleculeGroup g;
    Slice name;
    uint64_t type, atoms;
    if (!util::GetLengthPrefixed(in, &name) ||
        !util::GetVarint64(in, &type) || !util::GetVarint64(in, &atoms)) {
      return Status::Corruption("molecule group header truncated");
    }
    g.component.assign(name.data(), name.size());
    g.type = static_cast<access::AtomTypeId>(type);
    for (uint64_t j = 0; j < atoms; ++j) {
      PRIMA_ASSIGN_OR_RETURN(access::Atom atom, DecodeWireAtom(in));
      g.atoms.push_back(std::move(atom));
    }
    m.groups.push_back(std::move(g));
  }
  uint64_t levels;
  if (!util::GetVarint64(in, &levels)) {
    return Status::Corruption("molecule level count truncated");
  }
  for (uint64_t i = 0; i < levels; ++i) {
    uint64_t n;
    if (!util::GetVarint64(in, &n)) {
      return Status::Corruption("molecule level truncated");
    }
    std::vector<access::Tid> level;
    for (uint64_t j = 0; j < n; ++j) {
      uint64_t packed;
      if (!util::GetFixed64(in, &packed)) {
        return Status::Corruption("molecule level tid truncated");
      }
      level.push_back(access::Tid::Unpack(packed));
    }
    m.levels.push_back(std::move(level));
  }
  return m;
}

void EncodeMoleculeSet(const mql::MoleculeSet& set, std::string* out) {
  util::PutVarint64(out, set.molecules.size());
  for (const mql::Molecule& m : set.molecules) EncodeMolecule(m, out);
}

Result<mql::MoleculeSet> DecodeMoleculeSet(Slice* in) {
  mql::MoleculeSet set;
  uint64_t n;
  if (!util::GetVarint64(in, &n)) {
    return Status::Corruption("molecule set count truncated");
  }
  for (uint64_t i = 0; i < n; ++i) {
    PRIMA_ASSIGN_OR_RETURN(mql::Molecule m, DecodeMolecule(in));
    set.molecules.push_back(std::move(m));
  }
  return set;
}

void EncodeExecResult(const mql::ExecResult& r, std::string* out) {
  out->push_back(static_cast<char>(r.kind));
  switch (r.kind) {
    case mql::ExecResult::Kind::kMolecules:
      EncodeMoleculeSet(r.molecules, out);
      break;
    case mql::ExecResult::Kind::kTid:
      util::PutFixed64(out, r.tid.Pack());
      break;
    case mql::ExecResult::Kind::kCount:
      util::PutVarint64(out, r.count);
      break;
    case mql::ExecResult::Kind::kText:
      util::PutLengthPrefixed(out, r.text);
      break;
    case mql::ExecResult::Kind::kNone:
      break;
  }
}

Result<mql::ExecResult> DecodeExecResult(Slice* in) {
  if (in->empty()) return Status::Corruption("result kind truncated");
  const uint8_t kind = static_cast<uint8_t>((*in)[0]);
  in->RemovePrefix(1);
  mql::ExecResult r;
  switch (static_cast<mql::ExecResult::Kind>(kind)) {
    case mql::ExecResult::Kind::kMolecules: {
      r.kind = mql::ExecResult::Kind::kMolecules;
      PRIMA_ASSIGN_OR_RETURN(r.molecules, DecodeMoleculeSet(in));
      break;
    }
    case mql::ExecResult::Kind::kTid: {
      r.kind = mql::ExecResult::Kind::kTid;
      uint64_t packed;
      if (!util::GetFixed64(in, &packed)) {
        return Status::Corruption("result tid truncated");
      }
      r.tid = access::Tid::Unpack(packed);
      break;
    }
    case mql::ExecResult::Kind::kCount: {
      r.kind = mql::ExecResult::Kind::kCount;
      if (!util::GetVarint64(in, &r.count)) {
        return Status::Corruption("result count truncated");
      }
      break;
    }
    case mql::ExecResult::Kind::kText: {
      r.kind = mql::ExecResult::Kind::kText;
      Slice text;
      if (!util::GetLengthPrefixed(in, &text)) {
        return Status::Corruption("result text truncated");
      }
      r.text.assign(text.data(), text.size());
      break;
    }
    case mql::ExecResult::Kind::kNone:
      r.kind = mql::ExecResult::Kind::kNone;
      break;
    default:
      return Status::Corruption("unknown result kind");
  }
  return r;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

namespace {
// Caps for decoding an untrusted reply: a plausible registry has ~100
// metrics with short names.
constexpr uint64_t kMaxStatsPairs = 1024;
constexpr size_t kMaxStatsName = 256;
}  // namespace

void EncodeStats(const std::vector<obs::MetricSample>& samples,
                 std::string* out) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (const obs::MetricSample& s : samples) {
    if (s.type != obs::MetricSample::Type::kHistogram) {
      pairs.emplace_back(s.name, s.value);
      continue;
    }
    pairs.emplace_back(s.name + "_count", s.histogram.count);
    pairs.emplace_back(s.name + "_p50", s.histogram.p50());
    pairs.emplace_back(s.name + "_p95", s.histogram.p95());
    pairs.emplace_back(s.name + "_p99", s.histogram.p99());
  }
  util::PutVarint64(out, pairs.size());
  for (const auto& [name, value] : pairs) {
    util::PutLengthPrefixed(out, name);
    util::PutVarint64(out, value);
  }
}

Result<StatsMap> DecodeStats(Slice* in) {
  uint64_t count;
  if (!util::GetVarint64(in, &count)) {
    return Status::Corruption("stats pair count truncated");
  }
  if (count > kMaxStatsPairs) {
    return Status::Corruption("implausible stats pair count");
  }
  StatsMap stats;
  for (uint64_t i = 0; i < count; ++i) {
    Slice name;
    uint64_t value;
    if (!util::GetLengthPrefixed(in, &name) ||
        !util::GetVarint64(in, &value)) {
      return Status::Corruption("stats pair truncated");
    }
    if (name.size() > kMaxStatsName) {
      return Status::Corruption("implausible stats name length");
    }
    stats[std::string(name.data(), name.size())] = value;
  }
  return stats;
}

}  // namespace prima::net
