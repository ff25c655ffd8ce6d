#include "measure.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // Percentiles in hundredths of a percent keep 99.0 from rounding up to
  // 99.00000000000001 on its way through floating point.
  const uint64_t basis = static_cast<uint64_t>(std::llround(p * 100.0));
  const uint64_t clamped = std::min<uint64_t>(std::max<uint64_t>(basis, 1),
                                              10000);
  const uint64_t rank = (clamped * n + 9999) / 10000;
  return static_cast<size_t>(std::max<uint64_t>(rank, 1));
}

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t CountBeyond(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const uint64_t value = Percentile(sorted, p);
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

double PerOp(uint64_t before, uint64_t after, uint64_t ops, bool* ok) {
  if (after < before) {
    if (ok != nullptr) *ok = false;
    return 0.0;
  }
  if (ops == 0) return 0.0;
  return static_cast<double>(after - before) / static_cast<double>(ops);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

constexpr size_t kGaugeSlots = 8192;
constexpr size_t kGaugeBuffer = 1u << 20;
constexpr size_t kGaugeCopy = 4096;
constexpr int kGaugeSteps = 2000;
constexpr size_t kGaugeEvict = 8u << 20;  // twice the L2 of the tuning host

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// The child: one chunk per request byte, its CPU time back as 8 bytes;
/// ends when the request pipe closes.
[[noreturn]] void GaugeChild(int request_fd, int reply_fd) {
  GaugeWork work;
  char request;
  while (::read(request_fd, &request, 1) == 1) {
    const uint64_t ns = work.RunChunk();
    if (::write(reply_fd, &ns, sizeof(ns)) != sizeof(ns)) break;
  }
  ::_exit(0);
}

}  // namespace

GaugeWork::GaugeWork()
    : slots_(kGaugeSlots),
      from_(kGaugeBuffer, 'p'),
      to_(kGaugeBuffer),
      evict_(kGaugeEvict) {}

uint64_t GaugeWork::RunChunk() {
  for (size_t i = 0; i < evict_.size(); i += 64) ++evict_[i];
  const uint64_t t0 = ThreadCpuNs();
  for (int i = 0; i < kGaugeSteps; ++i) {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t r = rng_ >> 16;
    const auto it = tree_.find(r % (2 * kGaugeSlots));
    if (it == tree_.end()) tree_.emplace(r % (2 * kGaugeSlots), r);
    else tree_.erase(it);
    std::string& slot = slots_[r % kGaugeSlots];
    slot.assign(24 + (r >> 13) % 200, static_cast<char>('a' + i % 26));
    const size_t src = (r >> 21) % (kGaugeBuffer - kGaugeCopy);
    const size_t dst = (r >> 29) % (kGaugeBuffer - kGaugeCopy);
    std::memcpy(to_.data() + dst, from_.data() + src, kGaugeCopy);
    sink_ += static_cast<unsigned char>(to_[dst + i % kGaugeCopy]) +
             slots_[(r >> 7) % kGaugeSlots].size();
  }
  const uint64_t ns = ThreadCpuNs() - t0;
  sink_ += static_cast<unsigned char>(evict_[ns % evict_.size()]);
  return ns;
}

bool HostGauge::Start() {
  int request[2], reply[2];
  if (::pipe(request) != 0) return false;
  if (::pipe(reply) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(request[1]);
    ::close(reply[0]);
    GaugeChild(request[0], reply[1]);
  }
  ::close(request[0]);
  ::close(reply[1]);
  if (pid < 0) {
    ::close(request[1]);
    ::close(reply[0]);
    return false;
  }
  pid_ = pid;
  request_fd_ = request[1];
  reply_fd_ = reply[0];
  return true;
}

bool HostGauge::Sample() {
  if (pid_ < 0) return false;
  const char request = 1;
  uint64_t ns = 0;
  if (::write(request_fd_, &request, 1) != 1 ||
      ::read(reply_fd_, &ns, sizeof(ns)) != sizeof(ns) || ns == 0) {
    return false;
  }
  rates_.push_back(1e9 / static_cast<double>(ns));
  return true;
}

double HostGauge::RateSince(size_t first) const {
  if (first >= rates_.size()) return 0;
  return Median(std::vector<double>(rates_.begin() + first, rates_.end()));
}

HostGauge::~HostGauge() {
  if (pid_ < 0) return;
  ::close(request_fd_);  // the child reads end-of-file and exits
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostFactor(double rate) {
  return rate > 0 ? rate / kNominalHostRate : 1.0;
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:            return "op";
    case SpanKind::kCoreBegin:     return "core.begin";
    case SpanKind::kCoreCommit:    return "core.commit";
    case SpanKind::kCoreAbort:     return "core.abort";
    case SpanKind::kCoreParallel:  return "core.query_parallel";
    case SpanKind::kMqlExecute:    return "mql.execute";
    case SpanKind::kMqlPrepared:   return "mql.prepared_execute";
    case SpanKind::kMqlBind:       return "mql.bind";
    case SpanKind::kMqlCursorOpen: return "mql.cursor_open";
    case SpanKind::kMqlCursorNext: return "mql.cursor_next";
    case SpanKind::kMqlCursorClose: return "mql.cursor_close";
    case SpanKind::kNetCall:       return "net.call";
    case SpanKind::kDeviceRead:    return "storage.device_read";
    case SpanKind::kDeviceWrite:   return "storage.device_write";
    case SpanKind::kDeviceSync:    return "storage.device_sync";
    case SpanKind::kCount:         break;
  }
  return "?";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= n && parent - 1 != i) {
      children[parent - 1].push_back(i);
    }
  }
  std::vector<uint64_t> self(n, 0);
  std::vector<std::pair<uint64_t, uint64_t>> cover;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(spans[i].end_ns, lo);
    cover.clear();
    for (size_t c : children[i]) {
      const uint64_t s = std::max(spans[c].start_ns, lo);
      const uint64_t e = std::min(spans[c].end_ns, hi);
      if (e > s) cover.emplace_back(s, e);
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [s, e] : cover) {
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

namespace {
thread_local const Tracer* t_attached = nullptr;
}  // namespace

void Tracer::AttachToThisThread() { t_attached = this; }

bool Tracer::OnClientThread() const { return t_attached == this; }

uint32_t Tracer::Begin(SpanKind kind) {
  // The thread check comes first: only the client thread reads enabled_.
  if (t_attached != this || !enabled_) return 0;
  Span span;
  span.parent = open_.empty() ? 0 : open_.back();
  span.kind = kind;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const uint32_t handle = static_cast<uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::End(uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = NowNs();
  // Spans close in LIFO order on the one thread that records them.
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

KindTotals TotalsByKind(const std::vector<Span>& spans) {
  KindTotals totals;
  const std::vector<uint64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    totals.self_ns[static_cast<size_t>(spans[i].kind)] += self[i];
  }
  return totals;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::fprintf(f, "index,parent,kind,start_ns,end_ns,self_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%zu,%u,%s,%llu,%llu,%llu\n", i + 1, spans[i].parent,
                 SpanKindName(spans[i].kind),
                 static_cast<unsigned long long>(spans[i].start_ns),
                 static_cast<unsigned long long>(spans[i].end_ns),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
