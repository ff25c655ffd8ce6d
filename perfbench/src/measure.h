#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// The benchmark's own measuring: exact percentiles over raw samples,
// per-op normalisation of counter deltas, the host gauge that scales times
// to a nominal host speed, and span self time. Exercised by
// tests/selftest.cc.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- percentiles -------------------------------------------------------------

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// the smallest rank r with r / n >= p / 100. Computed in integers so that
/// p99 of 10,000 samples is rank 9,900 exactly.
size_t NearestRank(size_t n, double p);

/// Exact percentile of an ascending-sorted sample vector (nearest rank).
/// Returns 0 for an empty vector.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p);

/// Samples strictly greater than the p-th percentile value.
size_t CountBeyond(const std::vector<uint64_t>& sorted, double p);

/// The run's tail is resolved only if at least `min_beyond` samples lie
/// beyond p99.
inline bool TailResolved(const std::vector<uint64_t>& sorted,
                         size_t min_beyond = 100) {
  return CountBeyond(sorted, 99.0) >= min_beyond;
}

// --- counter deltas -----------------------------------------------------------

/// (after - before) / ops for a monotonic counter. A counter that went
/// backwards (reset under the benchmark) or an empty window reads 0, and
/// `ok` (when given) is cleared for the backwards case.
double PerOp(uint64_t before, uint64_t after, uint64_t ops,
             bool* ok = nullptr);

/// numerator / denominator, 0 when the denominator is 0.
double Ratio(double numerator, double denominator);

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

// --- host speed -----------------------------------------------------------------

/// A fixed reference workload, for telling how fast the host runs right now:
/// chunks of ordered-map updates, string allocations and 4 KiB copies over
/// about 3 MiB of memory (the kinds of work the kernel does), with nothing
/// of PRIMA in it. Each chunk starts with the core's own caches cleared of
/// that memory, as after any other work, so that a chunk's time does not
/// depend on what ran just before it.
class GaugeWork {
 public:
  GaugeWork();
  /// Runs one chunk; returns the CPU time it took in ns (not counting the
  /// clearing of the caches).
  uint64_t RunChunk();

 private:
  std::map<uint64_t, uint64_t> tree_;
  std::vector<std::string> slots_;
  std::vector<char> from_, to_;
  std::vector<char> evict_;
  uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  uint64_t sink_ = 0;
};

/// Samples GaugeWork's speed at chosen moments of a run, so that times taken
/// at different moments on a shared host can be compared. The work runs in a
/// child process forked before any database exists, so nothing the kernel
/// allocates or leaves behind in the benchmark's own process changes it;
/// Sample() hands the CPU to the child for one chunk and waits for it. A
/// rate is in chunks per second of the child's CPU time.
class HostGauge {
 public:
  HostGauge() = default;
  /// Stops the child and waits for it to end.
  ~HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Forks the child; call before the process starts any thread.
  bool Start();
  /// One chunk in the child; false (and nothing recorded) if it failed.
  bool Sample();
  /// Median rate of the samples from number `first` on; 0 if there are none.
  double RateSince(size_t first) const;
  size_t samples() const { return rates_.size(); }

 private:
  int pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
  std::vector<double> rates_;
};

/// Chunks per second of HostGauge at which time metrics read unscaled: about
/// its rate during the runs on the 2-vCPU host the benchmark was tuned on.
constexpr double kNominalHostRate = 400.0;

/// Factor that turns a time measured while the gauge read `rate` into the
/// time at kNominalHostRate (a rate is divided by it): rate / nominal.
/// 1 when the rate is unknown.
double HostFactor(double rate);

// --- spans ---------------------------------------------------------------------

/// What a span times. The layer of a kind is the prefix of its name.
enum class SpanKind : uint8_t {
  kOp = 0,          ///< one benchmark op (parent of everything below)
  kCoreBegin,       ///< Session::Execute("BEGIN WORK")
  kCoreCommit,      ///< Session::Execute("COMMIT WORK")
  kCoreAbort,       ///< Session::Execute("ABORT WORK")
  kCoreParallel,    ///< Prima::QueryParallel
  kMqlExecute,      ///< Session::Execute of an MQL statement
  kMqlPrepared,     ///< PreparedStatement::Execute
  kMqlBind,         ///< PreparedStatement::Bind
  kMqlCursorOpen,   ///< PreparedStatement::Query
  kMqlCursorNext,   ///< MoleculeCursor::Next
  kMqlCursorClose,  ///< MoleculeCursor destruction (drains look-ahead)
  kNetCall,         ///< any net::Client / RemoteStatement / RemoteCursor call
  kDeviceRead,      ///< BlockDevice::Read / ReadChained (client thread)
  kDeviceWrite,     ///< BlockDevice::Write / WriteChained (client thread)
  kDeviceSync,      ///< BlockDevice::Sync (client thread)
  kCount
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint32_t parent = 0;  ///< index + 1 of the parent span; 0 = root
  SpanKind kind = SpanKind::kOp;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may nest further, overlap one
/// another, or stick out of the parent's interval; each is clipped to the
/// parent and overlaps are counted once.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// In-memory span recorder for the client thread. Spans are appended in
/// start order; the thread's innermost open span is the parent of the next.
/// Recording is off until Enable(true). Only the thread that called
/// AttachToThisThread() records; calls from any other thread are ignored
/// (the device wrapper accounts for those separately).
class Tracer {
 public:
  void AttachToThisThread();
  void Enable(bool on) { enabled_ = on; }

  /// True on the attached thread (enabled or not).
  bool OnClientThread() const;

  /// Open a span under the innermost open span; returns its handle (0 when
  /// not recording).
  uint32_t Begin(SpanKind kind);
  void End(uint32_t handle);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind)
        : tracer_(tracer), handle_(tracer->Begin(kind)) {}
    ~Scope() { tracer_->End(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t handle_;
  };

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  ///< stack of open span handles
};

/// Sum of self time per span kind over `spans`.
struct KindTotals {
  uint64_t self_ns[static_cast<size_t>(SpanKind::kCount)] = {};
};
KindTotals TotalsByKind(const std::vector<Span>& spans);

/// Write spans as CSV (index,parent,kind,start_ns,end_ns,self_ns).
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
