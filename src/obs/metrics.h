#ifndef PRIMA_OBS_METRICS_H_
#define PRIMA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/counter.h"

namespace prima::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket layout: HDR-style log-linear. 8 sub-buckets per power of two, so
/// any recorded value lands in a bucket whose width is at most 12.5% of its
/// lower bound — percentile error is bounded by the same ratio at any scale
/// (1us parses and multi-second commit storms share one layout). Values
/// 0..7 are exact.
inline constexpr int kHistogramSubBits = 3;
inline constexpr int kHistogramSubBuckets = 1 << kHistogramSubBits;  // 8
inline constexpr size_t kHistogramBuckets =
    (64 - kHistogramSubBits + 1) * kHistogramSubBuckets;  // 496

/// Point-in-time merged copy of a Histogram (plain data, safe to copy and
/// diff). Percentiles interpolate linearly inside the landing bucket.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Value at percentile p (0 < p <= 100); 0 when empty.
  uint64_t Percentile(double p) const;
  uint64_t p50() const { return Percentile(50.0); }
  uint64_t p95() const { return Percentile(95.0); }
  uint64_t p99() const { return Percentile(99.0); }
  uint64_t Mean() const { return count == 0 ? 0 : sum / count; }

  /// Merge another snapshot into this one (bench aggregation).
  void Merge(const HistogramSnapshot& other);
};

/// Lock-free fixed-bucket latency histogram (unit chosen by the caller;
/// kernel histograms record microseconds).
///
/// Record() touches exactly two relaxed atomics in a stripe selected by the
/// calling thread's id, so concurrent recorders on different cores do not
/// bounce a shared cache line; Snapshot() merges the stripes. Never blocks,
/// never allocates after construction — safe from any kernel thread,
/// including buffer-pool and WAL paths.
class Histogram {
 public:
  explicit Histogram(size_t stripes = 0);  // 0 = one per usable CPU, capped

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Stripe& s = stripe();
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket index for a value (log-linear, see kHistogramSubBits).
  static size_t BucketIndex(uint64_t v) {
    if (v < kHistogramSubBuckets) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kHistogramSubBits;
    const uint64_t offset = (v >> shift) & (kHistogramSubBuckets - 1);
    return static_cast<size_t>(msb - kHistogramSubBits + 1) *
               kHistogramSubBuckets +
           static_cast<size_t>(offset);
  }

  /// Inclusive lower bound of a bucket (inverse of BucketIndex).
  static uint64_t BucketLowerBound(size_t index) {
    const uint64_t group = index >> kHistogramSubBits;
    const uint64_t offset = index & (kHistogramSubBuckets - 1);
    if (group == 0) return offset;
    return (uint64_t{1} << (group - 1 + kHistogramSubBits)) |
           (offset << (group - 1));
  }
  /// Exclusive upper bound of a bucket.
  static uint64_t BucketUpperBound(size_t index) {
    const uint64_t group = index >> kHistogramSubBits;
    if (group == 0) return (index & (kHistogramSubBuckets - 1)) + 1;
    return BucketLowerBound(index) + (uint64_t{1} << (group - 1));
  }

 private:
  // One cache-line-aligned slice of the counters. `sum` rides in the same
  // allocation; count is derived from the buckets at snapshot time.
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };

  Stripe& stripe() const {
    // Hash of the thread id, computed once per thread: recorders spread
    // over the stripes without any registration step.
    static thread_local size_t tls_slot =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    return stripes_[tls_slot & (stripe_count_ - 1)];
  }

  size_t stripe_count_;  // power of two
  std::unique_ptr<Stripe[]> stripes_;
};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// One sample in a registry snapshot.
struct MetricSample {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Type type = Type::kCounter;
  uint64_t value = 0;               // counters and gauges
  HistogramSnapshot histogram;      // histograms only
};

/// Central name -> metric directory. The hot path never touches it:
/// counters stay in their layer's stats struct and are registered by
/// address, table by table (RegisterCounters over the struct's CounterDef
/// table, see obs/counter.h); gauges are pull-callbacks evaluated at
/// snapshot time, for values the code computes rather than counts; and
/// histograms are owned here but recorded into directly via the pointer
/// RegisterHistogram returns. The mutex guards registration and snapshot
/// iteration only. Snapshot() is the one read path: MetricsText() renders
/// it and the wire's kStats reply flattens it into (name, value) pairs.
///
/// Naming scheme: prima_<subsystem>_<what>[_<unit>], e.g.
/// `prima_buffer_hits`, `prima_statement_us`. Counters are cumulative since
/// Open; histograms carry their unit as a suffix.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register an existing counter by address — an obs::Counter, or
  /// anything else that reads as uint64_t. The counter must outlive the
  /// registry (kernel stats structs do: Prima's teardown order destroys the
  /// registry last).
  template <typename C>
  void RegisterCounter(std::string name, const C* counter,
                       std::string help = "") {
    Register(MetricSample::Type::kCounter, std::move(name), std::move(help),
             [counter] { return static_cast<uint64_t>(*counter); });
  }

  /// Register every counter of `stats` named in its layer's table.
  template <typename Stats, size_t N>
  void RegisterCounters(const Stats& stats,
                        const CounterDef<Stats> (&table)[N]) {
    for (const CounterDef<Stats>& def : table) {
      RegisterCounter(def.name, &(stats.*def.field), def.help);
    }
  }

  /// Register a pull-gauge; `fn` runs on every snapshot/render.
  void RegisterGauge(std::string name, std::function<uint64_t()> fn,
                     std::string help = "") {
    Register(MetricSample::Type::kGauge, std::move(name), std::move(help),
             std::move(fn));
  }

  /// Create (or fetch, if the name exists) a registry-owned histogram.
  /// The returned pointer is stable for the registry's lifetime.
  Histogram* RegisterHistogram(std::string name, std::string help = "");

  /// Merged point-in-time copy of every metric, in registration order.
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus-style text exposition: counters/gauges one line each,
  /// histograms as summaries (quantile lines + _sum + _count).
  std::string RenderText() const;

 private:
  struct Entry {
    MetricSample::Type type;
    std::string name;
    std::string help;
    std::function<uint64_t()> read;  // counters and gauges
    std::unique_ptr<Histogram> histogram;
  };

  void Register(MetricSample::Type type, std::string name, std::string help,
                std::function<uint64_t()> read);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace prima::obs

#endif  // PRIMA_OBS_METRICS_H_
