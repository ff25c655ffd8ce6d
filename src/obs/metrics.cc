#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/thread_pool.h"

namespace prima::obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p > 100.0) p = 100.0;
  // Rank of the target observation, 1-based; p50 of 2 observations is the
  // 1st, p100 the last.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate inside the bucket: the k-th of n observations in
      // [lo, hi) reads as lo + (k/n) * width.
      const uint64_t lo = Histogram::BucketLowerBound(i);
      const uint64_t hi = Histogram::BucketUpperBound(i);
      const uint64_t k = rank - seen;
      return lo + (hi - lo) * k / in_bucket;
    }
    seen += in_bucket;
  }
  return Histogram::BucketUpperBound(buckets.size() - 1);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

size_t DefaultStripes() {
  // One stripe per CPU this process may run on: recorders confined to one
  // CPU cannot bounce a stripe's cache line between cores.
  return std::min<size_t>(util::UsableCpus(), 16);
}

}  // namespace

Histogram::Histogram(size_t stripes) {
  if (stripes == 0) stripes = DefaultStripes();
  // Round up to a power of two so stripe selection is a mask.
  size_t pow2 = 1;
  while (pow2 < stripes) pow2 <<= 1;
  stripe_count_ = pow2;
  stripes_ = std::make_unique<Stripe[]>(stripe_count_);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t s = 0; s < stripe_count_; ++s) {
    const Stripe& stripe = stripes_[s];
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      const uint64_t n = stripe.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += stripe.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

void MetricsRegistry::Register(MetricSample::Type type, std::string name,
                               std::string help,
                               std::function<uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.type = type;
  e.name = std::move(name);
  e.help = std::move(help);
  e.read = std::move(read);
  entries_.push_back(std::move(e));
}

Histogram* MetricsRegistry::RegisterHistogram(std::string name,
                                              std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.type == MetricSample::Type::kHistogram && e.name == name) {
      return e.histogram.get();
    }
  }
  Entry e;
  e.type = MetricSample::Type::kHistogram;
  e.name = std::move(name);
  e.help = std::move(help);
  e.histogram = std::make_unique<Histogram>();
  entries_.push_back(std::move(e));
  return entries_.back().histogram.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSample s;
    s.name = e.name;
    s.help = e.help;
    s.type = e.type;
    if (e.type == MetricSample::Type::kHistogram) {
      s.histogram = e.histogram->Snapshot();
    } else {
      s.value = e.read();
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  const std::vector<MetricSample> samples = Snapshot();
  std::ostringstream out;
  for (const MetricSample& s : samples) {
    if (!s.help.empty()) out << "# HELP " << s.name << " " << s.help << "\n";
    switch (s.type) {
      case MetricSample::Type::kCounter:
        out << "# TYPE " << s.name << " counter\n";
        out << s.name << " " << s.value << "\n";
        break;
      case MetricSample::Type::kGauge:
        out << "# TYPE " << s.name << " gauge\n";
        out << s.name << " " << s.value << "\n";
        break;
      case MetricSample::Type::kHistogram:
        out << "# TYPE " << s.name << " summary\n";
        out << s.name << "{quantile=\"0.5\"} " << s.histogram.p50() << "\n";
        out << s.name << "{quantile=\"0.95\"} " << s.histogram.p95() << "\n";
        out << s.name << "{quantile=\"0.99\"} " << s.histogram.p99() << "\n";
        out << s.name << "_sum " << s.histogram.sum << "\n";
        out << s.name << "_count " << s.histogram.count << "\n";
        break;
    }
  }
  return out.str();
}

}  // namespace prima::obs
