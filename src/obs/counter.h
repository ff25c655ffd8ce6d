#ifndef PRIMA_OBS_COUNTER_H_
#define PRIMA_OBS_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace prima::obs {

/// A monotonic kernel counter. Every layer's stats struct is a plain
/// aggregate of these, declared once: bumping one is a single relaxed
/// atomic RMW (no lock, no registry lookup), reading one converts to
/// uint64_t, and copying one is a relaxed load — so copying a whole stats
/// struct *is* its snapshot, safe against concurrent writers.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(other.load()) {}
  Counter& operator=(const Counter& other) {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  void operator++() { v_.fetch_add(1, std::memory_order_relaxed); }
  void operator++(int) { v_.fetch_add(1, std::memory_order_relaxed); }
  void operator+=(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }

  uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// One row of a layer's counter table: which field, the metric name it is
/// published under (prima_<subsystem>_<what>[_<unit>]), and its help text.
/// Each stats struct has exactly one table next to it; the metrics
/// registry, Prima::MetricsText() and the wire's stats reply are all
/// derived from it, so adding a counter is one field plus one row.
template <typename Stats>
struct CounterDef {
  Counter Stats::*field;
  const char* name;
  const char* help;
};

}  // namespace prima::obs

#endif  // PRIMA_OBS_COUNTER_H_
