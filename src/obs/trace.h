#ifndef PRIMA_OBS_TRACE_H_
#define PRIMA_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/counter.h"

namespace prima::obs {

/// Monotonic nanosecond clock used by every trace/histogram site.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The phases of one statement, top to bottom through the layers of
/// Fig. 3.1: the data system's parse, plan and execute (and execute's
/// cursor steps), then the buffer pool and the WAL's commit force. The
/// order is the render order.
enum class Phase : uint8_t {
  kParse,
  kPlan,
  kExecute,
  kRoots,
  kAssembly,
  kProject,
  kVersionChain,
  kBuffer,
  kCommit,
};

/// One row of the phase table: the phase's name, the phase it nests
/// under, and the labels of its tallies (nullptr = unused slot).
struct PhaseDef {
  const char* name;
  std::optional<Phase> parent;
  std::array<const char*, 2> tallies;
  /// The tallies split or bound the phase's episodes (buffer fixes into
  /// hits and misses), so they print even at zero; otherwise only the
  /// non-zero ones print.
  bool show_zero_tallies;
};

/// Indexed by Phase. A child row follows its parent's.
inline constexpr PhaseDef kPhases[] = {
    {"parse", {}, {}, false},
    {"plan", {}, {"cache_hit", "cache_miss"}, false},
    {"execute", {}, {}, false},
    {"roots", Phase::kExecute, {"roots"}, false},
    {"assembly", Phase::kExecute, {"molecules"}, false},
    {"project", Phase::kExecute, {}, false},
    {"version_chain", Phase::kExecute, {"resolved"}, true},
    {"buffer", {}, {"hits", "misses"}, true},
    {"commit", {}, {"force_waits"}, true},
};
inline constexpr size_t kPhaseCount = std::size(kPhases);
static_assert(kPhaseCount == static_cast<size_t>(Phase::kCommit) + 1,
              "one kPhases row per Phase");

/// The phase table of one statement execution. Phases accumulate: a
/// streaming cursor enters "assembly" once per molecule, and the phase
/// carries the total time plus the episode count rather than one span per
/// entry.
///
/// Every layer writes through CurrentTrace() — the owner thread's parse
/// and cursor steps as well as the buffer pool, the WAL force path and
/// version resolution — and every slot is a relaxed atomic, so any thread
/// may write while the statement runs. Render after Finish(), on the owner
/// thread.
class StatementTrace {
 public:
  StatementTrace() : start_ns_(NowNs()) {}

  /// One episode of `phase` that took `ns`.
  void Add(Phase phase, uint64_t ns) {
    Slot& s = slots_[static_cast<size_t>(phase)];
    s.ns += ns;
    s.count++;
  }
  /// Bump tally `which` (0 or 1, as labelled in kPhases) of `phase`.
  void Tally(Phase phase, size_t which) {
    slots_[static_cast<size_t>(phase)].tallies[which]++;
  }

  /// Stamp the total. Call once from the owner thread before Render().
  void Finish() { total_ns_ = NowNs() - start_ns_; }
  uint64_t total_ns() const { return total_ns_; }

  /// Render the phases as an indented text report, in table order. A phase
  /// prints when it ran, tallied something, or has a child that prints.
  std::string Render(const std::string& header) const;

  /// Paths of the phases Render() prints ("parse", "execute",
  /// "execute/assembly", ...), in the same order — the golden-test
  /// surface for which phases a statement ran.
  std::vector<std::string> PhaseNames() const;

 private:
  struct Slot {
    Counter ns;
    Counter count;  ///< episodes folded into `ns`
    Counter tallies[2];
  };

  /// Which phases Render() prints, indexed by Phase.
  std::array<bool, kPhaseCount> Shown() const;

  uint64_t start_ns_;
  uint64_t total_ns_ = 0;
  std::array<Slot, kPhaseCount> slots_;
};

/// The statement trace active on this thread, or nullptr. Every layer
/// reaches the trace through this one lookup instead of a parameter
/// threaded down its call chain; Session::RunInstrumented's TraceContext
/// scopes it to the statement, so nothing writes to a trace after its
/// statement ends. Untraced statements pay one thread-local load and a
/// null check.
StatementTrace* CurrentTrace();

/// RAII scope that installs a trace as the thread's current one (restoring
/// the previous on destruction, so nested scopes compose).
class TraceContext {
 public:
  explicit TraceContext(StatementTrace* trace);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  StatementTrace* prev_;
};

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// One captured offender: the statement, its total latency, and its
/// rendered phase table.
struct SlowStatement {
  uint64_t sequence = 0;  ///< monotonically increasing capture id
  std::string text;
  uint64_t total_us = 0;
  std::string trace;  ///< rendered phase table
};

/// Fixed-capacity ring of the slowest-path evidence: statements whose total
/// latency crossed `PrimaOptions::slow_statement_us` are recorded with
/// their phase tables; when full, the oldest capture is evicted. The
/// kernel's ring holds 64; a test may size its own. Thread-safe
/// (captures come from any session thread); capturing is off the statement
/// hot path — only offenders pay the mutex.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 64) : capacity_(capacity) {}

  void Record(std::string text, uint64_t total_us, std::string trace);

  /// Oldest-first copy of the ring.
  std::vector<SlowStatement> Snapshot() const;

  /// Total captures ever (>= Snapshot().size(); the difference is evictions).
  uint64_t captured() const { return captured_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  std::atomic<uint64_t> captured_{0};
  mutable std::mutex mu_;
  std::deque<SlowStatement> ring_;
};

}  // namespace prima::obs

#endif  // PRIMA_OBS_TRACE_H_
