#ifndef PRIMA_OBS_TRACE_H_
#define PRIMA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace prima::obs {

/// Monotonic nanosecond clock used by every trace/histogram site.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One phase of a traced statement. Phases accumulate: a streaming cursor
/// enters "assembly" once per molecule, and the phase carries the total
/// time plus the episode count rather than one span per entry (a span tree
/// per molecule would cost more than the work it measures).
struct TracePhase {
  std::string name;
  uint64_t ns = 0;
  uint64_t count = 0;  ///< episodes folded into `ns`
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<TracePhase> children;

  void AddCounter(const std::string& key, uint64_t delta);
  const TracePhase* Child(const std::string& child_name) const;
};

/// The span tree of one statement execution.
///
/// Threading contract: the phase tree (GetPhase/AddPhaseNs/counters) belongs
/// to the statement's owner thread. The `kernel counter` atomics below are
/// the exception — they are written through CurrentTrace() by the layers
/// that work on the statement's behalf (the buffer pool, the WAL force
/// path, version resolution) and folded into the tree by Finish().
class StatementTrace {
 public:
  StatementTrace() : start_ns_(NowNs()) {}

  /// Top-level phase by name, created on first use (stable order of first
  /// use — the render order).
  TracePhase* GetPhase(const std::string& name);
  /// Nested phase, e.g. ("execute", "assembly").
  TracePhase* GetPhase(const std::string& name, const std::string& child);

  void AddPhaseNs(const std::string& name, uint64_t ns) {
    TracePhase* p = GetPhase(name);
    p->ns += ns;
    p->count++;
  }
  void AddPhaseNs(const std::string& name, const std::string& child,
                  uint64_t ns) {
    TracePhase* p = GetPhase(name, child);
    p->ns += ns;
    p->count++;
  }

  /// Close the trace: stamp the total and fold the kernel counters into
  /// their phases ("buffer", "commit", execute/version_chain).
  /// Idempotent; call once from the owner thread before Render().
  void Finish();
  bool finished() const { return finished_; }

  uint64_t total_ns() const { return total_ns_; }
  uint64_t ElapsedNs() const { return NowNs() - start_ns_; }

  /// Render the span tree as an indented text report.
  std::string Render(const std::string& header) const;

  /// Flat phase names ("parse", "execute", "execute/assembly", ...) — the
  /// golden-test surface for which phases a statement ran.
  std::vector<std::string> PhaseNames() const;

  const std::vector<TracePhase>& phases() const { return phases_; }

  // Kernel counters: relaxed atomics, written from any thread via
  // CurrentTrace() (see class comment).
  std::atomic<uint64_t> buffer_hits{0};
  std::atomic<uint64_t> buffer_misses{0};
  std::atomic<uint64_t> buffer_miss_ns{0};     ///< device-read time on misses
  std::atomic<uint64_t> commit_force_waits{0};
  std::atomic<uint64_t> commit_force_ns{0};
  // Snapshot-read version resolution (MVCC chain walks); folded into an
  // execute/version_chain phase so chain-walk time never silently inflates
  // bare "execute".
  std::atomic<uint64_t> version_chain_walks{0};
  std::atomic<uint64_t> version_chain_ns{0};
  std::atomic<uint64_t> versions_resolved{0};  ///< reads served off-chain

 private:
  uint64_t start_ns_;
  uint64_t total_ns_ = 0;
  bool finished_ = false;
  std::vector<TracePhase> phases_;
};

/// The statement trace active on this thread, or nullptr. Deep layers
/// (buffer pool, WAL) attribute their kernel counters through this instead
/// of threading a parameter down every call chain; the lookup is one
/// thread-local load, so untraced statements pay a null check and nothing
/// else.
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

/// RAII phase timer: adds the scope's elapsed time to a (nested) phase of
/// the owner thread's trace. No-op when `trace` is null.
class PhaseTimer {
 public:
  PhaseTimer(StatementTrace* trace, const char* phase,
             const char* child = nullptr)
      : trace_(trace), phase_(phase), child_(child),
        start_ns_(trace ? NowNs() : 0) {}
  ~PhaseTimer() {
    if (trace_ == nullptr) return;
    const uint64_t ns = NowNs() - start_ns_;
    if (child_ != nullptr) {
      trace_->AddPhaseNs(phase_, child_, ns);
    } else {
      trace_->AddPhaseNs(phase_, ns);
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  StatementTrace* trace_;
  const char* phase_;
  const char* child_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// One captured offender: the statement, its total latency, and the full
/// rendered span tree at capture time.
struct SlowStatement {
  uint64_t sequence = 0;  ///< monotonically increasing capture id
  std::string text;
  uint64_t total_us = 0;
  std::string trace;  ///< rendered span tree
};

/// Fixed-capacity ring of the slowest-path evidence: statements whose total
/// latency crossed `PrimaOptions::slow_statement_us` are recorded with
/// their span trees; when full, the oldest capture is evicted. Thread-safe
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
