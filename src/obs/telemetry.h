#ifndef PRIMA_OBS_TELEMETRY_H_
#define PRIMA_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prima::obs {

/// Tracing/telemetry knobs (mirrored from PrimaOptions by Prima::Open;
/// defaults keep every knob off).
struct TelemetryOptions {
  /// Statements slower than this (microseconds) are captured — full span
  /// tree — into the slow-query ring. 0 disables capture. Non-zero arms
  /// always-on tracing: offenders are only identifiable after the fact, so
  /// every statement carries a trace while the knob is set.
  uint64_t slow_statement_us = 0;
  /// Trace every Nth statement (0 = never). Sampled traces feed the same
  /// span machinery EXPLAIN ANALYZE uses; with both knobs 0, statements pay
  /// one thread-local null check and a latency-histogram record only.
  uint64_t trace_sample_n = 0;
  /// Ring capacity of the slow-query log.
  size_t slow_log_capacity = 64;
};

/// The kernel's telemetry hub: one registry of every subsystem's counters,
/// the kernel latency histograms, the slow-query ring, and the sampling
/// decision. Owned by Prima (constructed first, destroyed last, so every
/// subsystem may hold pointers into it); reachable from sessions through
/// DataSystem::telemetry(), which is null for bare embedded test rigs —
/// every consumer must tolerate that.
class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {})
      : options_(options),
        slow_log_(options.slow_log_capacity),
        statement_us_(registry_.RegisterHistogram(
            "prima_statement_us", "statement latency, microseconds")),
        parse_us_(registry_.RegisterHistogram(
            "prima_parse_us", "MQL parse latency, microseconds")),
        plan_us_(registry_.RegisterHistogram(
            "prima_plan_us", "access-path planning latency, microseconds")),
        commit_force_us_(registry_.RegisterHistogram(
            "prima_commit_force_us",
            "WAL commit-force wait, microseconds")),
        net_request_us_(registry_.RegisterHistogram(
            "prima_net_request_us",
            "server request handling latency, microseconds")),
        net_encode_us_(registry_.RegisterHistogram(
            "prima_net_encode_us",
            "server reply encode+write latency, microseconds")) {
    registry_.RegisterGauge(
        "prima_slow_statements",
        [this] { return slow_log_.captured(); },
        "statements captured by the slow-query log");
    registry_.RegisterCounter("prima_statements_traced", &traced_,
                              "statements that carried a span tree");
  }

  const TelemetryOptions& options() const { return options_; }
  MetricsRegistry& registry() { return registry_; }
  SlowQueryLog& slow_log() { return slow_log_; }

  Histogram* statement_us() { return statement_us_; }
  Histogram* parse_us() { return parse_us_; }
  Histogram* plan_us() { return plan_us_; }
  Histogram* commit_force_us() { return commit_force_us_; }
  Histogram* net_request_us() { return net_request_us_; }
  Histogram* net_encode_us() { return net_encode_us_; }

  /// Should the next statement carry a span tree? Slow-query capture forces
  /// yes (see TelemetryOptions); otherwise every trace_sample_n-th
  /// statement samples in. Thread-safe.
  bool ShouldTraceStatement() {
    if (options_.slow_statement_us > 0) return true;
    const uint64_t n = options_.trace_sample_n;
    if (n == 0) return false;
    return sample_clock_.fetch_add(1, std::memory_order_relaxed) % n == 0;
  }

  void CountTraced() { traced_++; }
  uint64_t traced() const { return traced_; }

  /// Record a finished statement's latency; captures into the slow log when
  /// the statement crossed the threshold and carried a trace.
  void RecordStatement(const std::string& text, StatementTrace* trace,
                       uint64_t total_us) {
    statement_us_->Record(total_us);
    if (trace != nullptr && options_.slow_statement_us > 0 &&
        total_us >= options_.slow_statement_us) {
      slow_log_.Record(text, total_us,
                       trace->Render("slow statement: " + text));
    }
  }

 private:
  TelemetryOptions options_;
  MetricsRegistry registry_;
  SlowQueryLog slow_log_;
  std::atomic<uint64_t> sample_clock_{0};
  Counter traced_;

  Histogram* statement_us_;
  Histogram* parse_us_;
  Histogram* plan_us_;
  Histogram* commit_force_us_;
  Histogram* net_request_us_;
  Histogram* net_encode_us_;
};

}  // namespace prima::obs

#endif  // PRIMA_OBS_TELEMETRY_H_
