#ifndef PRIMA_OBS_TELEMETRY_H_
#define PRIMA_OBS_TELEMETRY_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace prima::obs {

/// The kernel's telemetry hub: one registry of every subsystem's counters,
/// the kernel latency histograms, the slow-query ring, and the tracing
/// decision. Owned by Prima (constructed first, destroyed last, so every
/// subsystem may hold pointers into it); reachable from sessions through
/// DataSystem::telemetry(), which is null for bare embedded test rigs —
/// every consumer must tolerate that.
class Telemetry {
 public:
  /// Statements slower than `slow_statement_us` (0 = never) are captured,
  /// with their phase tables, into the slow-query ring.
  explicit Telemetry(uint64_t slow_statement_us = 0)
      : slow_statement_us_(slow_statement_us),
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
                              "statements that carried a phase table");
  }

  MetricsRegistry& registry() { return registry_; }
  SlowQueryLog& slow_log() { return slow_log_; }

  Histogram* statement_us() { return statement_us_; }
  Histogram* parse_us() { return parse_us_; }
  Histogram* plan_us() { return plan_us_; }
  Histogram* commit_force_us() { return commit_force_us_; }
  Histogram* net_request_us() { return net_request_us_; }
  Histogram* net_encode_us() { return net_encode_us_; }

  /// Should a statement carry a phase table? Slow-query capture needs one
  /// on every statement: offenders are only known after the fact.
  bool ShouldTraceStatement() const { return slow_statement_us_ > 0; }

  void CountTraced() { traced_++; }
  uint64_t traced() const { return traced_; }

  /// Record a finished statement's latency; captures into the slow log when
  /// the statement crossed the threshold and carried a trace.
  void RecordStatement(const std::string& text, StatementTrace* trace,
                       uint64_t total_us) {
    statement_us_->Record(total_us);
    if (trace != nullptr && slow_statement_us_ > 0 &&
        total_us >= slow_statement_us_) {
      slow_log_.Record(text, total_us,
                       trace->Render("slow statement: " + text));
    }
  }

 private:
  const uint64_t slow_statement_us_;
  MetricsRegistry registry_;
  SlowQueryLog slow_log_;
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
