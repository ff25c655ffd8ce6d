#include "obs/trace.h"

#include <iomanip>
#include <sstream>

namespace prima::obs {

// ---------------------------------------------------------------------------
// StatementTrace
// ---------------------------------------------------------------------------

std::array<bool, kPhaseCount> StatementTrace::Shown() const {
  std::array<bool, kPhaseCount> shown{};
  // Children follow their parent in the table, so a backward walk settles
  // every child before its parent.
  for (size_t i = kPhaseCount; i-- > 0;) {
    const Slot& s = slots_[i];
    shown[i] = shown[i] || s.count > 0 || s.tallies[0] > 0 || s.tallies[1] > 0;
    if (shown[i] && kPhases[i].parent.has_value()) {
      shown[static_cast<size_t>(*kPhases[i].parent)] = true;
    }
  }
  return shown;
}

std::string StatementTrace::Render(const std::string& header) const {
  std::ostringstream out;
  out << header << "\n";
  out << "total " << (total_ns_ / 1000) << " us ("
      << (total_ns_ / 1000000) << " ms)\n";
  const std::array<bool, kPhaseCount> shown = Shown();
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (!shown[i]) continue;
    const PhaseDef& def = kPhases[i];
    const Slot& s = slots_[i];
    const int depth = def.parent.has_value() ? 1 : 0;
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << std::left
        << std::setw(22 - depth * 2) << def.name << std::right
        << std::setw(12) << (s.ns / 1000) << " us";
    if (s.count > 1) out << "  x" << s.count;
    for (size_t t = 0; t < def.tallies.size(); ++t) {
      const uint64_t v = s.tallies[t];
      if (def.tallies[t] == nullptr || (v == 0 && !def.show_zero_tallies)) {
        continue;
      }
      out << "  [" << def.tallies[t] << "=" << v << "]";
    }
    out << "\n";
  }
  return out.str();
}

std::vector<std::string> StatementTrace::PhaseNames() const {
  std::vector<std::string> names;
  const std::array<bool, kPhaseCount> shown = Shown();
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (!shown[i]) continue;
    const PhaseDef& def = kPhases[i];
    names.push_back(def.parent.has_value()
                        ? std::string(kPhases[static_cast<size_t>(
                                          *def.parent)].name) +
                              "/" + def.name
                        : std::string(def.name));
  }
  return names;
}

// ---------------------------------------------------------------------------
// Thread-local trace context
// ---------------------------------------------------------------------------

namespace {
thread_local StatementTrace* tls_current_trace = nullptr;
}  // namespace

StatementTrace* CurrentTrace() { return tls_current_trace; }

TraceContext::TraceContext(StatementTrace* trace) : prev_(tls_current_trace) {
  tls_current_trace = trace;
}

TraceContext::~TraceContext() { tls_current_trace = prev_; }

// ---------------------------------------------------------------------------
// SlowQueryLog
// ---------------------------------------------------------------------------

void SlowQueryLog::Record(std::string text, uint64_t total_us,
                          std::string trace) {
  if (capacity_ == 0) return;
  SlowStatement s;
  s.sequence = captured_.fetch_add(1, std::memory_order_relaxed);
  s.text = std::move(text);
  s.total_us = total_us;
  s.trace = std::move(trace);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(s));
}

std::vector<SlowStatement> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowStatement>(ring_.begin(), ring_.end());
}

}  // namespace prima::obs
