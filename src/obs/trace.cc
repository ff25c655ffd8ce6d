#include "obs/trace.h"

#include <iomanip>
#include <sstream>

namespace prima::obs {

// ---------------------------------------------------------------------------
// TracePhase
// ---------------------------------------------------------------------------

void TracePhase::AddCounter(const std::string& key, uint64_t delta) {
  for (auto& kv : counters) {
    if (kv.first == key) {
      kv.second += delta;
      return;
    }
  }
  counters.emplace_back(key, delta);
}

const TracePhase* TracePhase::Child(const std::string& child_name) const {
  for (const TracePhase& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// StatementTrace
// ---------------------------------------------------------------------------

namespace {

TracePhase* FindOrAdd(std::vector<TracePhase>* phases,
                      const std::string& name) {
  for (TracePhase& p : *phases) {
    if (p.name == name) return &p;
  }
  phases->emplace_back();
  phases->back().name = name;
  return &phases->back();
}

void RenderPhase(const TracePhase& phase, int depth, std::ostringstream* out) {
  *out << std::string(static_cast<size_t>(depth) * 2, ' ') << std::left
       << std::setw(22 - depth * 2) << phase.name << std::right
       << std::setw(12) << (phase.ns / 1000) << " us";
  if (phase.count > 1) *out << "  x" << phase.count;
  for (const auto& kv : phase.counters) {
    *out << "  [" << kv.first << "=" << kv.second << "]";
  }
  *out << "\n";
  for (const TracePhase& c : phase.children) RenderPhase(c, depth + 1, out);
}

void CollectNames(const TracePhase& phase, const std::string& prefix,
                  std::vector<std::string>* out) {
  const std::string path = prefix.empty() ? phase.name
                                          : prefix + "/" + phase.name;
  out->push_back(path);
  for (const TracePhase& c : phase.children) CollectNames(c, path, out);
}

}  // namespace

TracePhase* StatementTrace::GetPhase(const std::string& name) {
  return FindOrAdd(&phases_, name);
}

TracePhase* StatementTrace::GetPhase(const std::string& name,
                                     const std::string& child) {
  return FindOrAdd(&GetPhase(name)->children, child);
}

void StatementTrace::Finish() {
  if (finished_) return;
  finished_ = true;
  total_ns_ = NowNs() - start_ns_;

  // Fold the kernel counters into the tree.
  const uint64_t hits = buffer_hits.load(std::memory_order_relaxed);
  const uint64_t misses = buffer_misses.load(std::memory_order_relaxed);
  if (hits > 0 || misses > 0) {
    TracePhase* buffer = GetPhase("buffer");
    buffer->ns += buffer_miss_ns.load(std::memory_order_relaxed);
    buffer->count += hits + misses;
    buffer->AddCounter("hits", hits);
    buffer->AddCounter("misses", misses);
  }

  const uint64_t forces = commit_force_waits.load(std::memory_order_relaxed);
  if (forces > 0) {
    TracePhase* commit = GetPhase("commit");
    commit->ns += commit_force_ns.load(std::memory_order_relaxed);
    commit->count += forces;
    commit->AddCounter("force_waits", forces);
  }

  const uint64_t walks = version_chain_walks.load(std::memory_order_relaxed);
  if (walks > 0) {
    TracePhase* chain = GetPhase("execute", "version_chain");
    chain->ns += version_chain_ns.load(std::memory_order_relaxed);
    chain->count += walks;
    chain->AddCounter("resolved",
                      versions_resolved.load(std::memory_order_relaxed));
  }
}

std::string StatementTrace::Render(const std::string& header) const {
  std::ostringstream out;
  out << header << "\n";
  out << "total " << (total_ns_ / 1000) << " us ("
      << (total_ns_ / 1000000) << " ms)\n";
  for (const TracePhase& p : phases_) RenderPhase(p, 0, &out);
  return out.str();
}

std::vector<std::string> StatementTrace::PhaseNames() const {
  std::vector<std::string> names;
  for (const TracePhase& p : phases_) CollectNames(p, "", &names);
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
