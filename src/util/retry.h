#ifndef PRIMA_UTIL_RETRY_H_
#define PRIMA_UTIL_RETRY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/random.h"
#include "util/status.h"

namespace prima::util {

/// Bounded-backoff retry loop for transient failures (Status::IsTransient):
/// lock conflicts and serialization failures under PRIMA's non-blocking
/// locking. Because a conflicting lock request returns kConflict instead of
/// waiting, two hot-row writers never deadlock — but the loser must abort,
/// back off, and re-run, and every multi-user driver would otherwise grow
/// its own ad-hoc copy of that loop.
struct RetryPolicy {
  /// Give up after this many attempts (the original try counts as one).
  /// <= 0 retries forever — correctness drives that must not abandon an
  /// acknowledged-op protocol mid-sequence use this.
  int max_attempts = 16;
  /// First backoff sleep; doubles per retry up to backoff_cap_us. The
  /// actual sleep is uniformly jittered in [1, computed] so two sessions
  /// that collided once don't re-collide in lockstep forever.
  uint64_t backoff_floor_us = 50;
  uint64_t backoff_cap_us = 5000;
  /// Seed for the jitter stream (deterministic runs stay deterministic).
  uint64_t jitter_seed = 0x7265747279u;  // "retry"
  /// Incremented once per retry (not per attempt). A driver that wants its
  /// retries on the kernel's books adds the total to
  /// TransactionManager::stats().txn_retries, which Prima::stats(),
  /// MetricsText() and the wire's stats reply all report.
  std::atomic<uint64_t>* retry_counter = nullptr;
};

/// Run `attempt` until it succeeds, fails permanently, or the policy's
/// attempt budget is exhausted (the last transient status is returned then).
/// `attempt` must be self-contained: it re-runs from scratch, so on a
/// transient failure it must have released whatever it held (for a session
/// transaction: ABORT WORK before returning the conflict).
template <typename Fn>
Status RetryTransient(const RetryPolicy& policy, Fn&& attempt) {
  Random jitter(policy.jitter_seed);
  uint64_t backoff_us = policy.backoff_floor_us;
  for (int tries = 1;; ++tries) {
    Status st = attempt();
    if (st.ok() || !st.IsTransient()) return st;
    if (policy.max_attempts > 0 && tries >= policy.max_attempts) return st;
    if (policy.retry_counter != nullptr) {
      policy.retry_counter->fetch_add(1, std::memory_order_relaxed);
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(1 + jitter.Uniform(backoff_us)));
    }
    backoff_us = std::min(policy.backoff_cap_us, backoff_us * 2);
  }
}

}  // namespace prima::util

#endif  // PRIMA_UTIL_RETRY_H_
