#ifndef PRIMA_UTIL_THREAD_POOL_H_
#define PRIMA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prima::util {

/// The number of CPUs this process may run on: the calling thread's
/// sched_getaffinity mask, or hardware_concurrency() where that is
/// unavailable; never less than 1. Every scaling knob left at 0 (pool
/// workers, redo threads, buffer shards, histogram stripes) is sized from
/// it, so a process pinned to one CPU runs serial.
size_t UsableCpus();

/// Fixed-size worker pool. Substrate for PRIMA's "semantic parallelism":
/// decomposed units of work (DUs) from a single user operation — the
/// root ranges of a Prima::QueryParallel call — are scheduled here and
/// executed concurrently (paper §4; the multi-processor PRIMA is emulated
/// with shared-memory threads in one process).
/// Restart recovery reuses it to fan per-page redo chains out over the
/// CPUs (RecoveryManager parallel apply phase).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Sizing default for "use the machine": UsableCpus(). One usable CPU
  /// means one worker — a second could only time-share it.
  static size_t DefaultThreads();

  /// Enqueue a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueue a batch under one lock acquisition and wake every worker —
  /// cheaper than N Submit calls when fanning out many tasks at once.
  void SubmitAll(std::vector<std::function<void()>> tasks);

  /// Block until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace prima::util

#endif  // PRIMA_UTIL_THREAD_POOL_H_
