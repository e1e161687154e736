// Fixed-size thread pool behind the SharedResources lanes (background
// flush/compaction, cloud upload and fetch) and the RunParallel fan-out.
//
// Thread-safety: all public methods may be called concurrently from any
// thread. Lifecycle:
//   * `num_threads == 0` constructs a caller-runs pool: Schedule() executes
//     the task inline on the calling thread (deterministic, no workers).
//   * Shutdown() stops the workers after draining every task already
//     queued. It is idempotent; tasks scheduled during or after shutdown
//     are dropped (never silently left queued). The destructor calls it.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/mutexlock.h"

namespace rocksmash {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, std::string name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Never blocks on worker progress; the queue is
  // unbounded. In a caller-runs pool the task executes inline before
  // Schedule returns. Returns false (dropping the task) if the pool is
  // shutting down.
  bool Schedule(std::function<void()> task);

  // Block until every task scheduled so far has finished.
  void WaitIdle();

  // Drain queued tasks, stop and join all workers. Idempotent; safe to
  // call concurrently (late callers block until the workers are gone).
  void Shutdown();

  size_t NumThreads() const { return num_threads_; }
  size_t PendingTasks();

 private:
  void WorkerLoop();

  const size_t num_threads_;

  // Lock order: after the scheduler's lock (DBImpl::mutex_ is held while
  // Schedule() enqueues). Released before a job runs, so jobs may take any
  // lock.
  Mutex mu_;
  CondVar work_cv_;      // Signalled on new work / shutdown.
  CondVar idle_cv_;      // Signalled when the pool may have gone idle.
  CondVar shutdown_cv_;  // Signalled when the joiner finishes.
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  bool shutdown_complete_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

// Fork-join: runs every task on a scoped pool of min(tasks, hardware
// concurrency) threads and returns once all have finished. For one-off
// fan-outs at open (WAL replay, recovery flush); long-lived pools belong to
// SharedResources.
void RunParallel(const std::vector<std::function<void()>>& tasks);

}  // namespace rocksmash
