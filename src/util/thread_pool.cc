#include "util/thread_pool.h"

#include <algorithm>

namespace rocksmash {

ThreadPool::ThreadPool(size_t num_threads, std::string name)
    : num_threads_(num_threads),
      work_cv_(&mu_),
      idle_cv_(&mu_),
      shutdown_cv_(&mu_) {
  (void)name;
  MutexLock lock(&mu_);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Schedule(std::function<void()> task) {
  if (num_threads_ == 0) {
    // Caller-runs pool: never enqueue (there is nobody to dequeue).
    {
      MutexLock lock(&mu_);
      if (shutting_down_) return false;
      active_++;
    }
    task();
    MutexLock lock(&mu_);
    active_--;
    idle_cv_.NotifyAll();
    return true;
  }
  {
    MutexLock lock(&mu_);
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
  return true;
}

void ThreadPool::WaitIdle() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || active_ != 0) {
    idle_cv_.Wait();
  }
}

void ThreadPool::Shutdown() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      // Someone else is (or finished) shutting down; wait for the workers
      // to be fully gone before returning so double-Shutdown is a barrier.
      while (!shutdown_complete_) {
        shutdown_cv_.Wait();
      }
      return;
    }
    shutting_down_ = true;
    to_join.swap(threads_);
  }
  work_cv_.NotifyAll();
  for (auto& t : to_join) {
    t.join();
  }
  MutexLock lock(&mu_);
  shutdown_complete_ = true;
  shutdown_cv_.NotifyAll();
  idle_cv_.NotifyAll();
}

size_t ThreadPool::PendingTasks() {
  MutexLock lock(&mu_);
  return queue_.size() + active_;
}

void ThreadPool::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    while (!shutting_down_ && queue_.empty()) {
      work_cv_.Wait();
    }
    if (shutting_down_ && queue_.empty()) {
      break;
    }
    auto task = std::move(queue_.front());
    queue_.pop_front();
    active_++;
    mu_.Unlock();
    task();
    mu_.Lock();
    active_--;
    if (queue_.empty() && active_ == 0) {
      idle_cv_.NotifyAll();
    }
  }
  mu_.Unlock();
}

void RunParallel(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  // Never oversubscribe the cores: beyond hardware concurrency, extra
  // threads only timeshare (no wall-clock win) and pollute the per-task
  // timings that model a parallel critical path.
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(tasks.size(), hw), "fork-join");
  for (const auto& task : tasks) pool.Schedule(task);
  pool.WaitIdle();
}

}  // namespace rocksmash
