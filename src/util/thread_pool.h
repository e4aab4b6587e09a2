// Fixed-size worker pool shared by the parallel subsystems, each of which
// runs independent units of work side by side: the variant runner (whole
// diagnoses), the `histpc serve` workers (requests), and
// ExperimentStore::migrate_all (`histpc migrate --jobs`, records).
//
// Deliberately minimal: a bounded set of threads draining a FIFO queue of
// void() tasks. There is no future/promise layer — callers that need a
// result write it to a slot they own (variant_runner stores each outcome
// by input index) and wait on wait_idle().
// Tasks must not throw; wrap fallible work in try/catch and stash the
// exception (variant_runner keeps a per-variant std::exception_ptr).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace histpc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1). The pool is fixed-size
  /// for its lifetime.
  explicit ThreadPool(int threads);

  /// Drains the queue (runs every submitted task), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Safe to call from any thread, including from inside
  /// a running task.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no task is executing. Tasks
  /// submitted while waiting extend the wait.
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Canonical "0 means all cores" resolution used by every --*-threads
  /// flag: requested <= 0 maps to hardware_concurrency (minimum 1).
  static int resolve(int requested);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;  ///< signals workers: work or shutdown
  std::condition_variable cv_idle_;  ///< signals waiters: possibly idle
  std::size_t busy_ = 0;             ///< tasks currently executing
  bool shutdown_ = false;
};

}  // namespace histpc::util
