// A small fixed-size worker pool with a deterministic parallel_for.
//
// Used by eval's leave-one-out protocols (independent folds) through
// TaskRunner; core::SessionScheduler runs its own lanes and only borrows
// default_thread_count(). Determinism contract: parallel_for hands each
// index to exactly one invocation of `body`, bodies write only to per-index
// state, and callers accumulate results serially in index order afterwards —
// so threaded runs are bit-identical to serial runs regardless of
// scheduling.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace dynriver::common {

/// Lane count for `threads == 0`: the DR_THREADS environment override when
/// set to a positive integer (capped at 512), else hardware concurrency. The
/// override is the explicit knob for containers whose advertised core count
/// is wrong for the workload (a 1-core CI box makes every threads=0 pool a
/// no-op; shared hardware may want fewer lanes than cores). Resolving it
/// creates no pool.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  /// A pool with `threads` total lanes of concurrency, the calling thread
  /// of parallel_for being one of them (so threads-1 workers are spawned
  /// and the machine is never oversubscribed). 0 picks the DR_THREADS
  /// environment override when set to a positive integer, else
  /// std::thread::hardware_concurrency() — so shared() and every other
  /// threads=0 pool can be resized per run without code changes. 1 means
  /// fully serial.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrency lanes including the calling thread (>= 1).
  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run body(i) for every i in [begin, end), distributing indices across
  /// the workers plus the calling thread. Blocks until every index has
  /// completed; the first exception thrown by any body is rethrown here
  /// (remaining indices still run).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide shared pool (DR_THREADS lanes when set, else hardware
  /// concurrency; the override is read once, at first use). Intended for
  /// coarse task-level parallelism; bodies must not block on this pool
  /// themselves.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  ///< started in ctor, joined in dtor only
  Mutex mutex_;
  CondVar wake_;
  std::deque<std::function<void()>> tasks_ DR_GUARDED_BY(mutex_);
  bool stop_ DR_GUARDED_BY(mutex_) = false;
};

/// The task-dispatch policy behind eval's leave-one-out folds: a `threads`
/// knob where 1 = serial on the caller, 0 = the shared() pool, and >= 2 = a
/// dedicated pool of that size owned by the runner (built once, reused
/// across run() calls).
class TaskRunner {
 public:
  explicit TaskRunner(std::size_t threads) : threads_(threads) {
    if (threads_ >= 2) pool_.emplace(threads_);
  }

  /// Run body(i) for i in [0, count) under the configured policy; blocks
  /// until complete. Same determinism contract as ThreadPool::parallel_for.
  void run(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (threads_ == 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else if (pool_) {
      pool_->parallel_for(0, count, body);
    } else {
      ThreadPool::shared().parallel_for(0, count, body);
    }
  }

 private:
  std::size_t threads_;
  std::optional<ThreadPool> pool_;
};

}  // namespace dynriver::common
