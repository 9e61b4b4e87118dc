#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace dynriver::common {

std::size_t default_thread_count() {
  // Cap the override: a typo'd or overflowed value (strtol saturates at
  // LONG_MAX on ERANGE) must not translate into thousands of spawned
  // threads; 512 lanes is beyond any machine this targets.
  constexpr long kMaxThreads = 512;
  if (const char* env = std::getenv("DR_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(std::min(v, kMaxThreads));
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  // The parallel_for caller is lane 0; spawn the rest as workers.
  const std::size_t workers = threads - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stop_ && tasks_.empty()) wake_.wait(lock);
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {
/// Shared state of one parallel_for call: a work-stealing index counter plus
/// completion bookkeeping. Heap-allocated so enqueued tasks stay valid even
/// while the caller is blocked in the completion wait.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::atomic<std::size_t> done{0};
  std::size_t total = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  Mutex mutex;
  CondVar finished;
  std::exception_ptr error DR_GUARDED_BY(mutex);

  void run_indices() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        (*body)(i);
      } catch (...) {
        const LockGuard lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        const LockGuard lock(mutex);
        finished.notify_all();
      }
    }
  }
};
}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  if (total == 1 || workers_.empty()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->total = total;
  state->body = &body;  // valid: this call outlives every enqueued task

  const std::size_t helpers = std::min(workers_.size(), total - 1);
  {
    const LockGuard lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.emplace_back([state] { state->run_indices(); });
    }
  }
  wake_.notify_all();

  // The calling thread participates until the index space is exhausted,
  // then waits for indices claimed by workers to finish.
  state->run_indices();
  UniqueLock lock(state->mutex);
  while (state->done.load(std::memory_order_acquire) != state->total) {
    state->finished.wait(lock);
  }
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace dynriver::common
