#include "trace.hpp"

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/thread_annotations.hpp"

// Counting global allocator: proc.allocs_per_audio_s is this counter's delta
// over the measured interval. One relaxed increment per allocation.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

namespace {

/// Spans kept for the written trace, over all threads; the aggregates count
/// every span.
constexpr std::uint64_t kKeepTotal = std::uint64_t{1} << 16;

struct Frame {
  SpanKind kind;
  std::uint64_t id;
  std::int64_t start;
  std::int64_t cpu;
  std::int64_t child_wall = 0;
  std::int32_t kept = -1;  ///< index in ThreadTrace::kept, -1 when dropped
};

struct SpanRecord {
  std::int64_t start;
  std::int64_t end;
  std::uint64_t id;
  std::int32_t parent;
  SpanKind kind;
};

struct ThreadTrace {
  std::uint64_t epoch = 0;
  bool is_begin_thread = false;
  std::array<SpanAgg, kSpanKinds> agg{};
  std::vector<Frame> stack;
  std::vector<SpanRecord> kept;
  std::size_t dropped = 0;
  std::int64_t last_cpu = 0;  ///< thread CPU at the latest span end
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_kept{0};
std::atomic<std::uint64_t> g_epoch{0};
pthread_t g_begin_thread{};
dynriver::common::Mutex g_mu;
// Never shrunk: a thread_local pointer may still refer to an entry of an
// earlier interval, recognised by its stale epoch.
std::vector<std::unique_ptr<ThreadTrace>> g_threads DR_GUARDED_BY(g_mu);
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& local_trace() {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_trace == nullptr || t_trace->epoch != epoch) {
    auto fresh = std::make_unique<ThreadTrace>();
    fresh->epoch = epoch;
    fresh->is_begin_thread = pthread_equal(pthread_self(), g_begin_thread) != 0;
    fresh->stack.reserve(8);
    t_trace = fresh.get();
    const dynriver::common::LockGuard lk(g_mu);
    g_threads.push_back(std::move(fresh));
  }
  return *t_trace;
}

}  // namespace

void Tracer::begin(bool enabled) {
  g_begin_thread = pthread_self();
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  g_kept.store(0, std::memory_order_relaxed);
  g_enabled.store(enabled, std::memory_order_release);
}

void Tracer::end() { g_enabled.store(false, std::memory_order_release); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

TraceSummary Tracer::summary() {
  TraceSummary out;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  const dynriver::common::LockGuard lk(g_mu);
  for (const auto& t : g_threads) {
    if (t->epoch != epoch) continue;
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      out.kinds[k].calls += t->agg[k].calls;
      out.kinds[k].wall_ns += t->agg[k].wall_ns;
      out.kinds[k].cpu_ns += t->agg[k].cpu_ns;
      out.kinds[k].self_ns += t->agg[k].self_ns;
    }
    if (!t->is_begin_thread) out.other_thread_cpu_ns += t->last_cpu;
    out.spans_kept += t->kept.size();
    out.spans_dropped += t->dropped;
  }
  return out;
}

void Tracer::write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  const dynriver::common::LockGuard lk(g_mu);
  std::size_t thread_no = 0;
  for (const auto& t : g_threads) {
    if (t->epoch != epoch) continue;
    for (const SpanRecord& s : t->kept) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"id\":%llu}\n",
                   thread_no, kSpanNames[static_cast<std::size_t>(s.kind)],
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.id));
    }
    ++thread_no;
  }
  std::fclose(f);  // best-effort: the trace file is a diagnostic artifact
}

Span::Span(SpanKind kind, std::uint64_t id) : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadTrace& t = local_trace();
  Frame f{kind, id, now_ns(), thread_cpu_ns()};
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < kKeepTotal) {
    f.kept = static_cast<std::int32_t>(t.kept.size());
    const std::int32_t parent = t.stack.empty() ? -1 : t.stack.back().kept;
    t.kept.push_back({f.start, 0, id, parent, kind});
  } else {
    ++t.dropped;
  }
  t.stack.push_back(f);
}

Span::~Span() {
  if (!active_) return;
  ThreadTrace& t = *t_trace;
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t cpu = thread_cpu_ns();
  const std::int64_t wall = end - f.start;
  SpanAgg& a = t.agg[static_cast<std::size_t>(f.kind)];
  ++a.calls;
  a.wall_ns += wall;
  a.cpu_ns += cpu - f.cpu;
  a.self_ns += wall - f.child_wall;
  if (!t.stack.empty()) t.stack.back().child_wall += wall;
  if (f.kept >= 0) t.kept[static_cast<std::size_t>(f.kept)].end = end;
  t.last_cpu = cpu;
}

}  // namespace perfbench
