// In-memory span tracing for the station-host benchmark.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions; nothing under src/ is instrumented.
// Each thread appends to its own buffer (no lock on the hot path) and keeps
// per-kind aggregates: calls, wall time, thread-CPU time, and self time
// (wall minus the wall time of child spans). A disabled tracer costs one
// branch per span.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t now_ns();         ///< steady (CLOCK_MONOTONIC) clock
[[nodiscard]] std::int64_t thread_cpu_ns();  ///< CPU time of the calling thread

/// Heap allocations made by this process so far (global operator new).
[[nodiscard]] std::uint64_t allocation_count();

enum class SpanKind : std::uint8_t {
  kTcpRead,      ///< river: RecordChannelSource::read / TcpRecordChannel::recv
  kStoreAppend,  ///< river: AudioSegmentArchiver::push in the live tee
  kStoreRead,    ///< river: SegmentStoreSource::read
  kSchedPush,    ///< core: SessionScheduler::push
  kSinkAccept,   ///< the benchmark sink's accept (parent of the two below)
  kFeatures,     ///< core: FeatureExtractor::patterns
  kClassify,     ///< meso: MesoClassifier::classify over one ensemble
  kCount
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "river.tcp.read", "river.store.append", "river.store.read",
    "core.sched.push", "core.sink.accept",  "core.features",
    "meso.classify"};

struct SpanAgg {
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t self_ns = 0;  ///< wall minus child-span wall
};

/// Totals over every thread that recorded a span.
struct TraceSummary {
  std::array<SpanAgg, kSpanKinds> kinds{};
  /// Thread CPU of every span-recording thread other than the caller of
  /// Tracer::begin(), read at its last span end.
  std::int64_t other_thread_cpu_ns = 0;
  std::size_t spans_kept = 0;
  std::size_t spans_dropped = 0;  ///< beyond the kept-span cap
};

/// Process-wide tracer. begin()/end() bracket one measured interval and must
/// be called while no span is open.
class Tracer {
 public:
  static void begin(bool enabled);
  static void end();
  [[nodiscard]] static bool enabled();
  [[nodiscard]] static TraceSummary summary();
  /// Writes the kept spans as JSON lines (name, start, end, parent, id).
  static void write(const std::string& path);
};

/// RAII span. `id` ties the span to an ensemble or chunk.
class Span {
 public:
  Span(SpanKind kind, std::uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench
