// Steady-state replay must be allocation-free per frame: the RecordView
// decode path borrows the cursor/window buffers and the per-source scratch,
// so once every reusable buffer has grown to its high-water mark, reading
// more audio performs zero heap allocations per record. Pinned by replacing
// global operator new with a counting shim and measuring a warm window.
//
// The budget is deliberately not exactly zero: per-*segment* costs (an
// ifstream, a window reload) are allowed, per-*frame* costs are
// not — hence the < 0.05 allocations/frame ceiling.
//
// The append side is pinned the same way: SegmentedRecordLog::append encodes
// into one reused buffer, so a warm appender allocates nothing per record
// beyond the sparse index's occasional growth.
//
// Replay memory is also bounded per segment: a cursor reads a segment
// through one fixed-size chunk, so replaying a multi-MiB sealed segment
// never asks for a buffer anywhere near the segment's size. The shim records
// the largest single allocation to pin that.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <span>
#include <vector>

#include "river/record.hpp"
#include "river/segment_store.hpp"
#include "test_support.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest_allocation{0};

}  // namespace

// Replacement global allocation functions: count, then defer to malloc/free.
// (Sized and array deletes forward to the plain one; over-aligned forms are
// left to the defaults — nothing on the replay path over-aligns.)
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_allocation.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;

namespace {

float quantize_pcm16(float v) {
  const float c = v < -1.0F ? -1.0F : (v > 1.0F ? 1.0F : v);
  return static_cast<float>(std::lround(c * 32767.0F)) / 32768.0F;
}

class ReplayAllocTest : public testsupport::TempDirTest {};

/// Archive `records` packed 900-sample audio records into a store at `dir`
/// with the default segment options.
void write_packed_store(const std::filesystem::path& dir, std::size_t records) {
  constexpr std::size_t kRecordSamples = 900;
  std::vector<float> xs(records * kRecordSamples);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] =
        quantize_pcm16(0.4F * std::sin(static_cast<float>(i % 4096) * 0.013F));
  }
  river::SegmentStoreOptions options;
  options.pack_payloads = true;
  river::SegmentedRecordLog log(dir, options);
  river::AudioSegmentArchiver archiver(log, 21600.0, kRecordSamples);
  archiver.push(xs);
  archiver.finish();
  log.close();
}

}  // namespace

TEST_F(ReplayAllocTest, SteadyStateReplayIsAllocationFreePerFrame) {
  // 2000 records x 900 samples in one sealed segment, packed: decode work
  // (bit-unpack into scratch, copy into pending) all runs through reused
  // buffers.
  const auto dir = temp_file("store");
  constexpr std::size_t kRecordSamples = 900;
  constexpr std::size_t kRecords = 2000;
  constexpr std::size_t kMeasuredRecords = 1000;
  write_packed_store(dir, kRecords);

  // Replay through the source: it drains a cursor on this thread.
  {
    river::SegmentStoreSource source(dir);
    std::vector<float> buf(256);

    // Warm-up: 300 records' worth grows every reusable buffer.
    std::size_t warmed = 0;
    while (warmed < 300 * kRecordSamples) {
      const std::size_t n = source.read(buf);
      ASSERT_GT(n, 0U);
      warmed += n;
    }

    // Measured window: 1000 more records.
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    std::size_t read = 0;
    while (read < kMeasuredRecords * kRecordSamples) {
      const std::size_t n = source.read(buf);
      ASSERT_GT(n, 0U);
      read += n;
    }
    const std::size_t during =
        g_allocations.load(std::memory_order_relaxed) - before;

    // < 0.05 allocations per frame: per-frame heap traffic is zero; only
    // incidental per-segment costs may land inside the window.
    EXPECT_LT(during, kMeasuredRecords / 20)
        << "prefetched replay allocated " << during << " times across "
        << kMeasuredRecords << " records";

    // Drain the rest: the replay must end clean.
    while (source.read(buf) > 0) {
    }
    EXPECT_TRUE(source.clean());
  }

  // The cursor on its own: the same walk and decode, without the source.
  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    river::RecordView view;
    for (std::size_t i = 0; i < 300; ++i) ASSERT_TRUE(cursor.next_view(view));

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMeasuredRecords; ++i) {
      ASSERT_TRUE(cursor.next_view(view));
    }
    const std::size_t during =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_LT(during, kMeasuredRecords / 20)
        << "cursor replay allocated " << during << " times across "
        << kMeasuredRecords << " records";

    while (cursor.next_view(view)) {
    }
    EXPECT_FALSE(cursor.torn());
  }
}

TEST_F(ReplayAllocTest, ReplayOfAMultiMebibyteSegmentAllocatesNoLargeBuffer) {
  // One sealed segment of more than 2 MiB under the default 8 MiB segment
  // size. From opening the store to the end of the replay, no single
  // allocation may reach 1 MiB: the segment is read in bounded chunks, not
  // loaded whole.
  constexpr std::size_t kMaxAllocation = 1U << 20;
  const auto dir = temp_file("store");
  write_packed_store(dir, 3000);
  {
    river::SegmentStoreReader probe(dir);
    const auto segments = probe.segments();
    ASSERT_EQ(segments.size(), 1U);
    ASSERT_TRUE(segments[0].sealed);
    ASSERT_GT(segments[0].bytes, 2U << 20);
  }

  g_largest_allocation.store(0, std::memory_order_relaxed);
  {
    river::SegmentStoreSource source(dir);
    std::vector<float> buf(256);
    std::size_t read = 0;
    for (std::size_t n = source.read(buf); n > 0; n = source.read(buf)) {
      read += n;
    }
    EXPECT_EQ(read, 3000U * 900U);
    EXPECT_TRUE(source.clean());
  }
  EXPECT_LT(g_largest_allocation.load(std::memory_order_relaxed),
            kMaxAllocation)
      << "source replay allocated a segment-sized buffer";

  g_largest_allocation.store(0, std::memory_order_relaxed);
  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    river::RecordView view;
    std::size_t records = 0;
    while (cursor.next_view(view)) ++records;
    EXPECT_FALSE(cursor.torn());
    EXPECT_EQ(records, 3000U);
  }
  EXPECT_LT(g_largest_allocation.load(std::memory_order_relaxed),
            kMaxAllocation)
      << "cursor replay allocated a segment-sized buffer";
}

TEST_F(ReplayAllocTest, SteadyStateAppendIsAllocationFreePerRecord) {
  // Packed 900-sample audio records appended to one active segment (no
  // rotation inside the window): the encode buffer is reused, so only the
  // sparse index's vector growth may allocate.
  constexpr std::size_t kRecordSamples = 900;
  constexpr std::size_t kMeasuredRecords = 1000;
  river::FloatVec samples(kRecordSamples);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] =
        quantize_pcm16(0.4F * std::sin(static_cast<float>(i) * 0.013F));
  }
  const river::Record rec =
      river::Record::data(river::kSubtypeAudio, std::move(samples));

  river::SegmentStoreOptions options;
  options.pack_payloads = true;
  river::SegmentedRecordLog log(temp_file("store"), options);
  double t = 0.0;
  for (std::size_t i = 0; i < 300; ++i, t += 1.0) log.append(rec, t);

  const std::size_t segments = log.segments().size();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMeasuredRecords; ++i, t += 1.0) {
    log.append(rec, t);
  }
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(log.segments().size(), segments) << "no rotation in the window";
  EXPECT_LT(during, kMeasuredRecords / 20)
      << "append allocated " << during << " times across " << kMeasuredRecords
      << " records";
  log.close();
}
