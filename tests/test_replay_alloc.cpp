// Steady-state replay must be allocation-free per frame: the RecordView
// decode path borrows the cursor/window buffers and the per-source scratch,
// so once every reusable buffer has grown to its high-water mark, reading
// more audio performs zero heap allocations per record. Pinned by replacing
// global operator new with a counting shim and measuring a warm window.
//
// The budget is deliberately not exactly zero: per-*segment* costs (an
// ifstream, a window reload) are allowed, per-*frame* costs are
// not — hence the < 0.05 allocations/frame ceiling.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "river/record.hpp"
#include "river/segment_store.hpp"
#include "test_support.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Replacement global allocation functions: count, then defer to malloc/free.
// (Sized and array deletes forward to the plain one; over-aligned forms are
// left to the defaults — nothing on the replay path over-aligns.)
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace

TEST_F(ReplayAllocTest, SteadyStateReplayIsAllocationFreePerFrame) {
  // 2000 records x 900 samples in one sealed segment, packed: decode work
  // (bit-unpack into scratch, copy into pending) all runs through reused
  // buffers.
  const auto dir = temp_file("store");
  constexpr std::size_t kRecordSamples = 900;
  constexpr std::size_t kRecords = 2000;
  constexpr std::size_t kMeasuredRecords = 1000;
  {
    std::vector<float> xs(kRecords * kRecordSamples);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = quantize_pcm16(
          0.4F * std::sin(static_cast<float>(i % 4096) * 0.013F));
    }
    river::SegmentStoreOptions options;
    options.pack_payloads = true;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, 21600.0, kRecordSamples);
    archiver.push(xs);
    archiver.finish();
    log.close();
  }

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
