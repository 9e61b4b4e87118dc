// Tier-2 soak for the storage layer, at four stress points:
//
//   1. Recovery memory: scanning the valid prefix of a ~64 MB torn active
//      segment must stream frame by frame, not slurp the file — pinned with
//      a peak-RSS (VmHWM) assertion. The regression this guards: an early
//      valid-prefix scan read the whole file into one vector.
//   2. Rotation under sustained write with a reader racing the writer:
//      readers opened mid-write must always end cleanly (sealed segments +
//      synced tail), never throw, and observe monotonically non-decreasing
//      record counts.
//   3. Kill-and-recover drill: a forked writer dies via _exit (no stdio
//      flush, no seal — a genuine crash image); reopening the store must
//      seal the synced prefix and keep working.
//   4. Retention racing the writer and a reader: a second thread retires
//      old segments while the owner appends and a reader re-seeks.
//
// CI runs this suite under ASan+UBSan; tests/CMakeLists.txt pins the ASan
// quarantine small so freed buffers do not inflate VmHWM.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "river/record.hpp"
#include "river/segment_store.hpp"
#include "test_support.hpp"

namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;
namespace fs = std::filesystem;
using river::Record;

namespace {

/// Peak resident set (VmHWM) in bytes; 0 when /proc is unavailable.
std::size_t peak_rss_bytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

Record audio_record(std::uint64_t seq, std::size_t n) {
  Record rec = Record::data(river::kSubtypeAudio,
                            river::FloatVec(n, static_cast<float>(seq)));
  rec.sequence = seq;
  return rec;
}

class SegmentStoreSoak : public testsupport::TempDirTest {};

}  // namespace

TEST_F(SegmentStoreSoak, RecoveryScanOfLargeTornLogIsBoundedMemory) {
  // One ~64 MB active segment (DR_SOAK_LOG_RECORDS scales it), copied out
  // before close() seals it, then torn mid-frame.
  const auto dir = temp_file("big-store");
  const auto torn_dir = temp_file("big-torn");
  const std::size_t records = env_size("DR_SOAK_LOG_RECORDS", 4000);
  river::SegmentStoreOptions options;
  options.max_segment_bytes = std::uint64_t{1} << 40;  // never rotate
  {
    river::SegmentedRecordLog log(dir, options);
    for (std::uint64_t i = 0; i < records; ++i) {
      log.append(audio_record(i, 4096), static_cast<double>(i));  // ~16.4 KB
    }
    log.sync();
    fs::copy(dir, torn_dir, fs::copy_options::recursive);
    log.close();
  }
  const auto path = torn_dir / "seg-000000.drs";
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 5);  // torn tail

  const std::size_t rss_before = peak_rss_bytes();
  river::SegmentedRecordLog log(torn_dir, options);
  const std::size_t rss_after = peak_rss_bytes();

  EXPECT_EQ(log.recovered_records(), records - 1);
  log.append(audio_record(records, 16),  // still appendable
             static_cast<double>(records));
  log.close();

  if (rss_before == 0) GTEST_SKIP() << "/proc/self/status unavailable";
  // The whole-file slurp this guards against would spike VmHWM by at least
  // full_size (~64 MB); the streamed scan needs only one frame at a time
  // plus the sparse index. Allow generous allocator/sanitizer slack.
  const std::size_t grew = rss_after - rss_before;
  EXPECT_LT(grew, full_size / 4)
      << "recovery scan retained O(file) memory (grew " << grew << " bytes of "
      << full_size << ")";
}

TEST_F(SegmentStoreSoak, ReaderRacesWriterThroughSustainedRotation) {
  const auto dir = temp_file("race-store");
  river::SegmentStoreOptions options;
  options.max_segment_bytes = 32 << 10;  // rotate every ~60 records
  options.sync_on_seal = true;
  const std::uint64_t total = env_size("DR_SOAK_RACE_RECORDS", 6000);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reader_passes{0};
  std::size_t last_count = 0;
  std::size_t max_count = 0;
  std::string reader_failure;

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      try {
        river::SegmentStoreReader reader_view(dir);
        auto cursor = reader_view.seek(0.0);
        Record rec;
        std::size_t count = 0;
        double prev_t = -1.0;
        while (cursor.next(rec)) {
          if (cursor.time() < prev_t) {
            reader_failure = "time went backwards";
            done.store(true, std::memory_order_release);
            return;
          }
          prev_t = cursor.time();
          ++count;
        }
        // Snapshot isolation: a later pass never sees fewer records than an
        // earlier completed pass (sealing + sync only ever publish more).
        if (count < last_count) {
          reader_failure = "record count went backwards";
          done.store(true, std::memory_order_release);
          return;
        }
        last_count = count;
        max_count = std::max(max_count, count);
        ++reader_passes;
      } catch (const std::exception& e) {
        reader_failure = e.what();
        done.store(true, std::memory_order_release);
        return;
      }
    }
  });

  {
    river::SegmentedRecordLog log(dir, options);
    for (std::uint64_t i = 0; i < total; ++i) {
      log.append(audio_record(i, 100), 0.001 * static_cast<double>(i));
      if (i % 64 == 0) log.sync();  // publish the tail for the racing reader
    }
    log.close();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_TRUE(reader_failure.empty()) << reader_failure;
  EXPECT_GT(reader_passes.load(), 0U) << "reader never completed a pass";

  river::SegmentStoreReader final_view(dir);
  EXPECT_TRUE(final_view.verify());
  auto cursor = final_view.seek(0.0);
  Record rec;
  std::size_t count = 0;
  while (cursor.next(rec)) ++count;
  EXPECT_EQ(count, total);
  EXPECT_GE(count, max_count);
}

TEST_F(SegmentStoreSoak, KillNineDrillRecoversSyncedPrefixAndContinues) {
  const auto dir = temp_file("kill-store");
  river::SegmentStoreOptions options;
  options.max_segment_bytes = 32 << 10;
  constexpr std::uint64_t kSealed = 300;    // enough to rotate a few times
  constexpr std::uint64_t kSynced = 40;     // active tail made durable
  constexpr std::uint64_t kBuffered = 30;   // dies in the writer's buffer

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: write, sync part of the active tail, then die without flushing
    // stdio or running destructors — the on-disk image of a real crash.
    try {
      river::SegmentedRecordLog log(dir, options);
      std::uint64_t i = 0;
      for (; i < kSealed; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      log.seal_active();
      for (; i < kSealed + kSynced; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      log.sync();
      for (; i < kSealed + kSynced + kBuffered; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      _exit(0);  // log still alive: no destructor, no seal, no stdio flush
    } catch (...) {
      _exit(2);
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child writer failed before the simulated crash";

  // Reopen: recovery must keep every sealed segment and seal the synced
  // prefix of the torn active segment.
  river::SegmentedRecordLog log(dir, options);
  EXPECT_GE(log.recovered_records(), kSynced);
  std::uint64_t on_disk = 0;
  for (const auto& s : log.segments()) on_disk += s.frames;
  EXPECT_GE(on_disk, kSealed + kSynced);
  EXPECT_LE(on_disk, kSealed + kSynced + kBuffered);

  // The store keeps working after recovery.
  const std::uint64_t next = kSealed + kSynced + kBuffered;
  log.append(audio_record(next, 100), static_cast<double>(next));
  log.close();

  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  Record rec;
  std::uint64_t count = 0;
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (cursor.next(rec)) {
    if (!first) {
      EXPECT_GT(rec.sequence, prev_seq);
    }
    prev_seq = rec.sequence;
    first = false;
    ++count;
  }
  EXPECT_EQ(count, on_disk + 1);
  EXPECT_EQ(prev_seq, next) << "post-recovery append must be the last record";
}

TEST_F(SegmentStoreSoak, PackedKillDrillRecoversSyncedPrefixAndContinues) {
  // The same crash image, but with the bit-packing codec on: the recovered
  // prefix must decode (packed frames are self-delimiting within their
  // envelopes) and the store must keep accepting packed appends.
  const auto dir = temp_file("packed-kill-store");
  river::SegmentStoreOptions options;
  options.max_segment_bytes = 32 << 10;
  options.pack_payloads = true;
  constexpr std::uint64_t kSealed = 300;
  constexpr std::uint64_t kSynced = 40;
  constexpr std::uint64_t kBuffered = 30;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    try {
      river::SegmentedRecordLog log(dir, options);
      std::uint64_t i = 0;
      for (; i < kSealed; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      log.seal_active();
      for (; i < kSealed + kSynced; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      log.sync();
      for (; i < kSealed + kSynced + kBuffered; ++i) {
        log.append(audio_record(i, 100), static_cast<double>(i));
      }
      _exit(0);
    } catch (...) {
      _exit(2);
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child writer failed before the simulated crash";

  river::SegmentedRecordLog log(dir, options);
  EXPECT_GE(log.recovered_records(), kSynced);
  std::uint64_t on_disk = 0;
  for (const auto& s : log.segments()) on_disk += s.frames;
  EXPECT_GE(on_disk, kSealed + kSynced);
  EXPECT_LE(on_disk, kSealed + kSynced + kBuffered);
  const std::uint64_t next = kSealed + kSynced + kBuffered;
  log.append(audio_record(next, 100), static_cast<double>(next));
  log.close();

  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  Record rec;
  std::uint64_t count = 0;
  while (cursor.next(rec)) {
    // Every recovered record decodes to its full payload, not just a header.
    EXPECT_EQ(std::get<river::FloatVec>(rec.payload).size(), 100U);
    ++count;
  }
  EXPECT_FALSE(cursor.torn());
  EXPECT_EQ(count, on_disk + 1);
}

TEST_F(SegmentStoreSoak, RetentionRacesLiveWriterAndConcurrentReader) {
  // Three-way churn: the owning thread appends packed records while a
  // retention thread keeps retiring everything older than the newest second
  // and a reader thread keeps re-opening the store. Cursors may fail when
  // retention deletes a file out from under their snapshot (the documented
  // contract says re-seek), but they must never see time run backwards, and
  // the store must end consistent.
  const auto dir = temp_file("retention-race");
  river::SegmentStoreOptions options;
  options.max_segment_bytes = 16 << 10;  // rotate constantly
  options.sync_on_seal = true;
  options.pack_payloads = true;
  const std::uint64_t total = env_size("DR_SOAK_RACE_RECORDS", 6000);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reader_passes{0};
  std::string reader_failure;

  river::SegmentedRecordLog log(dir, options);
  std::atomic<bool> writing{true};
  std::size_t retired = 0;
  std::thread retention([&] {
    while (writing.load(std::memory_order_acquire)) {
      // Stream seconds, not wall time; -inf until the first append.
      retired += log.retire_before(log.last_time() - 1.0);
    }
  });

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      try {
        river::SegmentStoreReader view(dir);
        auto cursor = view.seek(0.0);
        Record rec;
        double prev_t = -1.0;
        while (cursor.next(rec)) {
          if (cursor.time() < prev_t) {
            reader_failure = "time went backwards";
            done.store(true, std::memory_order_release);
            return;
          }
          prev_t = cursor.time();
        }
        ++reader_passes;
      } catch (const std::exception&) {
        // Retention deleted a file under this cursor's snapshot: allowed.
        // Re-seek (next loop iteration) per the store's documented contract.
      }
    }
  });

  for (std::uint64_t i = 0; i < total && !done.load(); ++i) {
    log.append(audio_record(i, 100), 0.001 * static_cast<double>(i));
    if (i % 64 == 0) log.sync();
  }
  writing.store(false, std::memory_order_release);
  retention.join();
  log.close();
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_TRUE(reader_failure.empty()) << reader_failure;
  EXPECT_GT(reader_passes.load(), 0U) << "reader never completed a pass";
  EXPECT_GT(retired, 0U) << "retention never retired a segment: tune the churn";

  // End state: everything still on disk verifies and reads back in order,
  // with strictly increasing sequences up to the final record.
  river::SegmentStoreReader final_view(dir);
  std::string error;
  EXPECT_TRUE(final_view.verify(&error)) << error;
  auto cursor = final_view.seek(0.0);
  Record rec;
  std::uint64_t prev_seq = 0;
  std::uint64_t count = 0;
  while (cursor.next(rec)) {
    if (count > 0) {
      EXPECT_GT(rec.sequence, prev_seq);
    }
    prev_seq = rec.sequence;
    ++count;
  }
  EXPECT_GT(count, 0U);
  EXPECT_EQ(prev_seq, total - 1) << "the newest records must survive";
}
