// Segment store (river/segment_store.hpp): rotation, sealing, manifest,
// O(log n) seek with sparse-index probes, CRC32C damage detection,
// crash recovery, retention — and replay bit-identity: the
// same ensembles whether extraction runs live, from a raw single-segment
// store, or from a rotated or packed store (standalone or through the
// SessionScheduler).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/extractor.hpp"
#include "core/session_scheduler.hpp"
#include "core/stream_session.hpp"
#include "river/record.hpp"
#include "river/sample_io.hpp"
#include "river/segment_store.hpp"
#include "river/wire.hpp"
#include "synth/station.hpp"
#include "test_support.hpp"

namespace core = dynriver::core;
namespace river = dynriver::river;
namespace testsupport = dynriver::testsupport;
namespace fs = std::filesystem;
using river::Record;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<float> ramp(std::size_t n) {
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<float>(i) * 0.001F;
  return xs;
}

/// A data record with `n` floats stamped so tests can identify it later.
Record audio_record(std::uint64_t seq, std::size_t n) {
  Record rec = Record::data(river::kSubtypeAudio,
                            river::FloatVec(n, static_cast<float>(seq)));
  rec.sequence = seq;
  return rec;
}

/// Drain one cursor, returning every record (and checking time monotonicity).
std::vector<Record> drain_cursor(river::SegmentStoreReader::Cursor& cursor) {
  std::vector<Record> out;
  Record rec;
  double prev = -kInf;
  while (cursor.next(rec)) {
    EXPECT_GE(cursor.time(), prev);
    prev = cursor.time();
    out.push_back(rec);
  }
  return out;
}

/// Drain a sample source in `chunk`-sized reads.
std::vector<float> drain(river::SampleSource& source, std::size_t chunk) {
  std::vector<float> out;
  std::vector<float> buf(chunk);
  for (;;) {
    const std::size_t n = source.read(buf);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

/// Parameters scaled down so short synthetic signals trigger extraction.
core::PipelineParams small_params() {
  core::PipelineParams params;
  params.anomaly = {.window = 50, .alphabet = 6, .level = 2,
                    .ma_window = 400, .frame = 8};
  params.trigger_min_baseline = 1500;
  params.trigger_hold_samples = 300;
  params.min_ensemble_samples = 600;
  params.merge_gap_samples = 2000;
  return params;
}

std::vector<float> random_signal_with_events(std::size_t n, unsigned seed) {
  auto xs = testsupport::noise_with_bursts(n, n / 4, n / 8, seed);
  const auto second =
      testsupport::noise_with_bursts(n, (3 * n) / 5, n / 10, seed + 1);
  for (std::size_t i = (3 * n) / 5; i < std::min(n, (3 * n) / 5 + n / 10);
       ++i) {
    xs[i] += second[i] * 0.5F;
  }
  return xs;
}

void expect_same_ensembles(const std::vector<river::Ensemble>& got,
                           const std::vector<river::Ensemble>& want,
                           const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start_sample, want[i].start_sample)
        << label << " ensemble=" << i;
    ASSERT_EQ(got[i].samples, want[i].samples) << label << " ensemble=" << i;
  }
}

/// A raw single-segment store of `xs`, written record by record: 900-sample
/// data records carrying only a kAttrSampleRate attribute, so replay learns
/// the rate from the data records themselves.
void write_single_segment_store(const fs::path& dir,
                                const std::vector<float>& xs, double rate) {
  river::SegmentedRecordLog log(dir);
  for (std::size_t pos = 0; pos < xs.size(); pos += 900) {
    const std::size_t n = std::min<std::size_t>(900, xs.size() - pos);
    Record rec = Record::data(
        river::kSubtypeAudio,
        river::FloatVec(xs.begin() + static_cast<std::ptrdiff_t>(pos),
                        xs.begin() + static_cast<std::ptrdiff_t>(pos + n)));
    rec.set_attr(river::kAttrSampleRate, rate);
    log.append(rec, static_cast<double>(pos) / rate);
  }
  log.close();
  ASSERT_EQ(log.segments().size(), 1U) << "one segment, like one clip's log";
}

class SegmentStoreTest : public testsupport::TempDirTest {
 protected:
  [[nodiscard]] fs::path store_dir() const { return temp_file("store"); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer basics: round trip, rotation, live tail visibility
// ---------------------------------------------------------------------------

TEST_F(SegmentStoreTest, RoundTripsRecordsWithTimesAcrossReopen) {
  const auto dir = store_dir();
  std::vector<Record> written;
  {
    river::SegmentedRecordLog log(dir);
    Record open = Record::open_scope(river::kScopeClip, 0);
    open.set_attr(river::kAttrSampleRate, 21600.0);
    log.append(open, 0.0);
    written.push_back(open);
    for (std::uint64_t i = 0; i < 20; ++i) {
      const Record rec = audio_record(i, 30 + static_cast<std::size_t>(i));
      log.append(rec, 0.1 * static_cast<double>(i));
      written.push_back(rec);
    }
    const Record close = Record::close_scope(river::kScopeClip, 0);
    log.append(close, 2.0);
    written.push_back(close);
    EXPECT_EQ(log.records_written(), written.size());
    log.close();
  }

  river::SegmentStoreReader reader(dir);
  ASSERT_EQ(reader.segments().size(), 1U);
  EXPECT_TRUE(reader.segments()[0].sealed);
  EXPECT_EQ(reader.segments()[0].frames, written.size());
  EXPECT_EQ(reader.segments()[0].t_min, 0.0);
  EXPECT_EQ(reader.segments()[0].t_max, 2.0);
  EXPECT_TRUE(reader.verify());

  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], written[i]) << "record " << i;
  }
  EXPECT_FALSE(cursor.torn());
}

TEST_F(SegmentStoreTest, RotatesBySizeIntoOrderedNonOverlappingSegments) {
  const auto dir = store_dir();
  river::SegmentStoreOptions options;
  options.max_segment_bytes = 4 << 10;  // tiny: force many rotations
  const std::uint64_t kRecords = 200;
  {
    river::SegmentedRecordLog log(dir, options);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      log.append(audio_record(i, 64), 0.01 * static_cast<double>(i));
    }
    log.close();
  }

  river::SegmentStoreReader reader(dir);
  const auto segments = reader.segments();
  ASSERT_GT(segments.size(), 3U) << "rotation must have happened";
  std::uint64_t frames = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_TRUE(segments[i].sealed);
    EXPECT_LE(segments[i].t_min, segments[i].t_max);
    if (i > 0) {
      EXPECT_GE(segments[i].t_min, segments[i - 1].t_max)
          << "spans must be ordered and non-overlapping";
    }
    frames += segments[i].frames;
  }
  EXPECT_EQ(frames, kRecords);
  EXPECT_TRUE(reader.verify());

  auto cursor = reader.seek(0.0);
  EXPECT_EQ(drain_cursor(cursor).size(), kRecords);
}

TEST_F(SegmentStoreTest, RotatesByTime) {
  const auto dir = store_dir();
  river::SegmentStoreOptions options;
  options.max_segment_seconds = 1.0;
  river::SegmentedRecordLog log(dir, options);
  for (std::uint64_t i = 0; i < 40; ++i) {
    log.append(audio_record(i, 8), 0.1 * static_cast<double>(i));  // 4 s total
  }
  log.close();

  const auto segments = log.segments();
  ASSERT_EQ(segments.size(), 4U);
  for (const auto& s : segments) {
    EXPECT_LT(s.t_max - s.t_min, 1.0);
  }
}

TEST_F(SegmentStoreTest, ReaderSeesSealedSegmentsPlusSyncedActiveTail) {
  // Concurrent-reader contract, single-threaded: a reader opened while the
  // writer is live sees every sealed segment plus the synced prefix of the
  // active one — and a clean (not torn) end at the sync boundary.
  const auto dir = store_dir();
  river::SegmentedRecordLog log(dir);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.append(audio_record(i, 32), static_cast<double>(i));
  }
  log.seal_active();
  for (std::uint64_t i = 10; i < 15; ++i) {
    log.append(audio_record(i, 32), static_cast<double>(i));
  }
  log.sync();  // makes the 5 active-tail records visible on disk

  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    const auto got = drain_cursor(cursor);
    EXPECT_EQ(got.size(), 15U);
    EXPECT_FALSE(cursor.torn()) << "sync boundary is a clean end";
  }

  // More appends buffered in the writer (no sync): a fresh reader still
  // ends cleanly at the last complete on-disk frame.
  for (std::uint64_t i = 15; i < 18; ++i) {
    log.append(audio_record(i, 32), static_cast<double>(i));
  }
  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    const auto got = drain_cursor(cursor);
    EXPECT_GE(got.size(), 15U);
    EXPECT_LE(got.size(), 18U);
  }
  log.close();
}

// ---------------------------------------------------------------------------
// Seek: only overlapping segments, bounded scans
// ---------------------------------------------------------------------------

TEST_F(SegmentStoreTest, SeekTouchesOnlyOverlappingSegments) {
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    // 8 sealed segments, one per second: segment k spans [k, k + 0.9].
    for (std::uint64_t sec = 0; sec < 8; ++sec) {
      for (std::uint64_t i = 0; i < 10; ++i) {
        log.append(audio_record(sec * 10 + i, 16),
                   static_cast<double>(sec) + 0.1 * static_cast<double>(i));
      }
      log.seal_active();
    }
    log.close();
  }

  river::SegmentStoreReader reader(dir);
  ASSERT_EQ(reader.segments().size(), 8U);

  auto cursor = reader.seek(3.05, 5.5);
  const auto got = drain_cursor(cursor);
  // Records in [3.05, 5.5): 3.1..3.9 (9), 4.0..4.9 (10), 5.0..5.4 (5).
  EXPECT_EQ(got.size(), 9U + 10U + 5U);
  // Only segments 3, 4, 5 overlap the range; 0-2 and 6-7 must not be opened.
  EXPECT_EQ(reader.segments_opened(), 3U);

  // An empty range past the archive opens nothing.
  auto beyond = reader.seek(100.0, 200.0);
  Record rec;
  EXPECT_FALSE(beyond.next(rec));
  EXPECT_EQ(reader.segments_opened(), 3U);

  // The same bounds hold on the production replay path, whose cursor counts
  // into the same reader.
  river::SegmentStoreSource source(dir, 3.05, 5.5);
  (void)drain(source, 64);
  EXPECT_TRUE(source.clean());
  EXPECT_EQ(source.reader().segments_opened(), 3U);
  EXPECT_EQ(source.records_in(), 24U);
  river::SegmentStoreSource beyond_source(dir, 100.0, 200.0);
  EXPECT_TRUE(drain(beyond_source, 64).empty());
  EXPECT_EQ(beyond_source.reader().segments_opened(), 0U);
}

TEST_F(SegmentStoreTest, SparseIndexBoundsTheScanWithinASegment) {
  const auto dir = store_dir();
  river::SegmentStoreOptions options;
  options.index_every_bytes = 2 << 10;  // dense index: entry every ~4 records
  const std::uint64_t kRecords = 500;   // one big segment, ~230 KiB payload
  {
    river::SegmentedRecordLog log(dir, options);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      log.append(audio_record(i, 100), 0.01 * static_cast<double>(i));
    }
    log.close();
  }

  river::SegmentStoreReader reader(dir);
  ASSERT_EQ(reader.segments().size(), 1U);

  // Ten records from deep inside the segment: the index probe must land the
  // scan near t0, not at the head of the segment.
  auto cursor = reader.seek(4.0, 4.1);
  const auto got = drain_cursor(cursor);
  EXPECT_EQ(got.size(), 10U);
  // Bounded overshoot: range frames + one index granule (~4 records) + 1.
  EXPECT_LE(cursor.frames_scanned(), got.size() + 8U)
      << "scan must start at the index probe, not the segment head";
}

// ---------------------------------------------------------------------------
// Damage detection and crash recovery
// ---------------------------------------------------------------------------

TEST_F(SegmentStoreTest, SingleBitFlipAnywhereInASealedSegmentIsDetected) {
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    for (std::uint64_t i = 0; i < 12; ++i) {
      log.append(audio_record(i, 24), 0.1 * static_cast<double>(i));
    }
    log.close();
  }
  river::SegmentStoreReader reader(dir);
  ASSERT_TRUE(reader.verify());
  const auto path = dir / reader.segments()[0].name;
  ASSERT_GT(fs::file_size(path), river::kSegmentHeaderBytes +
                                     river::kSegmentFooterBytes);

  testsupport::sweep_file_bit_flips(
      path,
      [&](std::size_t at) {
        std::string error;
        EXPECT_FALSE(reader.verify(&error)) << "flip at byte " << at;
        EXPECT_FALSE(error.empty()) << "flip at byte " << at;
      },
      // header flags: reserved, unchecked
      [](std::size_t at) { return at == 6 || at == 7; });

  // The sweep restores the pristine file on exit.
  EXPECT_TRUE(reader.verify());
}

TEST_F(SegmentStoreTest, DamagedSealedSegmentSurfacesAsLostNotCrash) {
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(ramp(1000));
    archiver.finish();
    log.close();
  }
  river::SegmentStoreReader probe(dir);
  const auto path = dir / probe.segments()[0].name;
  {  // corrupt one payload byte mid-segment
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(512);
    const char x = 0x5A;
    f.write(&x, 1);
  }

  river::SegmentStoreSource source(dir);
  (void)drain(source, 256);
  EXPECT_FALSE(source.clean());
  EXPECT_TRUE(source.exhausted());
}

TEST_F(SegmentStoreTest, TornActiveSegmentRecoversValidPrefixAndContinues) {
  const auto dir = store_dir();
  // Fabricate the aftermath of a crash mid-append: an unsealed active
  // segment holding 3 complete envelopes and a torn fourth. (The writer
  // cannot produce this in-process — its destructor always seals — so the
  // file is built from the format constants.)
  fs::create_directories(dir);
  std::vector<Record> survivors;
  {
    std::ofstream out(dir / "seg-000000.drs", std::ios::binary);
    std::uint8_t header[river::kSegmentHeaderBytes] = {};
    std::memcpy(header, &river::kSegmentMagic, 4);
    std::memcpy(header + 4, &river::kSegmentVersion, 2);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (std::uint64_t i = 0; i < 3; ++i) {
      const Record rec = audio_record(i, 40);
      survivors.push_back(rec);
      const auto frame = river::encode_record(rec);
      const auto len = static_cast<std::uint32_t>(frame.size());
      const double t = static_cast<double>(i);
      out.write(reinterpret_cast<const char*>(&len), 4);
      out.write(reinterpret_cast<const char*>(&t), 8);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
    }
    // Torn tail: an envelope header promising 200 bytes, then only garbage.
    const std::uint32_t len = 200;
    const double t = 3.0;
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(&t), 8);
    const std::vector<char> garbage(17, '\x42');
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  river::SegmentedRecordLog log(dir);
  EXPECT_EQ(log.recovered_records(), 3U);
  ASSERT_EQ(log.segments().size(), 1U);
  EXPECT_TRUE(log.segments()[0].sealed) << "recovery seals the valid prefix";

  // The store keeps working: appends land in a new segment after the
  // recovered one, and everything reads back.
  log.append(audio_record(100, 40), 10.0);
  log.close();

  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), 4U);
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(got[i], survivors[i]) << "recovered record " << i;
  }
  EXPECT_EQ(got[3].sequence, 100U);
}

namespace {

/// The unsealed crash aftermath of the test above, written from the format
/// constants: 3 complete envelopes, then an envelope header promising 200
/// bytes followed by only 17 — a 29-byte torn tail. `magic` lets a caller
/// plant a header the reader cannot recognise.
void write_torn_active_segment(const fs::path& path,
                               std::uint32_t magic = river::kSegmentMagic) {
  std::ofstream out(path, std::ios::binary);
  std::uint8_t header[river::kSegmentHeaderBytes] = {};
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &river::kSegmentVersion, 2);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto frame = river::encode_record(audio_record(i, 40));
    const auto len = static_cast<std::uint32_t>(frame.size());
    const double t = static_cast<double>(i);
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(&t), 8);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  const std::uint32_t len = 200;
  const double t = 3.0;
  out.write(reinterpret_cast<const char*>(&len), 4);
  out.write(reinterpret_cast<const char*>(&t), 8);
  const std::vector<char> garbage(17, '\x42');
  out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
}

}  // namespace

TEST_F(SegmentStoreTest, ReadContractTornActiveTornHeaderAndSealedDamage) {
  // The reader contract, pinned on stores no log has reopened (so nothing
  // recovered them): a torn active tail ends a cursor cleanly with torn()
  // and the unreadable byte count; an unreadable active header loses the
  // whole file; damage in a sealed segment throws WireError, and so does a
  // sealed segment whose file retention deleted under the snapshot — again
  // on a retry, which must not skip on to the next segment. The replay
  // source reports all four as an unclean end.
  const auto torn_dir = temp_file("torn");
  fs::create_directories(torn_dir);
  write_torn_active_segment(torn_dir / "seg-000000.drs");

  const auto header_dir = temp_file("torn_header");
  fs::create_directories(header_dir);
  write_torn_active_segment(header_dir / "seg-000000.drs", 0x58585858);
  const auto header_file_bytes = fs::file_size(header_dir / "seg-000000.drs");

  const auto damaged_dir = temp_file("damaged");
  {
    river::SegmentedRecordLog log(damaged_dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(ramp(1000));
    archiver.finish();
    log.close();
  }
  {  // the byte-512 payload flip of DamagedSealedSegmentSurfacesAsLostNotCrash
    river::SegmentStoreReader probe(damaged_dir);
    std::fstream f(damaged_dir / probe.segments()[0].name,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(512);
    const char x = 0x5A;
    f.write(&x, 1);
  }

  const auto missing_dir = temp_file("missing");
  std::size_t first_segment_samples = 0;
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 4 << 10;
    river::SegmentedRecordLog log(missing_dir, options);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(ramp(10000));
    archiver.finish();
    log.close();
  }
  {  // retention deleting a file the manifest still names
    river::SegmentStoreReader probe(missing_dir);
    const auto segments = probe.segments();
    ASSERT_GT(segments.size(), 2U);
    first_segment_samples = segments[0].frames * 100;
    fs::remove(missing_dir / segments[1].name);
  }

  {
    river::SegmentStoreReader reader(torn_dir);
    auto cursor = reader.seek(0.0);
    const auto got = drain_cursor(cursor);
    ASSERT_EQ(got.size(), 3U);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(got[i].sequence, i);
    }
    EXPECT_TRUE(cursor.torn());
    EXPECT_EQ(cursor.lost_bytes(), 29U) << "12-byte envelope + 17 bytes";
  }
  {
    river::SegmentStoreReader reader(header_dir);
    auto cursor = reader.seek(0.0);
    EXPECT_TRUE(drain_cursor(cursor).empty());
    EXPECT_TRUE(cursor.torn());
    EXPECT_EQ(cursor.lost_bytes(), header_file_bytes);
  }
  {
    river::SegmentStoreReader reader(damaged_dir);
    auto cursor = reader.seek(0.0);
    EXPECT_THROW((void)drain_cursor(cursor), river::WireError);
  }
  {
    river::SegmentStoreReader reader(missing_dir);
    auto cursor = reader.seek(0.0);
    EXPECT_THROW((void)drain_cursor(cursor), river::WireError);
    EXPECT_THROW((void)drain_cursor(cursor), river::WireError)
        << "a retry skipped the missing segment";
  }

  for (const auto& dir : {torn_dir, header_dir, damaged_dir, missing_dir}) {
    river::SegmentStoreSource source(dir);
    const auto samples = drain(source, 256);
    EXPECT_TRUE(source.exhausted()) << dir.filename();
    EXPECT_FALSE(source.clean()) << dir.filename();
    if (dir == missing_dir) {
      EXPECT_EQ(samples.size(), first_segment_samples);
    }
  }
}

namespace {

/// `records` left unsealed in a fresh store's active segment, the i-th
/// stamped i * `step`: appended, synced, and read back before close() seals
/// them.
std::vector<std::uint8_t> synced_active_segment(
    const fs::path& dir, const std::vector<Record>& records, double step) {
  river::SegmentedRecordLog log(dir);
  for (std::size_t i = 0; i < records.size(); ++i) {
    log.append(records[i], step * static_cast<double>(i));
  }
  log.sync();
  auto bytes = testsupport::read_file_bytes(dir / "seg-000000.drs");
  log.close();
  return bytes;
}

/// Three records of `samples` samples each, stamped 0, 1, 2.
std::vector<std::uint8_t> synced_active_segment(const fs::path& dir,
                                                std::size_t samples) {
  return synced_active_segment(dir,
                               {audio_record(0, samples),
                                audio_record(1, samples),
                                audio_record(2, samples)},
                               1.0);
}

/// The file offset just past each envelope of a segment's payload, from
/// the header up to `payload_end`.
std::vector<std::size_t> envelope_ends(const std::vector<std::uint8_t>& bytes,
                                       std::size_t payload_end) {
  std::vector<std::size_t> ends;
  for (std::size_t pos = river::kSegmentHeaderBytes; pos < payload_end;) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    pos += river::kEnvelopeHeaderBytes + len;
    ends.push_back(pos);
  }
  return ends;
}

/// An unsealed segment of 40-sample records stamped `stamps`, written from
/// the format constants (the writer itself refuses such stamps).
std::vector<std::uint8_t> active_segment_bytes(
    const std::vector<double>& stamps) {
  std::vector<std::uint8_t> bytes(river::kSegmentHeaderBytes);
  std::memcpy(bytes.data(), &river::kSegmentMagic, 4);
  std::memcpy(bytes.data() + 4, &river::kSegmentVersion, 2);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    const auto frame = river::encode_record(audio_record(i, 40));
    const auto len = static_cast<std::uint32_t>(frame.size());
    std::uint8_t env[river::kEnvelopeHeaderBytes];
    std::memcpy(env, &len, 4);
    std::memcpy(env + 4, &stamps[i], 8);
    bytes.insert(bytes.end(), env, env + sizeof(env));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

/// What a cursor and crash recovery each make of one unsealed segment.
struct ActiveTailOutcome {
  std::size_t drained = 0;    ///< records the cursor served
  bool threw = false;         ///< the drain threw
  bool torn = false;          ///< cursor.torn() after the drain
  std::size_t recovered = 0;  ///< recovered_records() on reopen
  bool dropped = false;       ///< recovery kept fewer bytes than the file
};

/// Put `bytes` in a fresh store at `dir` as its only, active segment; drain
/// a cursor over it, then reopen the store and let recovery judge it.
ActiveTailOutcome read_then_recover(const fs::path& dir,
                                    const std::vector<std::uint8_t>& bytes) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  testsupport::write_file_bytes(dir / "seg-000000.drs", bytes);
  ActiveTailOutcome out;
  try {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(-kInf);
    Record rec;
    while (cursor.next(rec)) ++out.drained;
    out.torn = cursor.torn();
  } catch (const river::WireError&) {
    out.threw = true;
  }
  river::SegmentStoreOptions options;
  options.sync_on_seal = false;  // thousands of reopens; no crash under test
  river::SegmentedRecordLog log(dir, options);
  out.recovered = log.recovered_records();
  std::uint64_t kept = 0;
  for (const auto& s : log.segments()) kept += s.bytes;
  const std::uint64_t header = river::kSegmentHeaderBytes;
  const std::uint64_t payload = bytes.size() > header ? bytes.size() - header : 0;
  out.dropped = (!bytes.empty() && bytes.size() < header) || kept < payload;
  return out;
}

/// The agreement contract: an active tail never throws, a drain serves
/// exactly the records recovery keeps, and torn() is set exactly when
/// recovery drops bytes.
void expect_reader_agrees_with_recovery(const ActiveTailOutcome& got,
                                        const std::string& label) {
  EXPECT_FALSE(got.threw) << label;
  EXPECT_EQ(got.drained, got.recovered) << label;
  EXPECT_EQ(got.torn, got.dropped) << label;
}

}  // namespace

TEST_F(SegmentStoreTest, ActiveTailSingleBitFlipReaderAgreesWithRecovery) {
  // The corruption drill on an unsealed segment: any one-bit flip may cost
  // records, but a cursor must stop exactly where recovery truncates. A
  // reader that cleanly serves a record recovery later drops would make a
  // replay disagree with the archive it came from.
  const auto pristine = synced_active_segment(temp_file("flip_src"), 120);
  const auto probe = temp_file("flip_probe");
  const auto clean = read_then_recover(probe, pristine);
  EXPECT_EQ(clean.drained, 3U);
  expect_reader_agrees_with_recovery(clean, "pristine");
  EXPECT_FALSE(clean.torn);

  testsupport::sweep_bit_flips(
      pristine, [&](const std::vector<std::uint8_t>& damaged, std::size_t at) {
        expect_reader_agrees_with_recovery(
            read_then_recover(probe, damaged),
            "flip at byte " + std::to_string(at));
      });
}

TEST_F(SegmentStoreTest, ActiveTailTruncatedAtEveryByteReaderAgreesWithRecovery) {
  // Pure truncation is always a torn tail, never damage: every complete
  // record before the cut comes back without a throw, and recovery keeps
  // exactly those.
  const auto pristine = synced_active_segment(temp_file("cut_src"), 60);
  const auto ends = envelope_ends(pristine, pristine.size());
  ASSERT_EQ(ends.size(), 3U);
  ASSERT_EQ(ends.back(), pristine.size());

  const auto probe = temp_file("cut_probe");
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    const std::vector<std::uint8_t> bytes(
        pristine.begin(),
        pristine.begin() + static_cast<std::ptrdiff_t>(cut));
    const auto got = read_then_recover(probe, bytes);
    const auto label = "cut at byte " + std::to_string(cut);
    expect_reader_agrees_with_recovery(got, label);
    EXPECT_EQ(got.drained,
              static_cast<std::size_t>(std::count_if(
                  ends.begin(), ends.end(),
                  [&](std::size_t e) { return e <= cut; })))
        << label;
  }
}

TEST_F(SegmentStoreTest, ActiveTailStampBackwardsOrNotFiniteEndsWhereRecoveryDoes) {
  // Stamps 0, 1, then one below its predecessor or not finite, then 2.
  // Recovery keeps the first two records; a reader must serve exactly those
  // and report the rest as a torn tail.
  for (const double bad : {0.5, std::numeric_limits<double>::quiet_NaN(),
                           kInf, -kInf}) {
    const auto got = read_then_recover(temp_file("stamps"),
                                       active_segment_bytes({0.0, 1.0, bad, 2.0}));
    const auto label = "third stamp " + std::to_string(bad);
    expect_reader_agrees_with_recovery(got, label);
    EXPECT_EQ(got.drained, 2U) << label;
    EXPECT_TRUE(got.torn) << label;
  }
}

TEST_F(SegmentStoreTest, UnreadableOrphanSegmentFailsTheOpenAndStaysInPlace) {
  // Recovery drops only bytes it read and rejected. A segment file it cannot
  // open — a dangling symlink, unreadable even as root — must fail the
  // open, not be deleted as if it were an empty torn tail.
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    log.append(audio_record(0, 16), 0.0);
    log.close();
  }
  const auto orphan = dir / "seg-000001.drs";
  fs::create_symlink(dir / "no-such-target", orphan);
  EXPECT_THROW({ river::SegmentedRecordLog log(dir); }, std::runtime_error);
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(orphan)));
}

TEST_F(SegmentStoreTest, AdoptsSealedButUnmanifestedSegmentOnReopen) {
  // Crash window between footer write and manifest publish: on reopen the
  // orphan (index >= manifest next) is adopted, not deleted.
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    for (std::uint64_t i = 0; i < 6; ++i) {
      log.append(audio_record(i, 16), static_cast<double>(i));
    }
    log.close();
  }
  // Rewind the manifest to the fresh-store state, stranding seg-000000.
  {
    std::ofstream out(dir / "MANIFEST", std::ios::trunc);
    out << "dynriver-segment-store v1\nnext 0\n";
  }

  river::SegmentedRecordLog log(dir);
  ASSERT_EQ(log.segments().size(), 1U);
  EXPECT_EQ(log.segments()[0].frames, 6U);
  log.close();

  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  EXPECT_EQ(drain_cursor(cursor).size(), 6U);
}

TEST_F(SegmentStoreTest, ManifestedSegmentOnlyUnderTempNameFailsOpenAndRead) {
  // No segment file is ever renamed, so a manifest entry whose bytes exist
  // only as `<name>.tmp` is lost data: neither the log nor a reader may
  // adopt the temp in its place. A temp no manifest names is aborted work,
  // removed on a clean open.
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    for (std::uint64_t i = 0; i < 5; ++i) {
      if (i == 2) log.seal_active();  // seg-000000: 0, 1; seg-000001: 2..4
      log.append(audio_record(i, 16), static_cast<double>(i));
    }
    log.close();
  }
  const auto sealed = dir / "seg-000001.drs";
  const auto temp = dir / "seg-000001.drs.tmp";
  fs::rename(sealed, temp);
  const auto manifest = testsupport::read_file_bytes(dir / "MANIFEST");
  const auto temp_bytes = testsupport::read_file_bytes(temp);

  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    Record rec;
    std::vector<std::uint64_t> got;
    EXPECT_THROW(
        {
          while (cursor.next(rec)) got.push_back(rec.sequence);
        },
        river::WireError);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1}))
        << "records surfaced from the temp file";
  }

  EXPECT_THROW({ river::SegmentedRecordLog log(dir); }, std::runtime_error);
  EXPECT_FALSE(fs::exists(sealed));
  EXPECT_EQ(testsupport::read_file_bytes(temp), temp_bytes);
  EXPECT_EQ(testsupport::read_file_bytes(dir / "MANIFEST"), manifest);

  fs::rename(temp, sealed);
  const auto stray = dir / "seg-000002.drs.tmp";
  testsupport::write_file_bytes(stray, temp_bytes);
  {
    river::SegmentedRecordLog log(dir);
    EXPECT_EQ(log.segments().size(), 2U);
    log.close();
  }
  EXPECT_FALSE(fs::exists(stray));
  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  EXPECT_EQ(drain_cursor(cursor).size(), 5U);
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

TEST_F(SegmentStoreTest, RetireBeforeDropsWholeSegmentsAndTheirFiles) {
  const auto dir = store_dir();
  river::SegmentedRecordLog log(dir);
  for (std::uint64_t sec = 0; sec < 4; ++sec) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      log.append(audio_record(sec * 5 + i, 16),
                 static_cast<double>(sec) + 0.1 * static_cast<double>(i));
    }
    log.seal_active();
  }
  const auto names_before = log.segments();
  ASSERT_EQ(names_before.size(), 4U);

  EXPECT_EQ(log.retire_before(2.0), 2U);  // segments [0,0.4] and [1,1.4]
  EXPECT_EQ(log.retire_before(2.0), 0U);  // idempotent
  ASSERT_EQ(log.segments().size(), 2U);
  EXPECT_FALSE(fs::exists(dir / names_before[0].name));
  EXPECT_FALSE(fs::exists(dir / names_before[1].name));
  log.close();

  river::SegmentStoreReader reader(dir);
  EXPECT_TRUE(reader.verify());
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), 10U);
  EXPECT_EQ(got.front().sequence, 10U) << "retired records must be gone";
}

// A reader guesses the active file's name from its manifest snapshot's
// `next` index; retention can hand that very index to *older* records.
// Retire every sealed segment, reopen (the log then has no last time) and
// append stamps older than the snapshot's sealed tail: they land in `next`.
// This fixture reconstructs that view deterministically — no threads, no
// timing — by snapshotting a store directory, doing exactly that to the
// copy, and planting the sealed result beside the original (stale) manifest
// and sealed files.
class StaleReaderIndexReuse : public SegmentStoreTest {
 protected:
  static constexpr std::size_t kRecords = 32;  // 4 sealed segments x 8

  void build_store(const fs::path& dir) {
    river::SegmentedRecordLog log(dir);
    for (std::uint64_t sec = 0; sec < 4; ++sec) {
      for (std::uint64_t i = 0; i < 8; ++i) {
        log.append(audio_record(sec * 8 + i, 32),
                   static_cast<double>(sec) + 0.1 * static_cast<double>(i));
      }
      log.seal_active();
    }
    log.close();  // MANIFEST: seg-000000..03 sealed, next 4, no active file
  }

  /// Retire everything in a copy of `dir`, reopen it, append records older
  /// than the stale sealed tail (they take the stale manifest's `next` index
  /// — the name a stale reader presumes active) and plant that sealed file
  /// back into `dir`. Returns its name.
  std::string plant_older_segment(const fs::path& dir) {
    const auto shadow = temp_file("shadow");
    fs::copy(dir, shadow, fs::copy_options::recursive);
    {
      river::SegmentedRecordLog log(shadow);
      EXPECT_EQ(log.retire_before(kInf), 4U);
      log.close();
    }
    {
      river::SegmentedRecordLog log(shadow);
      for (std::uint64_t i = 0; i < 8; ++i) {
        log.append(audio_record(300 + i, 32),
                   0.5 + 0.1 * static_cast<double>(i));
      }
      log.seal_active();
      log.close();
    }
    const std::string older = "seg-000004.drs";
    EXPECT_TRUE(fs::exists(shadow / older));
    fs::copy_file(shadow / older, dir / older);
    return older;
  }
};

TEST_F(StaleReaderIndexReuse, CursorSkipsOlderDataPresumedActive) {
  const auto dir = store_dir();
  build_store(dir);
  plant_older_segment(dir);

  // The stale view: sealed list from the old manifest, plus seg-000004
  // presumed active — but it holds *older* records. Reading it as the live
  // tail would re-emit records with time running backwards.
  river::SegmentStoreReader reader(dir);
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);  // asserts time stays monotone
  EXPECT_FALSE(cursor.torn());
  ASSERT_EQ(got.size(), kRecords) << "older data re-read as live tail";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, i) << "record " << i;
  }
}

TEST_F(StaleReaderIndexReuse, ReplaySourceSkipsOlderDataPresumedActive) {
  const auto dir = store_dir();
  build_store(dir);
  plant_older_segment(dir);

  // Same stale view through the replay source (its cursor walks the
  // identical segment sequence and must apply the same probe).
  river::SegmentStoreSource source(dir);
  const auto samples = drain(source, 64);
  EXPECT_EQ(samples.size(), kRecords * 32)
      << "replay source re-read older data";
  EXPECT_EQ(source.records_in(), kRecords);
}

TEST_F(StaleReaderIndexReuse, SegmentSealedAfterSnapshotReadsAsSealed) {
  // The probe's other arm: the presumed-active file has a footer but its
  // span *continues* the sealed tail — the writer simply sealed it after
  // the reader's snapshot. It must read with sealed semantics (payload
  // only; the index/footer bytes are not a torn tail).
  const auto dir = store_dir();
  build_store(dir);
  const auto shadow = temp_file("shadow");
  fs::copy(dir, shadow, fs::copy_options::recursive);
  {
    // Newer records into the copy; seal makes seg-000004 a sealed segment.
    river::SegmentedRecordLog log(shadow);
    for (std::uint64_t i = 0; i < 8; ++i) {
      log.append(audio_record(100 + i, 32),
                 10.0 + 0.1 * static_cast<double>(i));
    }
    log.close();
  }
  const std::string newer = "seg-000004.drs";
  ASSERT_TRUE(fs::exists(shadow / newer));
  fs::copy_file(shadow / newer, dir / newer);

  river::SegmentStoreReader reader(dir);
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  EXPECT_FALSE(cursor.torn()) << "sealed tail misread as torn active file";
  ASSERT_EQ(got.size(), kRecords + 8);
  EXPECT_EQ(got.back().sequence, 107U);
}

TEST_F(StaleReaderIndexReuse, GenuinelyActiveFileStillReadsAsTail) {
  // Control: with no index reuse, the presumed-active file really is
  // the writer's live tail (no footer) and its synced records must surface.
  const auto dir = store_dir();
  build_store(dir);
  river::SegmentedRecordLog log(dir);  // reopen: next index 4 becomes active
  log.append(audio_record(200, 32), 20.0);
  log.sync();

  river::SegmentStoreReader reader(dir);
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), kRecords + 1);
  EXPECT_EQ(got.back().sequence, 200U);
}

// ---------------------------------------------------------------------------
// Replay: sample windows and bit-identity with live extraction
// ---------------------------------------------------------------------------

TEST_F(SegmentStoreTest, SubrangeReplayYieldsExactSampleWindow) {
  const auto dir = store_dir();
  const auto xs = ramp(3000);
  {
    river::SegmentedRecordLog log(dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(xs);
    archiver.finish();
    EXPECT_EQ(archiver.samples_archived(), xs.size());
    log.close();
  }

  // [0.5 s, 1.5 s) at 1 kHz in 100-sample records: exactly samples
  // [500, 1500), because record starts fall on range boundaries.
  river::SegmentStoreSource source(dir, 0.5, 1.5);
  const auto got = drain(source, 256);
  const std::vector<float> want(xs.begin() + 500, xs.begin() + 1500);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(source.clean());
  EXPECT_EQ(source.sample_rate(), 1000.0);  // learned from record attrs
}

TEST_F(SegmentStoreTest, ArchiverResumesAfterExistingArchive) {
  // Regression: a second archive run into the same store used to restart
  // the sample clock at 0, tripping the log's monotone-time contract on the
  // first append. It must continue where the previous run stopped.
  const auto dir = store_dir();
  const auto xs = ramp(1550);
  {
    river::SegmentedRecordLog log(dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    EXPECT_EQ(archiver.next_start_sample(), 0U);
    archiver.push(std::span<const float>(xs).subspan(0, 1000));
    archiver.finish();
    log.close();
  }
  {
    river::SegmentedRecordLog log(dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    EXPECT_EQ(archiver.next_start_sample(), 1000U);
    archiver.push(std::span<const float>(xs).subspan(1000));
    archiver.finish();
    EXPECT_EQ(archiver.samples_archived(), 550U);
    log.close();
  }

  // The two runs read back as one gapless stream, sequences continuing.
  river::SegmentStoreSource source(dir);
  EXPECT_EQ(drain(source, 256), xs);
  EXPECT_TRUE(source.clean());
  river::SegmentStoreReader reader(dir);
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), 16U);  // 10 + (5 full + 1 partial)
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, i) << "sequence must continue across runs";
  }
}

TEST_F(SegmentStoreTest, ArchiverRejectsSampleRateMismatchOnResume) {
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(ramp(500));
    archiver.finish();
    log.close();
  }
  river::SegmentedRecordLog log(dir);
  EXPECT_THROW(river::AudioSegmentArchiver(log, 2000.0, 100),
               std::runtime_error);
}

TEST_F(SegmentStoreTest, ReplayIsBitIdenticalToSingleSegmentAndLiveExtraction) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(60000, 11);
  const double rate = 21600.0;

  // Live extraction is the reference.
  const auto want = core::EnsembleExtractor(params).extract(xs);
  ASSERT_FALSE(want.ensembles.empty());

  // Single-segment replay: self-describing data records in one raw segment.
  const auto flat_dir = temp_file("flat");
  write_single_segment_store(flat_dir, xs, rate);

  // Segment-store replay, with rotation forced mid-stream.
  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 64 << 10;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, rate, 900);
    for (std::size_t pos = 0; pos < xs.size(); pos += 3333) {
      const std::size_t n = std::min<std::size_t>(3333, xs.size() - pos);
      archiver.push(std::span<const float>(xs).subspan(pos, n));
    }
    archiver.finish();
    log.close();
    ASSERT_GT(log.segments().size(), 1U) << "rotation must be exercised";
  }

  const auto replay = [&](river::SampleSource& source) {
    core::StreamSession session(params);
    river::CollectingEnsembleSink sink;
    core::run_stream(source, session, sink);
    return std::move(sink.ensembles);
  };

  river::SegmentStoreSource flat(flat_dir);
  expect_same_ensembles(replay(flat), want.ensembles, "single segment");
  ASSERT_TRUE(flat.clean());

  river::SegmentStoreSource segmented(dir);
  expect_same_ensembles(replay(segmented), want.ensembles, "segment store");
  ASSERT_TRUE(segmented.clean());
}

// ---------------------------------------------------------------------------
// Packed payloads: size floor, bit-identity, mixed stores, damage drills
// ---------------------------------------------------------------------------

namespace {

/// The PCM16 grid the WAV/ADC path produces: n/32768 with n = round(v*32767).
float quantize_pcm16(float v) {
  const float c = std::clamp(v, -1.0F, 1.0F);
  return static_cast<float>(std::lround(c * 32767.0F)) / 32768.0F;
}

std::vector<float> quantized_signal_with_events(std::size_t n, unsigned seed) {
  auto xs = random_signal_with_events(n, seed);
  for (auto& x : xs) x = quantize_pcm16(x);
  return xs;
}

void expect_bit_identical(const std::vector<float>& got,
                          const std::vector<float>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t gb = 0;
    std::uint32_t wb = 0;
    std::memcpy(&gb, &got[i], 4);
    std::memcpy(&wb, &want[i], 4);
    ASSERT_EQ(gb, wb) << label << " sample " << i;
  }
}

/// Archive `xs` into `dir` (one run, sealed on close) and return the summed
/// sealed payload bytes.
std::uint64_t archive_and_measure(const fs::path& dir,
                                  const std::vector<float>& xs, bool pack) {
  river::SegmentStoreOptions options;
  options.pack_payloads = pack;
  river::SegmentedRecordLog log(dir, options);
  river::AudioSegmentArchiver archiver(log, 21600.0, 900);
  archiver.push(xs);
  archiver.finish();
  log.close();
  std::uint64_t bytes = 0;
  for (const auto& s : log.segments()) bytes += s.bytes;
  return bytes;
}

}  // namespace

TEST_F(SegmentStoreTest, PackedStoreIsAtLeastThreefoldSmallerOnStationAudio) {
  // The acceptance floor, measured at the store level: the same PCM16-grid
  // station clip archived packed vs raw, identical chunking and rotation.
  dynriver::synth::SensorStation station({}, 77);
  const auto clip = station.record_clip({dynriver::synth::SpeciesId::kAMGO,
                                         dynriver::synth::SpeciesId::kBCCH});
  std::vector<float> xs(clip.clip.samples.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = quantize_pcm16(clip.clip.samples[i]);
  }
  const auto raw_bytes = archive_and_measure(temp_file("raw"), xs, false);
  const auto packed_bytes = archive_and_measure(temp_file("packed"), xs, true);
  EXPECT_GE(raw_bytes, 3 * packed_bytes)
      << "ratio " << static_cast<double>(raw_bytes) /
                         static_cast<double>(packed_bytes);

  // And the packed store reads back bit-identically.
  river::SegmentStoreSource source(temp_file("packed"));
  expect_bit_identical(drain(source, 256), xs, "packed replay");
  EXPECT_TRUE(source.clean());
  river::SegmentStoreReader reader(temp_file("packed"));
  EXPECT_TRUE(reader.verify());
}

TEST_F(SegmentStoreTest, PackedReplayBitIdenticalEveryChunkingAndBothPaths) {
  // Replay of a packed, multi-segment store must be sample-exact for every
  // read chunking.
  const auto xs = quantized_signal_with_events(30000, 23);
  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 16 << 10;  // force many segments
    options.pack_payloads = true;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, 21600.0, 900);
    archiver.push(xs);
    archiver.finish();
    log.close();
    ASSERT_GT(log.segments().size(), 2U) << "rotation must be exercised";
  }

  for (const std::size_t chunk : {7U, 64U, 256U, 900U, 1024U, 4096U}) {
    river::SegmentStoreSource source(dir);
    expect_bit_identical(drain(source, chunk), xs, "prefetched");
    EXPECT_TRUE(source.clean()) << "chunk=" << chunk;
  }
}

TEST_F(SegmentStoreTest, PackedReplayExtractionMatchesLiveAndSingleSegment) {
  // The tentpole pin: compressed, multi-segment replay drives extraction to
  // the same ensembles as live extraction and as a raw single-segment
  // replay.
  const auto params = small_params();
  const auto xs = quantized_signal_with_events(60000, 11);
  const double rate = 21600.0;

  const auto want = core::EnsembleExtractor(params).extract(xs);
  ASSERT_FALSE(want.ensembles.empty());

  const auto flat_dir = temp_file("flat");
  write_single_segment_store(flat_dir, xs, rate);

  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 16 << 10;
    options.pack_payloads = true;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, rate, 900);
    archiver.push(xs);
    archiver.finish();
    log.close();
    ASSERT_GT(log.segments().size(), 1U);
  }

  const auto replay = [&](river::SampleSource& source) {
    core::StreamSession session(params);
    river::CollectingEnsembleSink sink;
    core::run_stream(source, session, sink);
    return std::move(sink.ensembles);
  };

  river::SegmentStoreSource flat(flat_dir);
  expect_same_ensembles(replay(flat), want.ensembles, "single segment");
  ASSERT_TRUE(flat.clean());

  river::SegmentStoreSource prefetched(dir);
  expect_same_ensembles(replay(prefetched), want.ensembles, "packed prefetch");
  ASSERT_TRUE(prefetched.clean());
}

TEST_F(SegmentStoreTest, MixedPackedAndRawSegmentsReplay) {
  // Packing is a per-writer-session choice: raw and packed frames interleave
  // in one store, and a reader replays both.
  const auto dir = store_dir();
  std::vector<Record> written;
  const auto run = [&](bool pack, std::uint64_t first_seq, double first_t) {
    river::SegmentStoreOptions options;
    options.pack_payloads = pack;
    river::SegmentedRecordLog log(dir, options);
    for (std::uint64_t i = 0; i < 8; ++i) {
      const Record rec = audio_record(first_seq + i, 64);
      log.append(rec, first_t + 0.1 * static_cast<double>(i));
      written.push_back(rec);
    }
    log.close();
  };
  run(false, 0, 0.0);
  run(true, 8, 1.0);
  run(false, 16, 2.0);

  river::SegmentStoreReader reader(dir);
  std::string error;
  EXPECT_TRUE(reader.verify(&error)) << error;
  auto cursor = reader.seek(0.0);
  const auto got = drain_cursor(cursor);
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], written[i]) << "record " << i;
  }
}

TEST_F(SegmentStoreTest, PackedSealedSegmentSingleBitFlipIsDetected) {
  // The CRC covers the *stored* (packed) bytes: any flip in a packed sealed
  // segment must fail verify(), exactly like the raw sweep above.
  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.pack_payloads = true;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    std::vector<float> xs(600);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = quantize_pcm16(std::sin(static_cast<float>(i) * 0.01F));
    }
    archiver.push(xs);
    archiver.finish();
    log.close();
  }
  river::SegmentStoreReader reader(dir);
  ASSERT_TRUE(reader.verify());
  const auto path = dir / reader.segments()[0].name;

  testsupport::sweep_file_bit_flips(
      path,
      [&](std::size_t at) {
        std::string error;
        EXPECT_FALSE(reader.verify(&error)) << "flip at byte " << at;
      },
      // header flags: reserved, unchecked
      [](std::size_t at) { return at == 6 || at == 7; });
  EXPECT_TRUE(reader.verify());
}

TEST_F(SegmentStoreTest, DamagedOrTruncatedPackedStoreSurfacesAsLostNotCrash) {
  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.pack_payloads = true;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, 1000.0, 100);
    archiver.push(ramp(2000));
    archiver.finish();
    log.close();
  }
  river::SegmentStoreReader probe(dir);
  const auto path = dir / probe.segments()[0].name;
  const auto pristine_size = fs::file_size(path);

  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }

  {  // bit-flip drill
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(200);
    const char x = 0x5A;
    f.write(&x, 1);
  }
  {
    river::SegmentStoreSource source(dir);
    (void)drain(source, 256);
    EXPECT_FALSE(source.clean());
    EXPECT_TRUE(source.exhausted());
  }

  {  // truncate drill: a sealed segment cut mid-payload loses its footer
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(),
              static_cast<std::streamsize>(pristine_size / 2));
  }
  std::string error;
  EXPECT_FALSE(probe.verify(&error));
  EXPECT_FALSE(error.empty());
  river::SegmentStoreSource source(dir);
  (void)drain(source, 256);
  EXPECT_FALSE(source.clean());
  EXPECT_TRUE(source.exhausted());
}

TEST_F(SegmentStoreTest, SchedulerReplayStationMatchesLiveExtraction) {
  const auto params = small_params();
  const auto xs = random_signal_with_events(60000, 29);
  const auto want = core::EnsembleExtractor(params).extract(xs);
  ASSERT_FALSE(want.ensembles.empty());

  const auto dir = store_dir();
  {
    river::SegmentStoreOptions options;
    options.max_segment_bytes = 64 << 10;
    river::SegmentedRecordLog log(dir, options);
    river::AudioSegmentArchiver archiver(log, 21600.0, 900);
    archiver.push(xs);
    archiver.finish();
    log.close();
  }

  core::SessionScheduler scheduler;
  auto sink = std::make_shared<river::CollectingEnsembleSink>();
  core::StationConfig config;
  config.params = params;
  core::add_replay_station(scheduler, "backfill", dir, 0.0, kInf, sink,
                           config);
  scheduler.run();

  expect_same_ensembles(sink->ensembles, want.ensembles, "scheduler replay");
  const auto stats = scheduler.stats();
  ASSERT_EQ(stats.stations.size(), 1U);
  EXPECT_TRUE(stats.stations[0].finished);
  EXPECT_EQ(stats.stations[0].samples_dropped, 0U);
}

// ---------------------------------------------------------------------------
// Chunked windows: a cursor reads each segment through one bounded chunk
// ---------------------------------------------------------------------------

namespace {

/// Records of uneven sizes (about 3-10 KiB of frame each), so frames
/// straddle the ends of a window's chunks, plus one frame at `big_at` that
/// is larger than a chunk. Stamped by chunked_stamp() (0.01 s apart).
std::vector<Record> uneven_records(std::size_t count, std::size_t big_at) {
  std::vector<Record> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = i == big_at ? 100000 : 700 + (i * 397) % 1900;
    out.push_back(audio_record(i, n));
  }
  return out;
}

double chunked_stamp(std::size_t i) { return 0.01 * static_cast<double>(i); }

/// `records` stamped by chunked_stamp(), sealed in one segment at `dir`.
void write_sealed_store(const fs::path& dir, const std::vector<Record>& records) {
  river::SegmentedRecordLog log(dir);
  for (std::size_t i = 0; i < records.size(); ++i) {
    log.append(records[i], chunked_stamp(i));
  }
  log.close();
}

constexpr std::size_t kChunkScale = 256 << 10;  // the reader's chunk size

}  // namespace

TEST_F(SegmentStoreTest, ChunkedReadsServeEveryRecordAcrossChunkEnds) {
  // About 2 MiB in one segment, read sealed and read as a synced active
  // tail: every record comes back whole, the one larger than a chunk too.
  const auto written = uneven_records(300, 150);
  const auto dir = store_dir();
  {
    river::SegmentedRecordLog log(dir);
    for (std::size_t i = 0; i < written.size(); ++i) {
      log.append(written[i], chunked_stamp(i));
    }
    log.sync();
    river::SegmentStoreReader reader(dir);
    ASSERT_EQ(reader.segments().size(), 1U);
    ASSERT_FALSE(reader.segments()[0].sealed);
    ASSERT_GT(reader.segments()[0].bytes, 6 * kChunkScale);
    auto cursor = reader.seek(0.0);
    EXPECT_EQ(drain_cursor(cursor), written) << "active tail";
    EXPECT_FALSE(cursor.torn());
    log.close();
  }
  river::SegmentStoreReader reader(dir);
  ASSERT_EQ(reader.segments().size(), 1U);
  ASSERT_TRUE(reader.segments()[0].sealed);
  auto cursor = reader.seek(0.0);
  EXPECT_EQ(drain_cursor(cursor), written) << "sealed";
  EXPECT_EQ(cursor.frames_scanned(), written.size());
}

TEST_F(SegmentStoreTest, SparseIndexSeekStartsMidSegmentAcrossChunks) {
  // The index probe starts the window deep inside the segment; the ranges
  // cross chunk ends and the frame larger than a chunk.
  const auto written = uneven_records(300, 150);
  const auto dir = store_dir();
  write_sealed_store(dir, written);
  river::SegmentStoreReader reader(dir);
  ASSERT_EQ(reader.segments().size(), 1U);
  for (const auto& [first, last] : {std::pair<std::size_t, std::size_t>{200, 300},
                                    {120, 180},
                                    {151, 152},
                                    {299, 300}}) {
    auto cursor = reader.seek(chunked_stamp(first) - 0.001,
                              chunked_stamp(last) - 0.001);
    const std::vector<Record> want(
        written.begin() + static_cast<std::ptrdiff_t>(first),
        written.begin() + static_cast<std::ptrdiff_t>(last));
    EXPECT_EQ(drain_cursor(cursor), want) << first << ".." << last;
    // One 64 KiB index granule holds at most ~25 of these records.
    EXPECT_LE(cursor.frames_scanned(), want.size() + 26U)
        << first << ".." << last << ": the scan started at the segment head";
  }
}

TEST_F(SegmentStoreTest, CorruptByteInALaterChunkOfASealedSegmentFailsClosed) {
  // A flipped frame byte three chunks into a sealed segment: the records
  // before it come back, then the cursor throws, again on a retry, and the
  // replay source ends unclean.
  const auto written = uneven_records(300, 150);
  const auto dir = store_dir();
  write_sealed_store(dir, written);
  const auto segment = river::SegmentStoreReader(dir).segments()[0];
  const auto path = dir / segment.name;
  auto bytes = testsupport::read_file_bytes(path);
  const auto ends =
      envelope_ends(bytes, river::kSegmentHeaderBytes + segment.bytes);
  ASSERT_EQ(ends.size(), written.size());
  // Envelope `damaged` is the first to start past three chunks; flip a byte
  // in the middle of its frame.
  const auto damaged = static_cast<std::size_t>(
      std::upper_bound(ends.begin(), ends.end(), 3 * kChunkScale) -
      ends.begin()) + 1;
  ASSERT_LT(damaged, ends.size());
  bytes[(ends[damaged - 1] + ends[damaged]) / 2] ^= 0x10;
  testsupport::write_file_bytes(path, bytes);

  river::SegmentStoreReader reader(dir);
  EXPECT_FALSE(reader.verify());
  auto cursor = reader.seek(0.0);
  std::vector<Record> got;
  Record rec;
  EXPECT_THROW(
      {
        while (cursor.next(rec)) got.push_back(rec);
      },
      river::WireError);
  EXPECT_EQ(got, std::vector<Record>(
                     written.begin(),
                     written.begin() + static_cast<std::ptrdiff_t>(damaged)));
  EXPECT_THROW((void)cursor.next(rec), river::WireError) << "retry";

  river::SegmentStoreSource source(dir);
  (void)drain(source, 4096);
  EXPECT_TRUE(source.exhausted());
  EXPECT_FALSE(source.clean());
}

TEST_F(SegmentStoreTest, ActiveTailLongerThanAChunkKeepsTornAndLostBytes) {
  // The 29-byte torn tail of ReadContractTornActiveTornHeaderAndSealedDamage,
  // after some 2 MiB of complete records: the cursor serves them all, then
  // reports the same torn bytes, and agrees with recovery.
  const auto written = uneven_records(300, 150);
  auto bytes = synced_active_segment(temp_file("src"), written, 0.01);
  ASSERT_GT(bytes.size(), 6 * kChunkScale);
  const std::uint32_t len = 200;
  const double t = 10.0;
  bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&len),
               reinterpret_cast<const std::uint8_t*>(&len) + 4);
  bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&t),
               reinterpret_cast<const std::uint8_t*>(&t) + 8);
  bytes.insert(bytes.end(), 17, 0x42);

  const auto dir = temp_file("torn");
  fs::create_directories(dir);
  testsupport::write_file_bytes(dir / "seg-000000.drs", bytes);
  {
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    EXPECT_EQ(drain_cursor(cursor), written);
    EXPECT_TRUE(cursor.torn());
    EXPECT_EQ(cursor.lost_bytes(), 29U) << "12-byte envelope + 17 bytes";
  }
  const auto got = read_then_recover(temp_file("probe"), bytes);
  expect_reader_agrees_with_recovery(got, "long torn tail");
  EXPECT_EQ(got.drained, written.size());
}

TEST_F(SegmentStoreTest, ActiveTailTruncatedBetweenTwoNextCallsReadsAsTorn) {
  // The window is a snapshot of the statted size, read a chunk at a time.
  // A file cut after the first next() must end the cursor torn, with every
  // record it served whole and in order and the bytes it could not read
  // counted, and without a throw — at a frame's middle and at an envelope
  // boundary alike.
  const auto written = uneven_records(300, 150);
  const auto pristine = synced_active_segment(temp_file("src"), written, 0.01);
  const auto ends = envelope_ends(pristine, pristine.size());
  ASSERT_EQ(ends.size(), written.size());
  ASSERT_EQ(ends.back(), pristine.size());
  const auto boundary = *std::upper_bound(ends.begin(), ends.end(),
                                          2 * kChunkScale + 1000);
  for (const std::size_t cut : {2 * kChunkScale + 1000, boundary}) {
    const auto dir = temp_file("cut" + std::to_string(cut));
    fs::create_directories(dir);
    const auto path = dir / "seg-000000.drs";
    testsupport::write_file_bytes(path, pristine);
    river::SegmentStoreReader reader(dir);
    auto cursor = reader.seek(0.0);
    Record rec;
    ASSERT_TRUE(cursor.next(rec));
    std::vector<Record> got{rec};
    fs::resize_file(path, cut);
    EXPECT_NO_THROW({
      while (cursor.next(rec)) got.push_back(rec);
    }) << "cut at " << cut;

    const auto whole = static_cast<std::size_t>(std::count_if(
        ends.begin(), ends.end(), [&](std::size_t e) { return e <= cut; }));
    EXPECT_EQ(got, std::vector<Record>(
                       written.begin(),
                       written.begin() + static_cast<std::ptrdiff_t>(whole)))
        << "cut at " << cut;
    EXPECT_TRUE(cursor.torn()) << "cut at " << cut;
    EXPECT_EQ(cursor.lost_bytes(), pristine.size() - ends[whole - 1])
        << "cut at " << cut;
  }
}
