// Harness: segment-store opening, verification, replay, and recovery over a
// fuzzer-synthesized directory.
//
// The input unpacks as a mini-archive (see segment_archive.hpp) into a
// scratch store directory — MANIFEST text, sealed segment files, tmp files —
// then the read side runs the full gauntlet: SegmentStoreReader listing +
// verify() + a seek/drain, a SegmentStoreSource replay of the same range, and
// SegmentedRecordLog crash recovery opening the same directory. Contract:
// hostile store bytes surface as clean errors (runtime_error / WireError) or
// clean torn-tail reports, never as a crash, a hang, or an attacker-sized
// allocation — and the replay path the scheduler uses agrees with the
// cursor: a cursor drain that ends cleanly replays cleanly to exactly the
// cursor's audio samples, and any other end replays as unclean. And on an
// unsealed single-segment store, a cursor and recovery judge the same bytes
// by the same rules: a full drain serves exactly the records recovery keeps
// and reports torn() exactly when recovery drops bytes. Corpus seeds are
// real stores serialized by corpus_gen, so coverage starts deep inside the
// happy path.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fuzz_support.hpp"
#include "river/segment_store.hpp"
#include "segment_archive.hpp"

namespace rv = dynriver::river;
namespace fz = dynriver::fuzz;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static fz::ScratchDir scratch;
  const auto& dir = scratch.reset();
  fz::unpack_archive(data, size, dir);

  constexpr std::size_t kMaxRecords = 100000;  // plenty for any corpus store

  // The reader/recovery agreement applies when the store is one unsealed
  // segment file and nothing else (no MANIFEST): a full cursor drain here,
  // recovery's verdict below.
  const auto tail_path = dir / "seg-000000.drs";
  bool single = false;
  std::uintmax_t tail_size = 0;
  {
    std::size_t entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++entries;
    }
    std::error_code ec;
    single = entries == 1 && std::filesystem::is_regular_file(tail_path, ec);
    if (single) tail_size = std::filesystem::file_size(tail_path);
  }
  std::size_t tail_drained = 0;
  bool tail_torn = false;
  bool tail_threw = false;
  if (single) {
    try {
      rv::SegmentStoreReader reader(dir);
      auto cursor = reader.seek(-std::numeric_limits<double>::infinity());
      rv::Record rec;
      while (single && cursor.next(rec)) {
        single = ++tail_drained <= kMaxRecords;
      }
      tail_torn = cursor.torn();
    } catch (const std::runtime_error&) {
      tail_threw = true;
    }
  }

  // Read side: listing, integrity check, bounded drain.
  bool opened = false;   // the MANIFEST parsed
  bool bounded = false;  // the drain stopped at kMaxRecords, not at the end
  bool clean = false;    // ...or ended without a throw and without torn()
  std::vector<float> audio;  // the cursor's audio kData payloads, in order
  try {
    rv::SegmentStoreReader reader(dir);
    opened = true;
    (void)reader.segments();
    std::string error;
    (void)reader.verify(&error);
    auto cursor = reader.seek(0.0);
    rv::Record rec;
    std::size_t drained = 0;
    while (cursor.next(rec)) {
      if (++drained > kMaxRecords) {
        bounded = true;
        break;
      }
      if (rec.type == rv::RecordType::kData &&
          rec.subtype == rv::kSubtypeAudio && rec.is_float()) {
        const auto& xs = std::get<rv::FloatVec>(rec.payload);
        audio.insert(audio.end(), xs.begin(), xs.end());
      }
    }
    (void)cursor.lost_bytes();
    clean = !cursor.torn();
  } catch (const std::runtime_error&) {
    // Damaged manifest / sealed segment: the documented failure mode
    // (WireError is a runtime_error too).
  }

  // Replay side: the same range through the replay source.
  if (!bounded) {
    try {
      rv::SegmentStoreSource source(dir);
      FUZZ_CHECK(opened);
      std::vector<float> samples;
      std::vector<float> buf(4096);
      while (source.records_in() <= kMaxRecords) {
        const std::size_t n = source.read(buf);
        if (n == 0) break;
        samples.insert(samples.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
      FUZZ_CHECK(source.exhausted());
      FUZZ_CHECK(source.clean() == clean);
      if (clean) {
        FUZZ_CHECK(samples.size() == audio.size());
        FUZZ_CHECK(samples.empty() ||
                   std::memcmp(samples.data(), audio.data(),
                               samples.size() * sizeof(float)) == 0);
      }
    } catch (const std::runtime_error&) {
      FUZZ_CHECK(!opened);  // only the MANIFEST may fail the source
    }
  }

  // Write side: crash recovery must adopt, truncate, or reject — cleanly.
  try {
    rv::SegmentedRecordLog log(dir);
    const auto segments = log.segments();
    // A file with a valid footer is adopted as sealed (and read with sealed
    // semantics); anything else was scanned as a torn tail.
    if (single && (segments.empty() || log.recovered_records() > 0)) {
      const std::uint64_t header = rv::kSegmentHeaderBytes;
      const std::uint64_t kept = segments.empty() ? 0 : segments[0].bytes;
      const bool dropped = (tail_size > 0 && tail_size < header) ||
                           (tail_size > header && kept < tail_size - header);
      FUZZ_CHECK(!tail_threw);
      FUZZ_CHECK(tail_drained == log.recovered_records());
      FUZZ_CHECK(tail_torn == dropped);
    }
    rv::Record rec;
    rec.payload = rv::FloatVec{0.25F, -0.5F};
    // Append strictly after whatever times recovery adopted (the store
    // rejects non-finite archived times, so this maximum is finite).
    log.append(rec, std::max(1e9, log.last_time()));
    log.close();
  } catch (const std::runtime_error&) {
  }
  return 0;
}
