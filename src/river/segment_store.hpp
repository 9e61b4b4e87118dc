// Segment store: the one durable format for record streams, from one
// clip's readout (a single segment) to months of hydrophone audio.
//
// SegmentedRecordLog rotates a record stream (each record stamped with a
// stream time) into immutable *sealed* segments plus one append-only
// *active* segment:
//
//   store directory
//   ├── MANIFEST            atomic snapshot of the sealed segment list
//   ├── seg-000000.drs      sealed: payload + sparse time index + footer
//   ├── seg-000001.drs      sealed
//   └── seg-000002.drs      active: payload only, growing
//
// Segment file layout (all integers little-endian):
//   header   magic 'DRSG' u32 | version u16 | flags u16            (8 bytes)
//   payload  N x envelope: len u32 | t f64 | wire frame (len bytes)
//   -- sealing appends --
//   index    M x entry: t f64 | file offset u64  (sparse, ~1/64 KiB)
//   footer   frames u64 | payload_end u64 | index_count u32 |
//            version u16 | flags u16 | t_min f64 | t_max f64 |
//            payload_crc u32 | footer_crc u32 | magic 'DRSF' u32   (52 bytes)
//
// payload_crc is CRC32C over the whole envelope region; footer_crc covers
// the index region plus the footer up to itself, so every byte after the
// 8-byte header is checksummed. Readers locate the footer at EOF - 52.
//
// One envelope rule (detail::parse_envelope) decides where a payload's
// valid part ends, for readers and recovery alike: 0 < len <=
// kMaxSegmentFrameBytes, the frame fits in the bytes left, and the stamp is
// finite and not below the one before it. A frame must also decode as
// exactly `len` bytes of wire frame.
//
// Guarantees:
//   - seek(t0, t1) is O(log segments) manifest search + one index probe +
//     a bounded scan; only segments overlapping [t0, t1) are ever opened.
//   - Readers are safe concurrently with the writer's append/seal: they
//     see the sealed list through the atomically-renamed MANIFEST plus a
//     bounded snapshot of the active tail (complete frames only; in-flight
//     bytes surface as a torn tail). A reader drains exactly the records
//     recovery would keep from the same active tail.
//     retire_before() DELETES files, however: a reader opened before such a
//     call may fail once a file its snapshot references is gone — re-seek
//     afterwards. Retention can also hand a stale reader's presumed-active
//     index to older records: retire every sealed segment, reopen (the log
//     then has no last time) and append older stamps. The reader probes the
//     file and skips it (detail::probe_presumed_active).
//   - Crash recovery on reopen adopts any sealed-but-unmanifested segment,
//     truncates the active segment to its valid prefix and seals what
//     survived — all with bounded memory. A manifest entry whose file is
//     missing, or a segment file it cannot read, fails the open; only bytes
//     that were read and failed the rules are dropped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "river/record.hpp"
#include "river/sample_io.hpp"
#include "river/wire.hpp"

namespace dynriver::river {
class SegmentStoreReader;
}  // namespace dynriver::river

namespace dynriver::river {

/// CRC-32C (Castagnoli polynomial, reflected — the storage-grade CRC with
/// better burst detection than IEEE 802.3). Chainable via `seed`.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                                   std::uint32_t seed = 0);

inline constexpr std::uint32_t kSegmentMagic = 0x44525347;        // "DRSG"
inline constexpr std::uint32_t kSegmentFooterMagic = 0x44525346;  // "DRSF"
inline constexpr std::uint16_t kSegmentVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 8;
inline constexpr std::size_t kSegmentFooterBytes = 52;
inline constexpr std::size_t kEnvelopeHeaderBytes = 12;  // len u32 + t f64
/// Upper bound on one wire frame inside a segment; a larger length field in
/// an envelope header is treated as corruption, bounding recovery memory.
inline constexpr std::uint32_t kMaxSegmentFrameBytes = 1u << 30;

struct SegmentStoreOptions {
  /// Seal the active segment once its payload reaches this size.
  std::uint64_t max_segment_bytes = 8ull << 20;
  /// Also seal once the active segment spans this much stream time
  /// (0 disables time-based rotation).
  double max_segment_seconds = 0.0;
  /// Sparse index granularity: one entry per this many payload bytes.
  std::uint64_t index_every_bytes = 64ull << 10;
  /// fsync each segment on seal and the manifest on every rewrite.
  bool sync_on_seal = true;
  /// Encode float payloads through the bit-packing codec (river/bitpack.hpp)
  /// on append: lossless — replay is bit-identical — and typically 3-5x
  /// smaller for ADC-quantized audio. Packed and raw frames interleave
  /// freely within one store, so reopening an old raw store with packing
  /// on (or vice versa) simply yields a mixed store every reader handles.
  bool pack_payloads = false;
};

/// One segment as listed by the manifest (sealed) or observed live (active).
struct SegmentInfo {
  std::string name;            ///< file name within the store directory
  std::uint64_t frames = 0;    ///< record count (sealed only)
  std::uint64_t bytes = 0;     ///< payload bytes (header excluded)
  double t_min = 0.0;          ///< stream time of the first record
  double t_max = 0.0;          ///< stream time of the last record
  std::uint32_t payload_crc = 0;
  bool sealed = false;
};

/// Rotating writer: appends time-stamped records, seals segments by
/// size/time, maintains the manifest, recovers from crashes on reopen.
/// Stream time must be non-decreasing across appends.
///
/// All public methods are serialized by an internal mutex, so another thread
/// may run retire_before() while the owning thread keeps appending.
class SegmentedRecordLog {
 public:
  explicit SegmentedRecordLog(const std::filesystem::path& dir,
                              SegmentStoreOptions options = {});
  ~SegmentedRecordLog();
  SegmentedRecordLog(const SegmentedRecordLog&) = delete;
  SegmentedRecordLog& operator=(const SegmentedRecordLog&) = delete;

  /// Append one record at stream time `t` (seconds, non-decreasing).
  void append(const Record& rec, double t);

  /// Flush + fsync the active segment: everything appended so far survives
  /// process death (readers may then tail it torn-free).
  void sync();

  /// Seal the active segment now (no-op when it is empty): write its index
  /// and footer, fsync, and publish it in the manifest.
  void seal_active();

  /// Seal and stop. Throws if buffered bytes could not be made durable.
  /// The destructor closes best-effort instead.
  void close();

  /// Retention: drop sealed segments whose whole span ends before `t`.
  /// Returns the number of segments removed.
  std::size_t retire_before(double t);

  [[nodiscard]] std::size_t records_written() const;
  /// Complete frames preserved from a torn active segment on reopen.
  [[nodiscard]] std::size_t recovered_records() const;
  /// Stream time of the newest appended record (-inf when none yet).
  [[nodiscard]] double last_time() const;
  /// Sealed segments (manifest order) plus the active one, if any.
  [[nodiscard]] std::vector<SegmentInfo> segments() const;
  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }

 private:
  /// A segment being grown: the writer's active segment or the valid prefix
  /// recovery scans.
  struct ActiveSegment {
    std::FILE* file = nullptr;
    std::uint64_t index = 0;  ///< numeric suffix of the file name
    std::uint64_t frames = 0;
    std::uint64_t payload_bytes = 0;
    double t_min = 0.0;
    double t_max = 0.0;
    std::uint32_t crc = 0;
    std::uint64_t last_index_bytes = 0;
    std::vector<std::pair<double, std::uint64_t>> index_entries;

    /// Stamp floor of the next envelope under the envelope rule.
    [[nodiscard]] double floor_t() const {
      return frames == 0 ? -std::numeric_limits<double>::infinity() : t_max;
    }
    /// Count one envelope that now ends the payload: its sparse-index entry,
    /// the CRC chain, the time span, frames and payload bytes. Append and
    /// recovery both grow a segment through this.
    void account(const std::uint8_t* env, const std::uint8_t* frame,
                 std::uint32_t len, double t, std::uint64_t index_every_bytes);
    /// The listing of this segment under `name`.
    [[nodiscard]] SegmentInfo info(std::string name, bool sealed) const;
  };

  void open_active() DR_REQUIRES(mu_);
  void write_manifest() const DR_REQUIRES(mu_);
  void recover() DR_REQUIRES(mu_);
  /// The one seal: append the active segment's sparse index and footer,
  /// fsync when sync_on_seal, close it and publish it in the manifest.
  /// Rotation, seal_active(), close() and recovery all seal through it.
  void seal_active_locked() DR_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::filesystem::path dir_;
  SegmentStoreOptions options_;
  std::vector<SegmentInfo> sealed_ DR_GUARDED_BY(mu_);
  ActiveSegment active_ DR_GUARDED_BY(mu_);
  std::uint64_t next_index_ DR_GUARDED_BY(mu_) = 0;
  double last_t_ DR_GUARDED_BY(mu_) =
      -std::numeric_limits<double>::infinity();
  std::size_t written_ DR_GUARDED_BY(mu_) = 0;
  /// append()'s encode buffer, reused so an append allocates nothing once
  /// it has grown to the stream's frame size.
  std::vector<std::uint8_t> frame_ DR_GUARDED_BY(mu_);
  std::size_t recovered_ DR_GUARDED_BY(mu_) = 0;
  bool closed_ DR_GUARDED_BY(mu_) = false;
};

namespace detail {

/// One segment's payload extent [base, end) as SegmentWalk opens it: a
/// bounded, refillable view of the file, not a copy of it. The window keeps
/// the segment's file open and holds one fixed-size chunk of it (its
/// buffer grows beyond a chunk only to fit a larger frame, never past
/// `end`), so replay memory does not grow with the segment size. An open
/// file survives retention's unlink.
struct SegmentWindow {
  std::ifstream file;      ///< the segment, open across refills
  std::uint64_t base = 0;  ///< file offset the scan starts at
  std::uint64_t end = 0;   ///< file offset one past the window's last byte
  bool active = false;     ///< unsealed tail: what does not parse is torn
  /// The active header is unreadable, so the whole file (from offset 0 to
  /// `end`) is torn.
  bool header_torn = false;

  /// Point the window at [base, end) of `file`, with nothing resident.
  void set_extent(std::uint64_t base_offset, std::uint64_t end_offset);

  /// Make the file bytes [pos, pos + n) resident, for base <= pos and
  /// n <= end - pos. When they are not, the unread resident tail from `pos`
  /// moves to the front and the window reads on from there: one chunk, or
  /// `n` bytes when a frame is larger, never past `end`. False when the file
  /// ends short of them. A short read cuts the window where the file ended:
  /// nothing past it is read again, so every later fill beyond it is false.
  [[nodiscard]] bool fill(std::uint64_t pos, std::uint64_t n);

  /// The resident byte at file offset `pos`, after fill(pos, ...) held.
  [[nodiscard]] const std::uint8_t* at(std::uint64_t pos) const {
    return chunk_.data() + (pos - chunk_base_);
  }

 private:
  std::vector<std::uint8_t> chunk_;  ///< file bytes from chunk_base_ on
  std::uint64_t chunk_base_ = 0;
  std::size_t resident_ = 0;  ///< bytes of chunk_ read from the file
  bool cut_ = false;  ///< a read came up short: the file ends at the chunk
};

/// The catalog walk every segment-store reader runs: sealed segments that
/// can overlap [t0, t1) in manifest order — O(log n) to the first, a sparse
/// index probe into it — then the active tail. Each segment is opened as one
/// window: a sealed one up to its footer's payload end, the active tail up
/// to the size statted when the walk reached it. The scanner reads each
/// window in chunks.
class SegmentWalk {
 public:
  SegmentWalk(const SegmentStoreReader& reader, double t0, double t1);

  /// Open the next segment in `w`, reusing its buffer; false once the walk
  /// is over. Throws WireError when a sealed segment cannot be opened, and
  /// stays on that segment: the next call tries it again.
  [[nodiscard]] bool next(SegmentWindow& w);

 private:
  void load_sealed(const SegmentInfo& s, SegmentWindow& w) const;
  [[nodiscard]] bool load_active(SegmentWindow& w) const;

  const SegmentStoreReader* reader_;
  double t0_;
  double t1_;
  std::size_t next_;         ///< next sealed segment to load
  bool tail_done_ = false;   ///< the active tail was tried (or is out of range)
};

/// Parses the envelopes of one window after another, keeping those stamped
/// in [t0, t1).
class EnvelopeScanner {
 public:
  enum class Verdict : std::uint8_t {
    kRecord,   ///< the next in-range record was decoded
    kDrained,  ///< the window is used up: open the next one, then reset()
    kEnd,      ///< a stamp at or past t1: time is monotone, the range is done
    kTorn,     ///< the rest of an active window does not parse or read
    kDamaged,  ///< the rest of a sealed window does not parse or read
  };

  EnvelopeScanner(double t0, double t1) : t0_(t0), t1_(t1) {}

  /// Start on a freshly opened window.
  void reset(const SegmentWindow& w) {
    pos_ = w.base;
    prev_t_ = -std::numeric_limits<double>::infinity();
  }

  /// Decode the next in-range record of `w` into `out` (spans borrow `w`
  /// and `scratch`), refilling `w` whenever the next envelope header or
  /// frame is not resident. Every verdict but kRecord repeats until reset().
  [[nodiscard]] Verdict next(SegmentWindow& w, WireScratch& scratch,
                             RecordView& out);

  /// Stream time of the record last decoded.
  [[nodiscard]] double time() const { return time_; }
  /// Bytes of `w` from the first envelope that does not parse or read on.
  [[nodiscard]] std::uint64_t lost_bytes(const SegmentWindow& w) const {
    return w.end - pos_;
  }
  [[nodiscard]] std::size_t frames_scanned() const { return scanned_; }

 private:
  double t0_;
  double t1_;
  std::uint64_t pos_ = 0;  ///< file offset of the next envelope
  /// Stamp of the window's last envelope (the envelope rule's floor).
  double prev_t_ = -std::numeric_limits<double>::infinity();
  double time_ = 0.0;
  std::size_t scanned_ = 0;
};

}  // namespace detail

/// Read-only snapshot view of a store, safe concurrently with a writer.
class SegmentStoreReader {
 public:
  explicit SegmentStoreReader(const std::filesystem::path& dir);

  /// Sealed segments (manifest order), plus the active segment if present
  /// on disk (bytes = current size, frames unknown until sealed).
  [[nodiscard]] std::vector<SegmentInfo> segments() const;

  /// Segments read so far by this reader's cursors (the replay source's
  /// included) — pinned by tests to prove a walk touches only segments
  /// overlapping the requested range.
  [[nodiscard]] std::size_t segments_opened() const { return opened_; }

  /// Full integrity check of every sealed segment (header, footer, index
  /// bounds, payload CRC32C), streamed in bounded chunks. Returns false and
  /// fills `error` on the first mismatch.
  [[nodiscard]] bool verify(std::string* error = nullptr) const;

  /// Streaming cursor over one seek() range.
  class Cursor {
   public:
    /// Next record with stream time in [t0, t1); false at end of range.
    /// A torn active tail ends the cursor cleanly with torn() set; sealed
    /// segment damage, or a sealed segment that cannot be read, throws
    /// WireError (verify() pinpoints it). A throw is sticky: calling again
    /// throws again or, if the segment has become readable, restarts at its
    /// first record — never at a later segment's.
    [[nodiscard]] bool next(Record& out);

    /// Allocation-free variant: `out` borrows the cursor's segment buffer
    /// and decode scratch, both valid only until the next call.
    /// Same end-of-range / torn / throw behavior as next().
    [[nodiscard]] bool next_view(RecordView& out);

    /// Stream time of the record last returned by next().
    [[nodiscard]] double time() const { return scan_.time(); }
    [[nodiscard]] bool torn() const { return torn_; }
    [[nodiscard]] std::size_t lost_bytes() const { return lost_bytes_; }
    /// Envelopes visited, including index-to-t0 skips — pinned by tests to
    /// prove the scan after an index probe is bounded.
    [[nodiscard]] std::size_t frames_scanned() const {
      return scan_.frames_scanned();
    }

   private:
    friend class SegmentStoreReader;
    Cursor(SegmentStoreReader* store, double t0, double t1)
        : store_(store), walk_(*store, t0, t1), scan_(t0, t1) {}

    SegmentStoreReader* store_;
    detail::SegmentWalk walk_;
    detail::SegmentWindow window_;  ///< the segment being read; its chunk is reused
    detail::EnvelopeScanner scan_;
    WireScratch scratch_;
    bool torn_ = false;
    std::size_t lost_bytes_ = 0;
  };

  /// Cursor over records with stream time in [t0, t1). O(log n) over the
  /// manifest, one sparse-index probe in the first overlapping segment,
  /// then a bounded forward scan. The cursor must not outlive the reader.
  [[nodiscard]] Cursor seek(double t0,
                            double t1 = std::numeric_limits<double>::infinity());

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }

 private:
  friend class detail::SegmentWalk;

  std::filesystem::path dir_;
  std::vector<SegmentInfo> sealed_;
  std::string active_name_;  ///< empty when no active segment exists
  std::size_t opened_ = 0;
};

/// Replays a time range of a segment store as a sample stream: drop it into
/// run_stream / SessionScheduler and a month of archive re-extracts through
/// the same sessions that serve live traffic. Reads drain one Cursor on the
/// caller's thread (the scheduler's reader thread for a pull-fed station),
/// decoding allocation-free per frame. A torn tail or a sealed segment that
/// is damaged or cannot be read ends the stream as not clean().
class SegmentStoreSource final : public RecordSampleSource {
 public:
  explicit SegmentStoreSource(
      const std::filesystem::path& dir, double t0 = 0.0,
      double t1 = std::numeric_limits<double>::infinity(),
      std::uint32_t subtype = kSubtypeAudio);

  [[nodiscard]] const SegmentStoreReader& reader() const { return *reader_; }

 private:
  [[nodiscard]] Next next_record(Record& rec) override;
  [[nodiscard]] Next next_audio(FloatVec& pending) override;
  [[nodiscard]] Next next_view(RecordView& view);

  std::unique_ptr<SegmentStoreReader> reader_;  ///< stable for cursor_
  SegmentStoreReader::Cursor cursor_;
};

/// Streams raw audio into a SegmentedRecordLog as self-describing records:
/// each Data record carries sample-rate and start-sample attributes and is
/// stamped with stream time start_sample / rate, so any time range replays
/// standalone. Chunking into `record_samples`-sized records is a storage
/// detail — extraction is bit-identical for any chunking.
///
/// Construction inspects the store and resumes after its existing contents
/// (sample clock and sequence continue where the last run stopped), so
/// repeated archive runs into one store append; a sample-rate mismatch with
/// the archived tail throws. Resuming seals the log's active segment.
class AudioSegmentArchiver {
 public:
  AudioSegmentArchiver(SegmentedRecordLog& log, double sample_rate,
                       std::size_t record_samples = 900);

  void push(std::span<const float> samples);
  /// Flush a partial trailing record. Does not close the log.
  void finish();

  [[nodiscard]] std::size_t samples_archived() const { return archived_; }
  /// Stream position of the next sample pushed; nonzero right after
  /// construction when the store already held audio (resume offset).
  [[nodiscard]] std::uint64_t next_start_sample() const {
    return start_sample_;
  }

 private:
  void flush_record();

  SegmentedRecordLog& log_;
  double rate_;
  std::size_t record_samples_;
  FloatVec pending_;
  std::uint64_t start_sample_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::size_t archived_ = 0;
};

}  // namespace dynriver::river
