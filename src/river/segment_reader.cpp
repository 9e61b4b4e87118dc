// Read side of the segment store: the reader, the one segment walk and
// envelope scanner, the Cursor that runs them inline, and SegmentStoreSource,
// which replays a cursor as a sample stream on its consumer's thread.
#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "common/checked.hpp"
#include "river/segment_format.hpp"
#include "river/segment_store.hpp"
#include "river/wire.hpp"

namespace dynriver::river {

using namespace detail;
namespace fs = std::filesystem;
namespace checked = common::checked;

// ---------------------------------------------------------------------------
// SegmentStoreReader
// ---------------------------------------------------------------------------

SegmentStoreReader::SegmentStoreReader(const std::filesystem::path& dir)
    : dir_(dir) {
  std::uint64_t next_index = 0;
  read_manifest(dir_, sealed_, next_index);
  // The writer's active segment, if one is growing right now.
  const auto active = segment_name(next_index);
  if (fs::exists(dir_ / active)) active_name_ = active;
}

std::vector<SegmentInfo> SegmentStoreReader::segments() const {
  auto out = sealed_;
  if (!active_name_.empty()) {
    std::error_code ec;
    const auto size = fs::file_size(dir_ / active_name_, ec);
    SegmentInfo info;
    info.name = active_name_;
    info.bytes =
        (!ec && size > kSegmentHeaderBytes) ? size - kSegmentHeaderBytes : 0;
    info.sealed = false;
    out.push_back(std::move(info));
  }
  return out;
}

bool SegmentStoreReader::verify(std::string* error) const {
  for (const auto& s : sealed_) {
    const auto path = dir_ / s.name;
    SegmentFooter footer;
    if (!load_segment_footer(path, footer, error)) return false;
    if (footer.frames != s.frames || footer.payload_crc != s.payload_crc ||
        footer.payload_end - kSegmentHeaderBytes != s.bytes) {
      return set_error(error, path.string() + ": footer disagrees with manifest");
    }
    // Loading checks the index CRC and every entry's bounds and order.
    std::vector<std::pair<double, std::uint64_t>> index;
    if (!load_segment_index(path, footer, index, error)) return false;
    std::ifstream in(path, std::ios::binary);
    if (!in) return set_error(error, "cannot open " + path.string());
    in.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes));
    std::uint32_t crc = 0;
    std::uint64_t left = footer.payload_end - kSegmentHeaderBytes;
    std::array<std::uint8_t, 64 * 1024> chunk;
    while (left > 0) {
      const auto n = checked::narrow<std::size_t, std::runtime_error>(
          std::min<std::uint64_t>(left, chunk.size()), "verify chunk size");
      if (!read_exact(in, chunk.data(), n)) {
        return set_error(error, path.string() + ": short payload read");
      }
      crc = crc32c(chunk.data(), n, crc);
      left -= n;
    }
    if (crc != footer.payload_crc) {
      return set_error(error, path.string() + ": payload checksum mismatch");
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

SegmentStoreReader::Cursor SegmentStoreReader::seek(double t0, double t1) {
  return Cursor(this, t0, t1);
}

// ---------------------------------------------------------------------------
// SegmentWalk, SegmentWindow and EnvelopeScanner: the one walk, its chunked
// reads and the one envelope parser
// ---------------------------------------------------------------------------

namespace detail {

SegmentWalk::SegmentWalk(const SegmentStoreReader& reader, double t0,
                         double t1)
    : reader_(&reader), t0_(t0), t1_(t1) {
  // O(log n): first sealed segment whose span can reach t0.
  const auto& sealed = reader.sealed_;
  const auto it = std::lower_bound(
      sealed.begin(), sealed.end(), t0,
      [](const SegmentInfo& s, double t) { return s.t_max < t; });
  next_ = checked::narrow<std::size_t, std::runtime_error>(
      it - sealed.begin(), "segment walk position");
}

bool SegmentWalk::next(SegmentWindow& w) {
  const auto& sealed = reader_->sealed_;
  if (next_ < sealed.size()) {
    const SegmentInfo& s = sealed[next_];
    if (s.t_min < t1_) {
      load_sealed(s, w);  // a throw leaves the walk on this segment
      ++next_;
      return true;
    }
    next_ = sealed.size();  // time is monotone: nothing later fits,
    tail_done_ = true;      // the active tail included
  }
  if (tail_done_) return false;
  const bool loaded = load_active(w);
  tail_done_ = true;
  return loaded;
}

void SegmentWalk::load_sealed(const SegmentInfo& s, SegmentWindow& w) const {
  const auto path = reader_->dir_ / s.name;
  SegmentFooter footer;
  std::string err;
  if (!load_segment_footer(path, footer, &err)) {
    throw WireError("segment store: " + err);
  }
  w.file.close();
  w.file.clear();
  w.file.open(path, std::ios::binary);
  if (!w.file) throw WireError("segment store: cannot open " + path.string());

  std::uint64_t base = kSegmentHeaderBytes;
  if (s.t_min < t0_ && footer.index_count > 0) {
    // Sparse-index probe: start at the last entry at or before t0.
    std::vector<std::pair<double, std::uint64_t>> index;
    if (!load_segment_index(path, footer, index, &err)) {
      throw WireError("segment store: " + err);
    }
    const auto it = std::upper_bound(
        index.begin(), index.end(), t0_,
        [](double t, const std::pair<double, std::uint64_t>& e) {
          return t < e.first;
        });
    if (it != index.begin()) base = std::prev(it)->second;
  }
  w.active = false;
  w.header_torn = false;
  // base <= payload_end: it is either the header size (footer geometry
  // enforces payload_end >= that) or a validated sparse-index offset.
  w.set_extent(base, footer.payload_end);
}

bool SegmentWalk::load_active(SegmentWindow& w) const {
  if (reader_->active_name_.empty()) return false;
  const auto path = reader_->dir_ / reader_->active_name_;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return false;  // nothing written yet
  const auto& sealed = reader_->sealed_;
  const double sealed_t_max = sealed.empty()
                                  ? -std::numeric_limits<double>::infinity()
                                  : sealed.back().t_max;
  std::uint64_t sealed_end = 0;
  if (!probe_presumed_active(path, sealed_t_max, &sealed_end)) {
    return false;  // the index was reused for older records: not the tail
  }
  w.file.close();
  w.file.clear();
  w.file.open(path, std::ios::binary);
  if (!w.file) return false;  // writer may have just sealed+rotated it
  std::array<std::uint8_t, kSegmentHeaderBytes> header;
  // Header bytes still in the writer's buffer, or a header recovery would
  // not accept: the whole file is torn.
  w.header_torn = !read_exact(w.file, header.data(), header.size()) ||
                  !segment_header_valid(header.data());
  // sealed_end != 0: the writer sealed this segment after our snapshot —
  // read exactly its payload, with sealed semantics (damage, not torn).
  w.active = sealed_end == 0;
  // The file may be growing under us; the statted size is a bounded
  // snapshot of the tail.
  w.set_extent(w.header_torn ? 0 : kSegmentHeaderBytes,
               sealed_end != 0 ? sealed_end : size);
  return true;
}

namespace {

/// Bytes a window reads per refill, and so its buffer size while every frame
/// fits in one chunk. The buffer is reused for every segment a cursor opens,
/// so replay holds one chunk per cursor whatever the segment size.
constexpr std::size_t kWindowChunkBytes = 256 << 10;

}  // namespace

void SegmentWindow::set_extent(std::uint64_t base_offset,
                               std::uint64_t end_offset) {
  base = base_offset;
  end = end_offset;
  chunk_base_ = base_offset;
  resident_ = 0;
  cut_ = false;
}

bool SegmentWindow::fill(std::uint64_t pos, std::uint64_t n) {
  const std::uint64_t resident_end = checked::add<WireError>(
      chunk_base_, std::uint64_t{resident_}, "segment window extent");
  const std::uint64_t want = checked::add<WireError>(pos, n, "segment read");
  if (pos >= chunk_base_ && want <= resident_end) return true;
  if (cut_) return false;
  // Keep the unread resident tail; read on after it.
  std::size_t kept = 0;
  if (pos >= chunk_base_ && pos < resident_end) {
    kept = checked::narrow<std::size_t, WireError>(resident_end - pos,
                                                   "segment window tail");
    std::memmove(chunk_.data(), at(pos), kept);
  }
  chunk_base_ = pos;
  // One chunk, or the whole frame when it is larger; never past `end`, so a
  // damaged length cannot size the buffer beyond the segment's real bytes.
  const auto target = checked::narrow<std::size_t, WireError>(
      std::min(end - pos, std::max<std::uint64_t>(n, kWindowChunkBytes)),
      "segment window chunk");
  if (chunk_.size() < target) chunk_.resize(target);
  file.clear();
  file.seekg(checked::narrow<std::streamoff, WireError>(
      checked::add<WireError>(pos, std::uint64_t{kept}, "segment read offset"),
      "segment read offset"));
  file.read(reinterpret_cast<char*>(chunk_.data() + kept),
            checked::narrow<std::streamsize, WireError>(target - kept,
                                                        "segment read size"));
  resident_ = kept + checked::narrow<std::size_t, WireError>(
                         file.gcount(), "segment read size");
  // A short read: the file ends inside the extent (an active tail truncated
  // under the reader, or a sealed file that lost bytes).
  if (resident_ < target) cut_ = true;
  return n <= resident_;
}

EnvelopeScanner::Verdict EnvelopeScanner::next(SegmentWindow& w,
                                               WireScratch& scratch,
                                               RecordView& out) {
  if (w.header_torn) return Verdict::kTorn;
  const Verdict broken = w.active ? Verdict::kTorn : Verdict::kDamaged;
  for (;;) {
    const std::uint64_t left = w.end - pos_;
    if (left == 0) return Verdict::kDrained;
    // An envelope that fails the rule, or whose bytes the file no longer
    // holds, is the writer's in-flight tail in an active window (everything
    // from here on is not yet readable) and damage in a sealed one — the
    // same place recovery truncates.
    if (!w.fill(pos_, std::min<std::uint64_t>(left, kEnvelopeHeaderBytes))) {
      return broken;
    }
    Envelope e;
    if (!parse_envelope(w.at(pos_), left, prev_t_, e)) return broken;
    ++scanned_;
    if (e.t >= t1_) return Verdict::kEnd;  // time is monotone
    prev_t_ = e.t;
    const std::uint64_t span = kEnvelopeHeaderBytes + std::uint64_t{e.len};
    if (e.t < t0_) {  // skip without reading or decoding the frame
      pos_ += span;
      continue;
    }
    if (!w.fill(pos_, span)) return broken;
    try {
      std::size_t consumed = 0;
      out = decode_record_view(w.at(pos_) + kEnvelopeHeaderBytes, e.len,
                               consumed, scratch);
      if (consumed != e.len) return broken;
    } catch (const WireError&) {
      return broken;
    }
    pos_ += span;
    time_ = e.t;
    return Verdict::kRecord;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SegmentStoreReader::Cursor: the walk, inline
// ---------------------------------------------------------------------------

bool SegmentStoreReader::Cursor::next_view(RecordView& out) {
  for (;;) {
    switch (scan_.next(window_, scratch_, out)) {
      case EnvelopeScanner::Verdict::kRecord:
        return true;
      case EnvelopeScanner::Verdict::kDrained:
        try {
          if (!walk_.next(window_)) return false;
        } catch (...) {
          // Drop the half-opened window, so a retry reopens the segment the
          // walk stopped on instead of scanning stale bytes or skipping it.
          window_.set_extent(0, 0);
          scan_.reset(window_);
          throw;
        }
        ++store_->opened_;
        scan_.reset(window_);
        continue;
      case EnvelopeScanner::Verdict::kEnd:
        return false;
      case EnvelopeScanner::Verdict::kTorn:
        torn_ = true;
        lost_bytes_ = checked::narrow<std::size_t, WireError>(
            scan_.lost_bytes(window_), "torn byte count");
        return false;
      case EnvelopeScanner::Verdict::kDamaged:
        throw WireError("segment store: damaged sealed segment");
    }
  }
}

bool SegmentStoreReader::Cursor::next(Record& out) {
  RecordView view;
  if (!next_view(view)) return false;
  out = view.materialize();  // exactly what decode_record returns
  return true;
}

// ---------------------------------------------------------------------------
// SegmentStoreSource: a cursor, read on the consumer's thread
// ---------------------------------------------------------------------------

SegmentStoreSource::SegmentStoreSource(const std::filesystem::path& dir,
                                       double t0, double t1,
                                       std::uint32_t subtype)
    : RecordSampleSource(subtype),
      reader_(std::make_unique<SegmentStoreReader>(dir)),
      cursor_(reader_->seek(t0, t1)) {}

RecordSampleSource::Next SegmentStoreSource::next_view(RecordView& view) {
  try {
    if (cursor_.next_view(view)) return Next::kRecord;
    return cursor_.torn() ? Next::kLost : Next::kEnd;
  } catch (const WireError&) {
    // An unreadable or damaged sealed segment; verify() pinpoints it.
    return Next::kLost;
  }
}

RecordSampleSource::Next SegmentStoreSource::next_record(Record& rec) {
  RecordView view;
  const Next next = next_view(view);
  if (next == Next::kRecord) rec = view.materialize();
  return next;
}

RecordSampleSource::Next SegmentStoreSource::next_audio(FloatVec& pending) {
  // next_record's scan without materializing: pending reuses its capacity.
  RecordView view;
  for (;;) {
    const Next next = next_view(view);
    if (next != Next::kRecord) return next;
    ++records_in_;
    if (view.type == RecordType::kOpenScope && view.scope_type == kScopeClip) {
      rate_ = view.attr_double(kAttrSampleRate, rate_);
    } else if (view.type == RecordType::kData && view.subtype == subtype() &&
               view.is_float()) {
      if (rate_ == 0.0) rate_ = view.attr_double(kAttrSampleRate, 0.0);
      pending.assign(view.floats.begin(), view.floats.end());
      return Next::kRecord;
    }
  }
}

}  // namespace dynriver::river
