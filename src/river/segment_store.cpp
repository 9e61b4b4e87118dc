#include "river/segment_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "common/contracts.hpp"
#include "river/segment_format.hpp"
#include "river/wire.hpp"

namespace dynriver::river {

using namespace detail;

namespace {

namespace fs = std::filesystem;

// -- fixed-layout encoding helpers -------------------------------------------

template <typename T>
void put_raw(std::uint8_t* dst, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(dst, &value, sizeof(T));
}

void fsync_directory(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort: rename durability on metadata journals
    ::close(fd);
  }
}

void fsync_file(std::FILE* f, const std::string& what) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    throw std::runtime_error("segment store sync failed: " + what + ": " +
                             std::strerror(errno));
  }
}

}  // namespace

void SegmentedRecordLog::write_manifest() const {
  const auto tmp = dir_ / "MANIFEST.tmp";
  const auto final_path = dir_ / "MANIFEST";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot write manifest: " + tmp.string());
  }
  std::string text(kManifestHeader);
  text += "\nnext " + std::to_string(next_index_) + "\n";
  for (const auto& s : sealed_) {
    std::array<char, 192> line;
    std::snprintf(line.data(), line.size(),
                  "seg %s %" PRIu64 " %" PRIu64 " %a %a %x\n", s.name.c_str(),
                  s.frames, s.bytes, s.t_min, s.t_max, s.payload_crc);
    text += line.data();
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  bool synced = true;
  if (wrote && options_.sync_on_seal) {
    synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    throw std::runtime_error("manifest write failed: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);  // atomic publish
  if (ec) {
    throw std::runtime_error("manifest rename failed: " + final_path.string() +
                             ": " + ec.message());
  }
  if (options_.sync_on_seal) fsync_directory(dir_);
}

// ---------------------------------------------------------------------------
// SegmentedRecordLog
// ---------------------------------------------------------------------------

SegmentedRecordLog::SegmentedRecordLog(const std::filesystem::path& dir,
                                       SegmentStoreOptions options)
    : dir_(dir), options_(options) {
  DR_EXPECTS(options_.max_segment_bytes > 0);
  DR_EXPECTS(options_.index_every_bytes > 0);
  fs::create_directories(dir_);
  // Construction is single-threaded, but recover() touches guarded state
  // and seals via the _locked path — hold the lock so the analysis sees
  // its capability satisfied (uncontended: nobody else has `this` yet).
  const common::LockGuard lock(mu_);
  recover();
}

SegmentedRecordLog::~SegmentedRecordLog() {
  try {
    close();
  } catch (...) {
    // Best-effort teardown; use close() directly for the durability
    // guarantee.
  }
}

void SegmentedRecordLog::recover() {
  read_manifest(dir_, sealed_, next_index_);

  // No segment file is ever renamed, so a manifest entry without its file is
  // lost data: fail the open instead of guessing.
  for (const auto& s : sealed_) {
    const auto path = dir_ / s.name;
    if (!fs::exists(path)) {
      throw std::runtime_error("segment store is missing sealed segment: " +
                               path.string());
    }
  }

  // Inventory everything else on disk.
  std::map<std::uint64_t, fs::path> orphans;
  std::vector<fs::path> temps;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    if (name == "MANIFEST") continue;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      temps.push_back(entry.path());
      continue;
    }
    std::uint64_t index = 0;
    if (!parse_segment_name(name, index)) continue;
    const bool in_manifest =
        std::any_of(sealed_.begin(), sealed_.end(),
                    [&](const SegmentInfo& s) { return s.name == name; });
    if (!in_manifest) orphans.emplace(index, entry.path());
  }
  for (const auto& tmp : temps) fs::remove(tmp);  // aborted work, pre-publish

  bool manifest_dirty = false;
  for (const auto& [index, path] : orphans) {
    if (index < next_index_) {
      // Known and since retired; the crash hit between the manifest publish
      // and the file delete.
      fs::remove(path);
      continue;
    }
    SegmentFooter footer;
    std::string err;
    if (load_segment_footer(path, footer, &err)) {
      std::vector<std::pair<double, std::uint64_t>> index_entries;
      if (!load_segment_index(path, footer, index_entries, &err)) {
        throw std::runtime_error("segment store recovery: " + err);
      }
      // Sealed but unpublished: the crash hit between the footer write and
      // the manifest publish. Adopt it.
      sealed_.push_back(SegmentInfo{path.filename().string(), footer.frames,
                                    footer.payload_end - kSegmentHeaderBytes,
                                    footer.t_min, footer.t_max,
                                    footer.payload_crc, true});
      next_index_ = index + 1;
      manifest_dirty = true;
      continue;
    }
    // The torn active segment of the previous writer: keep its valid prefix
    // (streamed, bounded memory), seal what survived, drop the rest. Only
    // bytes that were read and failed the rules are dropped: a file that
    // cannot be opened, sized or read fails the open instead (fail closed).
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    std::ifstream in(path, std::ios::binary);
    if (ec || !in) {
      throw std::runtime_error("segment store recovery: cannot read " +
                               path.string());
    }
    std::array<std::uint8_t, kSegmentHeaderBytes> header;
    ActiveSegment scan;
    scan.index = index;
    if (read_exact(in, header.data(), header.size()) &&
        segment_header_valid(header.data())) {
      std::vector<std::uint8_t> frame;
      std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
      WireScratch scratch;
      std::uint64_t pos = kSegmentHeaderBytes;
      Envelope e;
      while (size - pos >= kEnvelopeHeaderBytes &&
             read_exact(in, env.data(), env.size()) &&
             parse_envelope(env.data(), size - pos, scan.floor_t(), e)) {
        frame.resize(e.len);
        if (!read_exact(in, frame.data(), e.len)) break;
        try {
          std::size_t consumed = 0;
          (void)decode_record_view(frame.data(), e.len, consumed, scratch);
          if (consumed != e.len) break;
        } catch (const WireError&) {
          break;
        }
        scan.account(env.data(), frame.data(), e.len, e.t,
                     options_.index_every_bytes);
        pos += kEnvelopeHeaderBytes + e.len;
      }
    }
    if (in.bad()) {
      throw std::runtime_error("segment store recovery: read failed: " +
                               path.string());
    }
    in.close();
    if (scan.frames == 0) {
      fs::remove(path);
      next_index_ = std::max(next_index_, index);
      continue;
    }
    const std::uint64_t valid = kSegmentHeaderBytes + scan.payload_bytes;
    if (valid < size) fs::resize_file(path, valid);
    scan.file = std::fopen(path.c_str(), "ab");
    if (scan.file == nullptr) {
      throw std::runtime_error("segment store recovery: cannot reopen " +
                               path.string());
    }
    recovered_ += scan.frames;
    active_ = std::move(scan);
    next_index_ = index;
    seal_active_locked();  // single-threaded in the ctor; publishes the manifest
    manifest_dirty = false;
  }

  for (const auto& s : sealed_) last_t_ = std::max(last_t_, s.t_max);
  if (manifest_dirty) write_manifest();
}

// ---------------------------------------------------------------------------
// One append/seal path: every segment the store writes is created, grown
// and sealed through these.
// ---------------------------------------------------------------------------

void SegmentedRecordLog::ActiveSegment::account(
    const std::uint8_t* env, const std::uint8_t* frame, std::uint32_t len,
    double t, std::uint64_t index_every_bytes) {
  if (frames == 0 || payload_bytes - last_index_bytes >= index_every_bytes) {
    index_entries.emplace_back(t, kSegmentHeaderBytes + payload_bytes);
    last_index_bytes = payload_bytes;
  }
  crc = crc32c(env, kEnvelopeHeaderBytes, crc);
  crc = crc32c(frame, len, crc);
  if (frames == 0) t_min = t;
  t_max = t;
  ++frames;
  payload_bytes += kEnvelopeHeaderBytes + len;
}

SegmentInfo SegmentedRecordLog::ActiveSegment::info(std::string name,
                                                    bool sealed) const {
  return SegmentInfo{std::move(name), frames, payload_bytes, t_min,
                     t_max,           crc,    sealed};
}

void SegmentedRecordLog::open_active() {
  const auto path = dir_ / segment_name(next_index_);
  ActiveSegment seg;
  seg.index = next_index_;
  seg.file = std::fopen(path.c_str(), "wb");
  if (seg.file == nullptr) {
    throw std::runtime_error("cannot open segment: " + path.string());
  }
  std::array<std::uint8_t, kSegmentHeaderBytes> header{};  // flags 0
  put_raw<std::uint32_t>(header.data(), kSegmentMagic);
  put_raw<std::uint16_t>(header.data() + 4, kSegmentVersion);
  if (std::fwrite(header.data(), 1, header.size(), seg.file) !=
      header.size()) {
    std::fclose(seg.file);  // best-effort: segment abandoned, throwing
    throw std::runtime_error("segment header write failed: " + path.string());
  }
  active_ = std::move(seg);
}

void SegmentedRecordLog::append(const Record& rec, double t) {
  const common::LockGuard lock(mu_);
  DR_EXPECTS(!closed_);
  DR_EXPECTS(std::isfinite(t));
  DR_EXPECTS(t >= last_t_ || !std::isfinite(last_t_));

  if (active_.file != nullptr && active_.frames > 0 &&
      (active_.payload_bytes >= options_.max_segment_bytes ||
       (options_.max_segment_seconds > 0.0 &&
        t - active_.t_min >= options_.max_segment_seconds))) {
    seal_active_locked();
  }
  if (active_.file == nullptr) open_active();

  encode_record_into(rec,
                     options_.pack_payloads ? PayloadCodec::kPacked
                                            : PayloadCodec::kRaw,
                     frame_);
  DR_EXPECTS(frame_.size() <= kMaxSegmentFrameBytes);
  const auto len = static_cast<std::uint32_t>(frame_.size());
  std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
  put_raw<std::uint32_t>(env.data(), len);
  put_raw<double>(env.data() + 4, t);
  if (std::fwrite(env.data(), 1, env.size(), active_.file) != env.size() ||
      std::fwrite(frame_.data(), 1, len, active_.file) != len) {
    throw std::runtime_error("segment append failed in " + dir_.string());
  }
  active_.account(env.data(), frame_.data(), len, t,
                  options_.index_every_bytes);
  last_t_ = t;
  ++written_;
}

void SegmentedRecordLog::sync() {
  const common::LockGuard lock(mu_);
  if (active_.file == nullptr) return;
  fsync_file(active_.file, segment_name(active_.index));
}

void SegmentedRecordLog::seal_active() {
  const common::LockGuard lock(mu_);
  seal_active_locked();
}

void SegmentedRecordLog::seal_active_locked() {
  if (active_.file == nullptr) return;
  const auto name = segment_name(active_.index);
  if (active_.frames == 0) {
    std::fclose(active_.file);  // best-effort: empty segment, removed below
    active_ = ActiveSegment{};
    fs::remove(dir_ / name);
    return;
  }
  // Never leave a half-sealed segment as the active one: a retry (or the
  // destructor's close()) would append a second tail to the same file. Drop
  // it whatever happens; recovery adopts the file on reopen — as a sealed
  // segment if the tail reached disk, else by valid-prefix truncation.
  const ActiveSegment seg = std::exchange(active_, ActiveSegment{});

  // Tail = sparse index then footer; footer_crc covers both up to itself.
  std::vector<std::uint8_t> tail(seg.index_entries.size() * kIndexEntryBytes +
                                 kSegmentFooterBytes);
  std::uint8_t* p = tail.data();
  for (const auto& [t, offset] : seg.index_entries) {
    put_raw<double>(p, t);
    put_raw<std::uint64_t>(p + 8, offset);
    p += kIndexEntryBytes;
  }
  put_raw<std::uint64_t>(p + 0, seg.frames);
  put_raw<std::uint64_t>(p + 8, kSegmentHeaderBytes + seg.payload_bytes);
  put_raw<std::uint32_t>(p + 16,
                         static_cast<std::uint32_t>(seg.index_entries.size()));
  put_raw<std::uint16_t>(p + 20, kSegmentVersion);
  put_raw<std::uint16_t>(p + 22, 0);  // flags
  put_raw<double>(p + 24, seg.t_min);
  put_raw<double>(p + 32, seg.t_max);
  put_raw<std::uint32_t>(p + 40, seg.crc);
  put_raw<std::uint32_t>(p + kFooterCrcOffset,
                         crc32c(tail.data(), tail.size() - kSegmentFooterBytes +
                                                 kFooterCrcOffset));
  put_raw<std::uint32_t>(p + kFooterCrcOffset + 4, kSegmentFooterMagic);

  const bool wrote =
      std::fwrite(tail.data(), 1, tail.size(), seg.file) == tail.size();
  if (wrote && options_.sync_on_seal) {
    try {
      fsync_file(seg.file, name);
    } catch (...) {
      std::fclose(seg.file);  // best-effort: segment dropped, rethrowing
      throw;
    }
  }
  if (std::fclose(seg.file) != 0 || !wrote) {
    throw std::runtime_error("segment seal failed: " + (dir_ / name).string());
  }
  sealed_.push_back(seg.info(name, true));
  next_index_ = seg.index + 1;
  write_manifest();
}

void SegmentedRecordLog::close() {
  const common::LockGuard lock(mu_);
  if (closed_) return;
  seal_active_locked();
  closed_ = true;
}

std::size_t SegmentedRecordLog::retire_before(double t) {
  const common::LockGuard lock(mu_);
  std::vector<std::string> victims;
  std::erase_if(sealed_, [&](const SegmentInfo& s) {
    if (s.t_max < t) {
      victims.push_back(s.name);
      return true;
    }
    return false;
  });
  if (victims.empty()) return 0;
  // Publish first, delete second: a crash in between leaves orphans with
  // indexes below `next`, which recovery deletes.
  write_manifest();
  for (const auto& name : victims) fs::remove(dir_ / name);
  return victims.size();
}

std::size_t SegmentedRecordLog::records_written() const {
  const common::LockGuard lock(mu_);
  return written_;
}

std::size_t SegmentedRecordLog::recovered_records() const {
  const common::LockGuard lock(mu_);
  return recovered_;
}

double SegmentedRecordLog::last_time() const {
  const common::LockGuard lock(mu_);
  return last_t_;
}

std::vector<SegmentInfo> SegmentedRecordLog::segments() const {
  const common::LockGuard lock(mu_);
  auto out = sealed_;
  if (active_.file != nullptr) {
    out.push_back(active_.info(segment_name(active_.index), false));
  }
  return out;
}

// ---------------------------------------------------------------------------
// AudioSegmentArchiver
// ---------------------------------------------------------------------------

AudioSegmentArchiver::AudioSegmentArchiver(SegmentedRecordLog& log,
                                           double sample_rate,
                                           std::size_t record_samples)
    : log_(log), rate_(sample_rate), record_samples_(record_samples) {
  DR_EXPECTS(sample_rate > 0.0);
  DR_EXPECTS(record_samples > 0);
  pending_.reserve(record_samples_);

  // Resume after whatever the store already holds: a second archive run
  // must continue the sample clock, or its first append (stream time 0)
  // would violate the log's monotone-time contract. Sealing makes the tail
  // readable; on a freshly opened log it is a no-op.
  log_.seal_active();
  double t_last = -std::numeric_limits<double>::infinity();
  for (const auto& s : log_.segments()) t_last = std::max(t_last, s.t_max);
  if (!std::isfinite(t_last)) return;  // empty store: start at sample 0

  SegmentStoreReader reader(log_.directory());
  auto cursor = reader.seek(t_last);
  Record rec;
  bool found = false;
  while (cursor.next(rec)) {
    if (rec.type != RecordType::kData || rec.subtype != kSubtypeAudio ||
        !rec.has_attr(kAttrStartSample)) {
      continue;
    }
    const double archived_rate = rec.attr_double(kAttrSampleRate, rate_);
    if (archived_rate != rate_) {
      throw std::runtime_error(
          "archive resume: store holds audio at " +
          std::to_string(archived_rate) + " Hz, not " +
          std::to_string(rate_) + " Hz: " + log_.directory().string());
    }
    const auto start =
        static_cast<std::uint64_t>(rec.attr_int(kAttrStartSample, 0));
    start_sample_ = std::max(start_sample_, start + rec.payload_size());
    next_sequence_ = std::max(next_sequence_, rec.sequence + 1);
    found = true;
  }
  if (!found) {
    // The tail records are of another subtype: resume from stream time
    // alone (ceil keeps the next stamp at or after t_last).
    start_sample_ = static_cast<std::uint64_t>(std::ceil(t_last * rate_));
  }
}

void AudioSegmentArchiver::push(std::span<const float> samples) {
  std::size_t pos = 0;
  while (pos < samples.size()) {
    const std::size_t n = std::min(samples.size() - pos,
                                   record_samples_ - pending_.size());
    pending_.insert(pending_.end(),
                    samples.begin() + static_cast<std::ptrdiff_t>(pos),
                    samples.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    if (pending_.size() == record_samples_) flush_record();
  }
}

void AudioSegmentArchiver::finish() {
  if (!pending_.empty()) flush_record();
}

void AudioSegmentArchiver::flush_record() {
  const std::size_t n = pending_.size();
  Record rec = Record::data(kSubtypeAudio, std::move(pending_));
  rec.sequence = next_sequence_++;
  rec.set_attr(kAttrSampleRate, rate_);
  rec.set_attr(kAttrStartSample, static_cast<std::int64_t>(start_sample_));
  log_.append(rec, static_cast<double>(start_sample_) / rate_);
  start_sample_ += n;
  archived_ += n;
  // Take the payload buffer back from the appended record: steady-state
  // archiving then recycles one allocation instead of making one per record.
  pending_ = std::move(std::get<FloatVec>(rec.payload));
  pending_.clear();
}

}  // namespace dynriver::river
