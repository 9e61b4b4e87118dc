#include "river/segment_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
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

std::array<std::uint8_t, kSegmentHeaderBytes> segment_header_bytes() {
  std::array<std::uint8_t, kSegmentHeaderBytes> h{};
  put_raw<std::uint32_t>(h.data(), kSegmentMagic);
  put_raw<std::uint16_t>(h.data() + 4, kSegmentVersion);
  put_raw<std::uint16_t>(h.data() + 6, 0);  // flags
  return h;
}

void encode_footer_prefix(std::uint8_t* dst, const SegmentFooter& f) {
  put_raw<std::uint64_t>(dst + 0, f.frames);
  put_raw<std::uint64_t>(dst + 8, f.payload_end);
  put_raw<std::uint32_t>(dst + 16, f.index_count);
  put_raw<std::uint16_t>(dst + 20, f.version);
  put_raw<std::uint16_t>(dst + 22, f.flags);
  put_raw<double>(dst + 24, f.t_min);
  put_raw<double>(dst + 32, f.t_max);
  put_raw<std::uint32_t>(dst + 40, f.payload_crc);
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

  // Roll an interrupted compaction forward: the manifest is the journal —
  // if it references a segment whose file only exists under its temp name,
  // the crash hit between the manifest publish and the rename.
  for (const auto& s : sealed_) {
    const auto path = dir_ / s.name;
    if (fs::exists(path)) continue;
    const auto tmp = fs::path(path.string() + ".tmp");
    if (fs::exists(tmp)) {
      fs::rename(tmp, path);
      continue;
    }
    throw std::runtime_error("segment store is missing sealed segment: " +
                             path.string());
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
      // Known and since removed (retired or compacted away); the crash hit
      // between the manifest publish and the file delete.
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
      SegmentInfo info;
      info.name = path.filename().string();
      info.frames = footer.frames;
      info.bytes = footer.payload_end - kSegmentHeaderBytes;
      info.t_min = footer.t_min;
      info.t_max = footer.t_max;
      info.payload_crc = footer.payload_crc;
      info.sealed = true;
      sealed_.push_back(std::move(info));
      next_index_ = index + 1;
      manifest_dirty = true;
      continue;
    }
    // The torn active segment of the previous writer: keep its valid prefix
    // (streamed, bounded memory), seal what survived, drop the rest.
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    std::array<std::uint8_t, kSegmentHeaderBytes> header;
    const bool header_ok =
        !ec && in && size >= kSegmentHeaderBytes &&
        read_exact(in, header.data(), header.size()) &&
        get_raw<std::uint32_t>(header.data()) == kSegmentMagic &&
        get_raw<std::uint16_t>(header.data() + 4) == kSegmentVersion;
    ActiveSegment scan;
    scan.index = index;
    std::uint64_t pos = kSegmentHeaderBytes;
    std::uint64_t valid = kSegmentHeaderBytes;
    if (header_ok) {
      std::vector<std::uint8_t> frame;
      std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
      double prev_t = -std::numeric_limits<double>::infinity();
      while (pos + kEnvelopeHeaderBytes <= size) {
        if (!read_exact(in, env.data(), env.size())) break;
        const auto len = get_raw<std::uint32_t>(env.data());
        const auto t = get_raw<double>(env.data() + 4);
        if (len == 0 || len > kMaxSegmentFrameBytes ||
            pos + kEnvelopeHeaderBytes + len > size || std::isnan(t) ||
            t < prev_t) {
          break;
        }
        frame.resize(len);
        if (!read_exact(in, frame.data(), len)) break;
        try {
          std::size_t consumed = 0;
          (void)decode_record(frame.data(), len, consumed);
          if (consumed != len) break;
        } catch (const WireError&) {
          break;
        }
        if (scan.frames == 0 ||
            scan.payload_bytes - scan.last_index_bytes >=
                options_.index_every_bytes) {
          scan.index_entries.emplace_back(t, pos);
          scan.last_index_bytes = scan.payload_bytes;
        }
        scan.crc = crc32c(env.data(), env.size(), scan.crc);
        scan.crc = crc32c(frame.data(), len, scan.crc);
        if (scan.frames == 0) scan.t_min = t;
        scan.t_max = t;
        prev_t = t;
        ++scan.frames;
        pos += kEnvelopeHeaderBytes + len;
        scan.payload_bytes += kEnvelopeHeaderBytes + len;
        valid = pos;
      }
    }
    in.close();
    if (scan.frames == 0) {
      fs::remove(path);
      next_index_ = std::max(next_index_, index);
      continue;
    }
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

void SegmentedRecordLog::open_active() {
  ActiveSegment fresh;
  fresh.index = next_index_;
  const auto path = dir_ / segment_name(fresh.index);
  fresh.file = std::fopen(path.c_str(), "wb");
  if (fresh.file == nullptr) {
    throw std::runtime_error("cannot open segment: " + path.string());
  }
  const auto header = segment_header_bytes();
  if (std::fwrite(header.data(), 1, header.size(), fresh.file) !=
      header.size()) {
    std::fclose(fresh.file);  // best-effort: segment abandoned, throwing
    throw std::runtime_error("segment header write failed: " + path.string());
  }
  active_ = std::move(fresh);
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

  const auto frame =
      encode_record(rec, options_.pack_payloads ? PayloadCodec::kPacked
                                                : PayloadCodec::kRaw);
  DR_EXPECTS(frame.size() <= kMaxSegmentFrameBytes);
  std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
  put_raw<std::uint32_t>(env.data(), static_cast<std::uint32_t>(frame.size()));
  put_raw<double>(env.data() + 4, t);

  if (active_.frames == 0 ||
      active_.payload_bytes - active_.last_index_bytes >=
          options_.index_every_bytes) {
    active_.index_entries.emplace_back(
        t, kSegmentHeaderBytes + active_.payload_bytes);
    active_.last_index_bytes = active_.payload_bytes;
  }

  if (std::fwrite(env.data(), 1, env.size(), active_.file) != env.size() ||
      std::fwrite(frame.data(), 1, frame.size(), active_.file) !=
          frame.size()) {
    throw std::runtime_error("segment append failed in " + dir_.string());
  }
  active_.crc = crc32c(env.data(), env.size(), active_.crc);
  active_.crc = crc32c(frame.data(), frame.size(), active_.crc);
  if (active_.frames == 0) active_.t_min = t;
  active_.t_max = t;
  active_.payload_bytes += env.size() + frame.size();
  ++active_.frames;
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
  const auto path = dir_ / name;
  if (active_.frames == 0) {
    std::fclose(active_.file);  // best-effort: empty segment, removed below
    active_ = ActiveSegment{};
    fs::remove(path);
    return;
  }

  // Tail = sparse index then footer; footer_crc covers both up to itself.
  std::vector<std::uint8_t> tail(
      active_.index_entries.size() * kIndexEntryBytes + kSegmentFooterBytes);
  std::uint8_t* p = tail.data();
  for (const auto& [t, offset] : active_.index_entries) {
    put_raw<double>(p, t);
    put_raw<std::uint64_t>(p + 8, offset);
    p += kIndexEntryBytes;
  }
  SegmentFooter footer;
  footer.frames = active_.frames;
  footer.payload_end = kSegmentHeaderBytes + active_.payload_bytes;
  footer.index_count = static_cast<std::uint32_t>(active_.index_entries.size());
  footer.version = kSegmentVersion;
  footer.flags = 0;
  footer.t_min = active_.t_min;
  footer.t_max = active_.t_max;
  footer.payload_crc = active_.crc;
  encode_footer_prefix(p, footer);
  const std::uint32_t footer_crc =
      crc32c(tail.data(), tail.size() - kSegmentFooterBytes + kFooterCrcOffset);
  put_raw<std::uint32_t>(p + kFooterCrcOffset, footer_crc);
  put_raw<std::uint32_t>(p + kFooterCrcOffset + 4, kSegmentFooterMagic);

  const bool wrote =
      std::fwrite(tail.data(), 1, tail.size(), active_.file) == tail.size();
  if (wrote && options_.sync_on_seal) {
    try {
      fsync_file(active_.file, name);
    } catch (...) {
      // Never leave a half-sealed segment as the active one: a retry (or
      // the destructor's close()) would append a second tail to the same
      // file. Drop it; recovery adopts the file on reopen — as a sealed
      // segment if the tail reached disk, else by valid-prefix truncation.
      std::fclose(active_.file);  // best-effort: segment dropped, rethrowing
      active_ = ActiveSegment{};
      throw;
    }
  }
  const bool closed = std::fclose(active_.file) == 0;
  if (!wrote || !closed) {
    active_ = ActiveSegment{};
    throw std::runtime_error("segment seal failed: " + path.string());
  }

  SegmentInfo info;
  info.name = name;
  info.frames = active_.frames;
  info.bytes = active_.payload_bytes;
  info.t_min = active_.t_min;
  info.t_max = active_.t_max;
  info.payload_crc = active_.crc;
  info.sealed = true;
  sealed_.push_back(std::move(info));
  next_index_ = active_.index + 1;
  active_ = ActiveSegment{};
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
  return retire_before_locked(t, nullptr);
}

std::size_t SegmentedRecordLog::retire_before_locked(
    double t, std::uint64_t* bytes_dropped) {
  std::vector<std::string> victims;
  std::uint64_t bytes = 0;
  std::erase_if(sealed_, [&](const SegmentInfo& s) {
    if (s.t_max < t) {
      victims.push_back(s.name);
      bytes += s.bytes;
      return true;
    }
    return false;
  });
  if (bytes_dropped != nullptr) *bytes_dropped = bytes;
  if (victims.empty()) return 0;
  // Publish first, delete second: a crash in between leaves orphans with
  // indexes below `next`, which recovery deletes.
  write_manifest();
  for (const auto& name : victims) fs::remove(dir_ / name);
  return victims.size();
}

std::size_t SegmentedRecordLog::compact(std::uint64_t min_bytes,
                                        std::size_t max_run) {
  const common::LockGuard lock(mu_);
  return compact_locked(min_bytes, max_run, nullptr);
}

std::size_t SegmentedRecordLog::compact_locked(std::uint64_t min_bytes,
                                               std::size_t max_run,
                                               std::uint64_t* bytes_rewritten) {
  if (bytes_rewritten != nullptr) *bytes_rewritten = 0;
  if (max_run < 2) return 0;
  // Rotate first: the merged segment takes the next free index, and while a
  // segment is active that index is the active file's — merging into it
  // would rename over the live file under the writer.
  seal_active_locked();
  std::size_t removed = 0;
  std::size_t run_begin = 0;
  while (run_begin < sealed_.size()) {
    // Find a maximal run of adjacent small segments (bounded by max_run so
    // one pass under the log's lock stays short).
    std::size_t run_end = run_begin;
    while (run_end < sealed_.size() && run_end - run_begin < max_run &&
           sealed_[run_end].bytes < min_bytes) {
      ++run_end;
    }
    if (run_end - run_begin < 2) {
      run_begin = run_end + 1;
      continue;
    }

    const auto merged_index = next_index_;
    const auto merged_name = segment_name(merged_index);
    const auto tmp = fs::path((dir_ / merged_name).string() + ".tmp");
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
      throw std::runtime_error("compaction: cannot open " + tmp.string());
    }
    const auto header = segment_header_bytes();
    if (std::fwrite(header.data(), 1, header.size(), out) != header.size()) {
      std::fclose(out);  // best-effort: .tmp discarded on throw
      throw std::runtime_error("compaction: header write failed: " +
                               tmp.string());
    }

    // Merge by raw envelope copy: frames are never re-encoded, only the
    // index/footer are rebuilt over the concatenation.
    ActiveSegment merged;
    merged.index = merged_index;
    std::vector<std::uint8_t> frame;
    std::array<std::uint8_t, kEnvelopeHeaderBytes> env;
    for (std::size_t i = run_begin; i < run_end; ++i) {
      const auto path = dir_ / sealed_[i].name;
      SegmentFooter footer;
      std::string err;
      if (!load_segment_footer(path, footer, &err)) {
        std::fclose(out);  // best-effort: .tmp discarded on throw
        throw std::runtime_error("compaction: " + err);
      }
      std::ifstream in(path, std::ios::binary);
      in.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes));
      std::uint64_t pos = kSegmentHeaderBytes;
      while (pos < footer.payload_end) {
        if (!read_exact(in, env.data(), env.size())) break;
        const auto len = get_raw<std::uint32_t>(env.data());
        const auto t = get_raw<double>(env.data() + 4);
        if (len == 0 || len > kMaxSegmentFrameBytes ||
            pos + kEnvelopeHeaderBytes + len > footer.payload_end) {
          std::fclose(out);  // best-effort: .tmp discarded on throw
          throw std::runtime_error("compaction: corrupt envelope in " +
                                   path.string());
        }
        frame.resize(len);
        if (!read_exact(in, frame.data(), len)) {
          std::fclose(out);  // best-effort: .tmp discarded on throw
          throw std::runtime_error("compaction: short read in " +
                                   path.string());
        }
        if (merged.frames == 0 ||
            merged.payload_bytes - merged.last_index_bytes >=
                options_.index_every_bytes) {
          merged.index_entries.emplace_back(
              t, kSegmentHeaderBytes + merged.payload_bytes);
          merged.last_index_bytes = merged.payload_bytes;
        }
        if (std::fwrite(env.data(), 1, env.size(), out) != env.size() ||
            std::fwrite(frame.data(), 1, len, out) != len) {
          std::fclose(out);  // best-effort: .tmp discarded on throw
          throw std::runtime_error("compaction: write failed: " +
                                   tmp.string());
        }
        merged.crc = crc32c(env.data(), env.size(), merged.crc);
        merged.crc = crc32c(frame.data(), len, merged.crc);
        if (merged.frames == 0) merged.t_min = t;
        merged.t_max = t;
        ++merged.frames;
        pos += kEnvelopeHeaderBytes + len;
        merged.payload_bytes += kEnvelopeHeaderBytes + len;
      }
    }

    // Seal the temp file, then journal the swap in the manifest BEFORE the
    // rename: recovery rolls the rename forward (manifest names a file that
    // only exists as .tmp) and deletes the replaced segments (indexes below
    // `next`).
    {
      std::vector<std::uint8_t> tail(
          merged.index_entries.size() * kIndexEntryBytes + kSegmentFooterBytes);
      std::uint8_t* p = tail.data();
      for (const auto& [t, offset] : merged.index_entries) {
        put_raw<double>(p, t);
        put_raw<std::uint64_t>(p + 8, offset);
        p += kIndexEntryBytes;
      }
      SegmentFooter footer;
      footer.frames = merged.frames;
      footer.payload_end = kSegmentHeaderBytes + merged.payload_bytes;
      footer.index_count =
          static_cast<std::uint32_t>(merged.index_entries.size());
      footer.version = kSegmentVersion;
      footer.flags = 0;
      footer.t_min = merged.t_min;
      footer.t_max = merged.t_max;
      footer.payload_crc = merged.crc;
      encode_footer_prefix(p, footer);
      const std::uint32_t footer_crc = crc32c(
          tail.data(), tail.size() - kSegmentFooterBytes + kFooterCrcOffset);
      put_raw<std::uint32_t>(p + kFooterCrcOffset, footer_crc);
      put_raw<std::uint32_t>(p + kFooterCrcOffset + 4, kSegmentFooterMagic);
      const bool wrote =
          std::fwrite(tail.data(), 1, tail.size(), out) == tail.size();
      if (wrote && options_.sync_on_seal) {
        try {
          fsync_file(out, merged_name);
        } catch (...) {
          std::fclose(out);  // best-effort: pre-publish .tmp, recovery removes it
          throw;
        }
      }
      const bool closed = std::fclose(out) == 0;
      if (!wrote || !closed) {
        throw std::runtime_error("compaction: seal failed: " + tmp.string());
      }
    }
    SegmentInfo merged_info;
    merged_info.name = merged_name;
    merged_info.frames = merged.frames;
    merged_info.bytes = merged.payload_bytes;
    merged_info.t_min = merged.t_min;
    merged_info.t_max = merged.t_max;
    merged_info.payload_crc = merged.crc;
    merged_info.sealed = true;
    std::vector<std::string> replaced;
    for (std::size_t i = run_begin; i < run_end; ++i) {
      replaced.push_back(sealed_[i].name);
    }

    sealed_.erase(sealed_.begin() + static_cast<std::ptrdiff_t>(run_begin),
                  sealed_.begin() + static_cast<std::ptrdiff_t>(run_end));
    sealed_.insert(sealed_.begin() + static_cast<std::ptrdiff_t>(run_begin),
                   merged_info);
    next_index_ = merged_index + 1;
    write_manifest();
    fs::rename(tmp, dir_ / merged_name);
    if (options_.sync_on_seal) fsync_directory(dir_);
    for (const auto& name : replaced) fs::remove(dir_ / name);

    removed += replaced.size() - 1;
    if (bytes_rewritten != nullptr) *bytes_rewritten += merged.payload_bytes;
    run_begin += 1;  // continue after the merged entry
  }
  return removed;
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
    SegmentInfo info;
    info.name = segment_name(active_.index);
    info.frames = active_.frames;
    info.bytes = active_.payload_bytes;
    info.t_min = active_.t_min;
    info.t_max = active_.t_max;
    info.payload_crc = active_.crc;
    info.sealed = false;
    out.push_back(std::move(info));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SegmentedRecordLog::Maintenance
// ---------------------------------------------------------------------------

SegmentedRecordLog::Maintenance::Maintenance(SegmentedRecordLog& log,
                                             MaintenanceOptions options)
    : log_(log), options_(options) {
  DR_EXPECTS(options_.interval_seconds > 0.0);
  thread_ = std::thread([this] { run(); });
}

SegmentedRecordLog::Maintenance::~Maintenance() { stop(); }

SegmentedRecordLog::Maintenance::Stats SegmentedRecordLog::Maintenance::stats()
    const {
  const common::LockGuard lock(mu_);
  return stats_;
}

void SegmentedRecordLog::Maintenance::stop() {
  {
    const common::LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SegmentedRecordLog::Maintenance::run() {
  common::UniqueLock lock(mu_);
  while (!stop_) {
    lock.unlock();
    std::uint64_t bytes = 0;
    std::size_t retired = 0;
    std::size_t merged = 0;
    try {
      const common::LockGuard log_lock(log_.mu_);
      if (options_.retain_seconds > 0.0 && std::isfinite(log_.last_t_)) {
        std::uint64_t dropped = 0;
        retired = log_.retire_before_locked(
            log_.last_t_ - options_.retain_seconds, &dropped);
        bytes += dropped;
      }
      if (options_.compact_min_bytes > 0) {
        std::uint64_t rewritten = 0;
        merged = log_.compact_locked(options_.compact_min_bytes,
                                     options_.compact_max_run, &rewritten);
        bytes += rewritten;
      }
    } catch (...) {
      // Maintenance must never take the pipeline down: skip this cycle and
      // retry next interval. A persistent I/O failure still surfaces — the
      // writer's own append/sync/close throw.
    }
    // Budget: a cycle that touched N bytes earns at least N / budget seconds
    // of quiet, capping average maintenance I/O at budget bytes/second.
    double sleep_s = options_.interval_seconds;
    if (options_.budget_bytes_per_sec > 0 && bytes > 0) {
      sleep_s = std::max(sleep_s,
                         static_cast<double>(bytes) /
                             static_cast<double>(options_.budget_bytes_per_sec));
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(sleep_s));
    lock.lock();
    ++stats_.cycles;
    stats_.segments_retired += retired;
    stats_.segments_merged += merged;
    stats_.bytes_processed += bytes;
    while (!stop_ &&
           cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
  }
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
