#include "river/segment_format.hpp"

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "river/crc_slices.hpp"

namespace dynriver::river {

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  return detail::CrcSlices<0x82F63B78u>::update(seed ^ 0xFFFFFFFFu, data, len) ^
         0xFFFFFFFFu;
}

namespace detail {

namespace fs = std::filesystem;

std::string segment_name(std::uint64_t index) {
  std::array<char, 32> buf;
  std::snprintf(buf.data(), buf.size(), "seg-%06" PRIu64 ".drs", index);
  return buf.data();
}

bool parse_segment_name(const std::string& name, std::uint64_t& index) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".drs";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return false;
  }
  index = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool load_segment_footer(const fs::path& path, SegmentFooter& out,
                         std::string* error) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return set_error(error, "cannot stat " + path.string());
  if (size < kSegmentHeaderBytes + kSegmentFooterBytes) {
    return set_error(error, path.string() + ": too small for a sealed segment");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return set_error(error, "cannot open " + path.string());
  std::array<std::uint8_t, kSegmentHeaderBytes> header;
  if (!read_exact(in, header.data(), header.size())) {
    return set_error(error, path.string() + ": short header read");
  }
  if (!segment_header_valid(header.data())) {
    return set_error(error, path.string() + ": bad segment header");
  }
  in.seekg(static_cast<std::streamoff>(size - kSegmentFooterBytes));
  std::array<std::uint8_t, kSegmentFooterBytes> raw;
  if (!read_exact(in, raw.data(), raw.size())) {
    return set_error(error, path.string() + ": short footer read");
  }
  if (get_raw<std::uint32_t>(raw.data() + 48) != kSegmentFooterMagic) {
    return set_error(error, path.string() + ": no footer magic (unsealed?)");
  }
  SegmentFooter f;
  f.frames = get_raw<std::uint64_t>(raw.data() + 0);
  f.payload_end = get_raw<std::uint64_t>(raw.data() + 8);
  f.index_count = get_raw<std::uint32_t>(raw.data() + 16);
  f.version = get_raw<std::uint16_t>(raw.data() + 20);
  f.flags = get_raw<std::uint16_t>(raw.data() + 22);
  f.t_min = get_raw<double>(raw.data() + 24);
  f.t_max = get_raw<double>(raw.data() + 32);
  f.payload_crc = get_raw<std::uint32_t>(raw.data() + 40);
  f.footer_crc = get_raw<std::uint32_t>(raw.data() + kFooterCrcOffset);
  if (f.version != kSegmentVersion) {
    return set_error(error, path.string() + ": unsupported segment version");
  }
  // The writer only ever stamps finite, ordered times (append enforces it),
  // so anything else is corruption; letting it through would poison the
  // recovered last-time watermark and the manifest's ordering invariants.
  if (!std::isfinite(f.t_min) || !std::isfinite(f.t_max) ||
      f.t_min > f.t_max) {
    return set_error(error, path.string() + ": footer time range invalid");
  }
  // index_count is u32, so `tail` tops out near 2^36 and cannot wrap; the
  // naive `payload_end + tail == size` sum could, letting a hostile
  // payload_end near 2^64 satisfy the equation and send later reads to
  // offsets far past the file.
  const std::uint64_t tail =
      std::uint64_t{f.index_count} * kIndexEntryBytes + kSegmentFooterBytes;
  if (f.payload_end < kSegmentHeaderBytes || tail > size ||
      f.payload_end != size - tail) {
    return set_error(error, path.string() + ": footer geometry mismatch");
  }
  out = f;
  return true;
}

bool load_segment_index(const fs::path& path, const SegmentFooter& footer,
                        std::vector<std::pair<double, std::uint64_t>>& out,
                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return set_error(error, "cannot open " + path.string());
  in.seekg(static_cast<std::streamoff>(footer.payload_end));
  const std::size_t index_bytes =
      std::size_t{footer.index_count} * kIndexEntryBytes;
  std::vector<std::uint8_t> tail(index_bytes + kSegmentFooterBytes);
  if (!read_exact(in, tail.data(), tail.size())) {
    return set_error(error, path.string() + ": short index read");
  }
  const std::uint32_t crc = crc32c(tail.data(), index_bytes + kFooterCrcOffset);
  if (crc != footer.footer_crc) {
    return set_error(error, path.string() + ": footer checksum mismatch");
  }
  out.clear();
  out.reserve(footer.index_count);
  for (std::size_t i = 0; i < footer.index_count; ++i) {
    const std::uint8_t* e = tail.data() + i * kIndexEntryBytes;
    const auto t = get_raw<double>(e);
    const auto offset = get_raw<std::uint64_t>(e + 8);
    // Validate here, on the read path — not only in verify(). An offset past
    // payload_end once made the segment walk's `payload_end - start` window
    // size wrap into a huge resize; unsorted or NaN stamps would break the
    // seek's upper_bound probe.
    if (offset < kSegmentHeaderBytes || offset >= footer.payload_end ||
        std::isnan(t) || (!out.empty() && t < out.back().first)) {
      return set_error(error, path.string() + ": index entry out of bounds");
    }
    out.emplace_back(t, offset);
  }
  return true;
}

bool probe_presumed_active(const fs::path& path, double sealed_t_max,
                           std::uint64_t* sealed_payload_end) {
  *sealed_payload_end = 0;
  SegmentFooter footer;
  if (!load_segment_footer(path, footer, nullptr)) return true;
  if (footer.t_min < sealed_t_max) return false;
  *sealed_payload_end = footer.payload_end;
  return true;
}

void read_manifest(const fs::path& dir, std::vector<SegmentInfo>& sealed,
                   std::uint64_t& next_index) {
  sealed.clear();
  next_index = 0;
  const auto path = dir / "MANIFEST";
  std::ifstream in(path);
  if (!in) return;  // fresh store
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw std::runtime_error("bad segment store manifest: " + path.string());
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("next ", 0) == 0) {
      next_index = std::strtoull(line.c_str() + 5, nullptr, 10);
      continue;
    }
    if (line.rfind("seg ", 0) == 0) {
      std::array<char, 64> name{};
      unsigned long long frames = 0;
      unsigned long long bytes = 0;
      double t_min = 0.0;
      double t_max = 0.0;
      unsigned crc = 0;
      if (std::sscanf(line.c_str(), "seg %63s %llu %llu %la %la %x",
                      name.data(), &frames, &bytes, &t_min, &t_max,
                      &crc) != 6) {
        throw std::runtime_error("bad manifest line in " + path.string() +
                                 ": " + line);
      }
      SegmentInfo info;
      info.name = name.data();
      info.frames = frames;
      info.bytes = bytes;
      info.t_min = t_min;
      info.t_max = t_max;
      info.payload_crc = static_cast<std::uint32_t>(crc);
      info.sealed = true;
      // The manifest is untrusted bytes like any other store file. A name
      // that is not a well-formed segment name would let a hostile MANIFEST
      // point readers at arbitrary paths ("seg ../../etc/passwd ..."), and
      // non-monotone or NaN time spans break the cursor's lower_bound seek
      // and its "nothing later fits" early-out.
      std::uint64_t seg_index = 0;
      if (!parse_segment_name(info.name, seg_index)) {
        throw std::runtime_error("bad segment name in " + path.string() +
                                 ": " + info.name);
      }
      if (!std::isfinite(info.t_min) || !std::isfinite(info.t_max) ||
          info.t_min > info.t_max ||
          (!sealed.empty() && (info.t_min < sealed.back().t_min ||
                               info.t_max < sealed.back().t_max))) {
        throw std::runtime_error("non-monotone segment times in " +
                                 path.string() + ": " + info.name);
      }
      sealed.push_back(std::move(info));
      continue;
    }
    throw std::runtime_error("bad manifest line in " + path.string() + ": " +
                             line);
  }
}

}  // namespace detail

}  // namespace dynriver::river
