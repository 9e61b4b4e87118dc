// On-disk format helpers of the segment store, shared by the writer and
// recovery (segment_store.cpp) and the readers (segment_reader.cpp). Internal
// to the river layer: no public header includes it. The layout they parse is
// documented in segment_store.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "river/segment_store.hpp"

namespace dynriver::river::detail {

template <typename T>
T get_raw(const std::uint8_t* src) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

inline bool read_exact(std::ifstream& in, std::uint8_t* dst, std::size_t n) {
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  return std::cmp_equal(in.gcount(), n);
}

/// The one header rule: magic and version. An active segment whose header
/// fails it is torn as a whole; a sealed one is damaged.
inline bool segment_header_valid(const std::uint8_t* header) {
  return get_raw<std::uint32_t>(header) == kSegmentMagic &&
         get_raw<std::uint16_t>(header + 4) == kSegmentVersion;
}

/// One payload envelope: len u32 | t f64, then `len` bytes of wire frame.
struct Envelope {
  std::uint32_t len = 0;
  double t = 0.0;
};

/// The one envelope rule. Every reader and crash recovery decide through it
/// where a segment's valid payload ends. `left` counts the bytes
/// from the envelope at `p` to the end of the payload region; `p` is read
/// only when an envelope header fits in them. The envelope is valid when
/// 0 < len <= kMaxSegmentFrameBytes, its header and frame fit in `left`, and
/// its stamp is finite and not below `prev_t`, the stamp of the envelope
/// before it in the segment (-inf for the first). The writer stamps nothing
/// else, so whatever fails the rule is a torn tail or damage.
inline bool parse_envelope(const std::uint8_t* p, std::uint64_t left,
                           double prev_t, Envelope& out) {
  if (left < kEnvelopeHeaderBytes) return false;
  out.len = get_raw<std::uint32_t>(p);
  out.t = get_raw<double>(p + 4);
  return out.len != 0 && out.len <= kMaxSegmentFrameBytes &&
         out.len <= left - kEnvelopeHeaderBytes && std::isfinite(out.t) &&
         out.t >= prev_t;
}

std::string segment_name(std::uint64_t index);
bool parse_segment_name(const std::string& name, std::uint64_t& index);

/// Fixed-offset view of the 52-byte footer (see segment_store.hpp layout).
struct SegmentFooter {
  std::uint64_t frames = 0;
  std::uint64_t payload_end = 0;
  std::uint32_t index_count = 0;
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint32_t payload_crc = 0;
  std::uint32_t footer_crc = 0;
};

inline constexpr std::size_t kFooterCrcOffset = 44;
inline constexpr std::size_t kIndexEntryBytes = 16;
inline constexpr std::string_view kManifestHeader = "dynriver-segment-store v1";

/// Fill `error` (when non-null) and return false.
bool set_error(std::string* error, const std::string& message);

/// Parse and sanity-check the footer of a sealed segment file. Returns false
/// (with `error` filled) for anything that is not a well-formed sealed
/// segment — including a torn active segment, which has no footer.
bool load_segment_footer(const std::filesystem::path& path, SegmentFooter& out,
                         std::string* error);

/// Load (and CRC-check) the sparse index region of a sealed segment.
bool load_segment_index(const std::filesystem::path& path,
                        const SegmentFooter& footer,
                        std::vector<std::pair<double, std::uint64_t>>& out,
                        std::string* error);

// A reader guesses the active file's name from its manifest snapshot's next
// index — but that index can since have been handed to *older* records.
// Retention that retires every sealed segment leaves the log with no last
// time once it is reopened, so the writer may append stamps older than the
// snapshot's sealed tail into that very index and seal it. Telling the two
// apart needs the file itself: a valid sealed footer whose span starts
// before the snapshot's sealed tail is older data, and reading it as the
// live tail would re-emit records with time running backwards. Returns false
// for that case (skip the file). Otherwise the file is a plausible
// continuation: either genuinely active (*sealed_payload_end = 0) or sealed
// after the snapshot (*sealed_payload_end = its payload end, so the caller
// stops before the index/footer bytes instead of reporting them as a torn
// tail).
bool probe_presumed_active(const std::filesystem::path& path,
                           double sealed_t_max,
                           std::uint64_t* sealed_payload_end);

/// Parse MANIFEST; absent file yields an empty store. Throws on damage —
/// recovery must never guess at the sealed list.
void read_manifest(const std::filesystem::path& dir,
                   std::vector<SegmentInfo>& sealed, std::uint64_t& next_index);

}  // namespace dynriver::river::detail
