// Binary wire format for Dynamic River records.
//
// Records cross host boundaries through the streamin/streamout operators; the
// format below is a small, versioned, little-endian framing with an explicit
// length and a checksum so a receiver can resynchronize after a partial write
// from a dying upstream segment.
//
// Frame layout:
//   magic   u32  'DRIV' (0x44524956)
//   version u16
//   type    u8
//   pay_tag u8   (payload alternative index; 4 = bit-packed float vector)
//   subtype u32
//   depth   u32
//   stype   u32
//   seq     u64
//   nattr   u32
//   paylen  u64  (payload length in ELEMENTS)
//   ...attributes... (key: u16 len + bytes; tag u8; value)
//   ...payload...    (elementwise little-endian)
//   crc32   u32  (over everything after magic, excluding the crc itself)
//
// pay_tag 4 is the packed form of a float vector (pay_tag 2): paylen still
// counts ELEMENTS, and the payload bytes are a u32 packed byte length
// followed by a river/bitpack.hpp stream. Decoding a packed frame yields a
// FloatVec record bit-identical to the unpacked original; writers opt in
// per frame (see encode_record's codec parameter), so packed and raw frames
// interleave freely in one stream or store. Decoders older than pay_tag 4
// reject such frames as "unknown payload tag" — the version field stays 1
// because every frame a v1 writer could produce is still decoded unchanged.
#pragma once

#include <complex>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "river/record.hpp"

namespace dynriver::river {

/// Thrown on malformed input (bad magic, truncated frame, checksum mismatch,
/// unknown tags).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// The subset of WireError meaning "the buffer ends before the frame does":
/// recoverable by feeding more bytes (a fragment mid-flight) or by treating
/// the spot as a torn tail (a writer died mid-frame). Everything thrown as a
/// plain WireError is structural corruption and is never recoverable.
class WireTruncated : public WireError {
 public:
  explicit WireTruncated(const std::string& what) : WireError(what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x44524956;  // "DRIV"
inline constexpr std::uint16_t kWireVersion = 1;
/// pay_tag of a bit-packed float payload (packed alternative of tag 2).
inline constexpr std::uint8_t kPayTagPackedFloats = 4;
/// Upper bound on one frame's decoded payload, in bytes. No writer comes
/// near it (records carry ~900 samples; segment frames are capped at 1 GiB
/// including headers), so a larger declared length is corruption — rejected
/// as WireError before any allocation. The cap is what bounds a decoder's
/// memory against a hostile length field: without it a packed frame can
/// legally declare up to 128 elements per payload byte (see
/// river/bitpack.hpp), amplifying a small frame into an enormous resize.
inline constexpr std::uint64_t kMaxWirePayloadBytes = 1ull << 30;

/// CRC-32 (IEEE 802.3 polynomial, reflected). Exposed for tests.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// How encode_record serializes float payloads.
enum class PayloadCodec : std::uint8_t {
  kRaw,     ///< elementwise little-endian f32 (pay_tag 2)
  kPacked,  ///< delta/xor bit-packed (pay_tag 4); other payload kinds raw
};

/// Serialize a record into a self-delimiting byte frame.
[[nodiscard]] std::vector<std::uint8_t> encode_record(
    const Record& rec, PayloadCodec codec = PayloadCodec::kRaw);
/// Same bytes, written into `out` (cleared first) so an appender can reuse
/// one buffer: no allocation once it has grown to the stream's frame size.
void encode_record_into(const Record& rec, PayloadCodec codec,
                        std::vector<std::uint8_t>& out);

/// Decode one record from a buffer. `consumed` receives the frame size.
/// Throws WireError on malformed input.
[[nodiscard]] Record decode_record(const std::uint8_t* data, std::size_t len,
                                   std::size_t& consumed);

/// Convenience: decode a frame that is exactly one record.
[[nodiscard]] Record decode_record(const std::vector<std::uint8_t>& frame);

/// Reusable decode buffers backing a RecordView's payload spans. Steady-state
/// decode loops reuse one WireScratch so no per-frame heap allocation happens
/// once the buffers reached the stream's record size.
struct WireScratch {
  FloatVec floats;
  CplxVec cplx;
};

/// Non-owning view of one decoded frame: header fields by value, payload as
/// spans into the caller's WireScratch (floats/cplx; copied there because
/// payload bytes inside a frame are unaligned) or into the frame buffer
/// itself (bytes), attributes left in place and parsed lazily on access.
/// A view is invalidated by touching the scratch, the frame buffer, or
/// decoding the next frame; call materialize() to keep the record.
struct RecordView {
  RecordType type = RecordType::kData;
  std::uint8_t pay_tag = 0;  ///< payload alternative (4 = was packed)
  std::uint32_t subtype = 0;
  std::uint32_t scope_depth = 0;
  std::uint32_t scope_type = 0;
  std::uint64_t sequence = 0;
  std::uint32_t nattr = 0;
  std::span<const std::uint8_t> attr_bytes;  ///< raw attribute region
  std::span<const float> floats;             ///< pay_tag 2 or 4
  std::span<const std::complex<float>> cplx;
  std::span<const std::uint8_t> bytes;

  [[nodiscard]] bool is_float() const {
    return pay_tag == 2 || pay_tag == kPayTagPackedFloats;
  }
  [[nodiscard]] std::size_t payload_size() const {
    return is_float() ? floats.size()
                      : (pay_tag == 1 ? bytes.size() : cplx.size());
  }

  /// Lazy attribute reads: a linear scan of the (already validated) attr
  /// region, no allocation. Same fallback semantics as Record.
  [[nodiscard]] bool has_attr(std::string_view key) const;
  [[nodiscard]] std::int64_t attr_int(std::string_view key,
                                      std::int64_t fallback) const;
  [[nodiscard]] double attr_double(std::string_view key, double fallback) const;

  /// Build a full owning Record (payload copied, attrs parsed into the map).
  [[nodiscard]] Record materialize() const;
};

/// Decode one frame into a non-owning view, reusing `scratch` for payload
/// storage: zero heap allocations once the scratch buffers are warm. Same
/// validation and errors as decode_record; `consumed` receives the frame
/// size. The view lives until the next decode into the same scratch (or the
/// frame buffer mutates).
[[nodiscard]] RecordView decode_record_view(const std::uint8_t* data,
                                            std::size_t len,
                                            std::size_t& consumed,
                                            WireScratch& scratch);

/// Incremental decoder: feed arbitrary chunks, pop completed records.
/// Used by TCP transport where frames arrive fragmented.
class WireDecoder {
 public:
  /// Append raw bytes received from the network.
  void feed(const std::uint8_t* data, std::size_t len);

  /// Try to decode the next complete record; returns false when more bytes
  /// are needed. Throws WireError on malformed input.
  [[nodiscard]] bool next(Record& out);

  /// View-based variant of next(): no per-frame allocation (the view's
  /// payload lives in an internal scratch reused across calls). The view is
  /// invalidated by the following feed()/next()/next_view() call.
  [[nodiscard]] bool next_view(RecordView& out);

  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// True iff the buffered bytes begin with `prefix` (used by transports to
  /// detect in-band control markers such as the TCP end-of-stream sentinel).
  [[nodiscard]] bool front_matches(const std::uint8_t* prefix,
                                   std::size_t len) const;

  /// Total bytes the decoder has memmoved while compacting its buffer —
  /// pinned by tests to prove burst decoding stays linear (amortized O(1)
  /// compaction per consumed byte).
  [[nodiscard]] std::size_t compacted_bytes() const { return compacted_; }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t compacted_ = 0;
  WireScratch scratch_;
};

}  // namespace dynriver::river
