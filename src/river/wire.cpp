#include "river/wire.hpp"

#include <array>
#include <cstring>

#include "common/checked.hpp"
#include "common/contracts.hpp"
#include "river/bitpack.hpp"
#include "river/crc_slices.hpp"

namespace dynriver::river {

namespace {

namespace checked = common::checked;

// -- little-endian primitives -------------------------------------------------

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::array<std::uint8_t, sizeof(T)> raw;
  std::memcpy(raw.data(), &value, sizeof(T));
  out.insert(out.end(), raw.begin(), raw.end());
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void read_bytes(std::uint8_t* dst, std::size_t n) {
    require(n);
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  [[nodiscard]] const std::uint8_t* cursor() const { return data_ + pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }

 private:
  void require(std::size_t n) const {
    // pos_ <= len_ is a class invariant, so the subtraction cannot wrap the
    // way the naive `pos_ + n > len_` sum can for an attacker-sized n.
    if (n > len_ - pos_) throw WireTruncated("truncated record frame");
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

constexpr std::uint8_t kAttrTagInt = 0;
constexpr std::uint8_t kAttrTagDouble = 1;
constexpr std::uint8_t kAttrTagString = 2;

/// Walk one attribute entry (validating lengths); returns the key and a
/// typed view of the value. Used by the view decoder's validation pass, the
/// lazy attr getters, and materialize() — one parser, three consumers.
struct AttrEntry {
  std::string_view key;
  std::uint8_t tag = 0;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::string_view string_value;
};

AttrEntry parse_attr(Reader& r) {
  AttrEntry e;
  const auto key_len = r.get<std::uint16_t>();
  if (key_len > r.remaining()) throw WireTruncated("truncated attribute key");
  e.key = std::string_view(reinterpret_cast<const char*>(r.cursor()), key_len);
  r.skip(key_len);
  e.tag = r.get<std::uint8_t>();
  switch (e.tag) {
    case kAttrTagInt:
      e.int_value = r.get<std::int64_t>();
      break;
    case kAttrTagDouble:
      e.double_value = r.get<double>();
      break;
    case kAttrTagString: {
      const auto slen = r.get<std::uint32_t>();
      if (slen > r.remaining()) throw WireTruncated("truncated attribute value");
      e.string_value =
          std::string_view(reinterpret_cast<const char*>(r.cursor()), slen);
      r.skip(slen);
      break;
    }
    default:
      throw WireError("unknown attribute tag");
  }
  return e;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  // Slicing-by-8: ~8x the throughput of the classic one-table loop, which
  // had become the dominant cost of archive replay (see crc_slices.hpp).
  return detail::CrcSlices<0xEDB88320u>::update(seed ^ 0xFFFFFFFFu, data, len) ^
         0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_record(const Record& rec, PayloadCodec codec) {
  std::vector<std::uint8_t> out;
  encode_record_into(rec, codec, out);
  return out;
}

void encode_record_into(const Record& rec, PayloadCodec codec,
                        std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(64 + rec.payload_bytes());

  const bool pack = codec == PayloadCodec::kPacked && rec.is_float();

  put<std::uint32_t>(out, kWireMagic);
  put<std::uint16_t>(out, kWireVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(rec.type));
  put<std::uint8_t>(out, pack ? kPayTagPackedFloats
                              : static_cast<std::uint8_t>(rec.payload.index()));
  put<std::uint32_t>(out, rec.subtype);
  put<std::uint32_t>(out, rec.scope_depth);
  put<std::uint32_t>(out, rec.scope_type);
  put<std::uint64_t>(out, rec.sequence);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(rec.attrs.size()));
  put<std::uint64_t>(out, static_cast<std::uint64_t>(rec.payload_size()));

  for (const auto& [key, value] : rec.attrs) {
    DR_EXPECTS(key.size() <= 0xFFFF);
    put<std::uint16_t>(out, static_cast<std::uint16_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    if (const auto* iv = std::get_if<std::int64_t>(&value)) {
      put<std::uint8_t>(out, kAttrTagInt);
      put<std::int64_t>(out, *iv);
    } else if (const auto* dv = std::get_if<double>(&value)) {
      put<std::uint8_t>(out, kAttrTagDouble);
      put<double>(out, *dv);
    } else {
      const auto& s = std::get<std::string>(value);
      put<std::uint8_t>(out, kAttrTagString);
      put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
      out.insert(out.end(), s.begin(), s.end());
    }
  }

  if (pack) {
    // u32 packed byte length, patched once the packed stream is written.
    const std::size_t len_pos = out.size();
    put<std::uint32_t>(out, 0);
    const std::size_t packed =
        bitpack::pack_floats(std::get<FloatVec>(rec.payload), out);
    std::uint32_t packed_u32;
    DR_EXPECTS(packed <= 0xFFFFFFFFu);
    packed_u32 = static_cast<std::uint32_t>(packed);
    std::memcpy(out.data() + len_pos, &packed_u32, 4);
  } else {
    std::visit(
        [&out](const auto& p) {
          using T = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<T, std::monostate>) {
            // no payload bytes
          } else if constexpr (std::is_same_v<T, ByteVec>) {
            out.insert(out.end(), p.begin(), p.end());
          } else if constexpr (std::is_same_v<T, FloatVec>) {
            const std::size_t at = out.size();
            out.resize(at + 4 * p.size());
            if (!p.empty()) std::memcpy(out.data() + at, p.data(), 4 * p.size());
          } else if constexpr (std::is_same_v<T, CplxVec>) {
            const std::size_t at = out.size();
            out.resize(at + 8 * p.size());
            if (!p.empty()) std::memcpy(out.data() + at, p.data(), 8 * p.size());
          }
        },
        rec.payload);
  }

  const std::uint32_t crc = crc32(out.data() + 4, out.size() - 4);
  put<std::uint32_t>(out, crc);
}

RecordView decode_record_view(const std::uint8_t* data, std::size_t len,
                              std::size_t& consumed, WireScratch& scratch) {
  Reader r(data, len);
  const auto magic = r.get<std::uint32_t>();
  if (magic != kWireMagic) throw WireError("bad frame magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kWireVersion) throw WireError("unsupported wire version");

  RecordView view;
  const auto type_raw = r.get<std::uint8_t>();
  if (type_raw > static_cast<std::uint8_t>(RecordType::kBadCloseScope)) {
    throw WireError("unknown record type");
  }
  view.type = static_cast<RecordType>(type_raw);
  view.pay_tag = r.get<std::uint8_t>();
  if (view.pay_tag > kPayTagPackedFloats) throw WireError("unknown payload tag");
  view.subtype = r.get<std::uint32_t>();
  view.scope_depth = r.get<std::uint32_t>();
  view.scope_type = r.get<std::uint32_t>();
  view.sequence = r.get<std::uint64_t>();
  view.nattr = r.get<std::uint32_t>();
  const auto paylen = r.get<std::uint64_t>();

  // Validate the attribute region in place; the lazy getters re-walk it.
  const std::size_t attrs_begin = r.pos();
  for (std::uint32_t i = 0; i < view.nattr; ++i) (void)parse_attr(r);
  view.attr_bytes = std::span<const std::uint8_t>(data + attrs_begin,
                                                  r.pos() - attrs_begin);

  // Every length below is validated BEFORE allocating — first against the
  // absolute payload cap (a too-large claim is corruption, full stop), then
  // against the remaining buffer — so a corrupted length field yields a
  // WireError rather than an attempted multi-gigabyte allocation. The cap
  // comparisons divide rather than multiply so they cannot themselves wrap.
  // Element sizes by pay_tag: none, raw bytes, f32, c64. Literals on
  // purpose: the wire format fixes them independent of host types.
  static constexpr std::size_t kElemSize[] = {0, 1, 4, 8};
  if (view.pay_tag != 0 &&
      paylen > kMaxWirePayloadBytes /
                   kElemSize[view.pay_tag == kPayTagPackedFloats
                                 ? 2
                                 : view.pay_tag]) {
    throw WireError("payload length exceeds wire cap");
  }
  if (view.pay_tag != 0 && view.pay_tag != kPayTagPackedFloats &&
      paylen > r.remaining() / kElemSize[view.pay_tag]) {
    throw WireTruncated("truncated record frame");
  }
  // The cap bounds paylen well inside std::size_t, so this cannot throw —
  // it exists to keep the u64 -> size_t conversion checked on every path.
  const auto count = checked::narrow<std::size_t, WireError>(
      paylen, "payload length exceeds wire cap");

  switch (view.pay_tag) {
    case 0:
      if (paylen != 0) throw WireError("empty payload with nonzero length");
      break;
    case 1:
      view.bytes = std::span<const std::uint8_t>(r.cursor(), count);
      r.skip(count);
      break;
    case 2: {
      // Copy into the scratch: payload bytes inside a frame are unaligned,
      // so a span over them would not be a valid span<const float>.
      const auto nbytes = checked::mul<WireError>(count, sizeof(float),
                                                  "float payload overflow");
      scratch.floats.resize(count);
      if (count > 0) {
        std::memcpy(scratch.floats.data(), r.cursor(), nbytes);
        r.skip(nbytes);
      }
      view.floats = scratch.floats;
      break;
    }
    case 3: {
      const auto nbytes = checked::mul<WireError>(
          count, sizeof(std::complex<float>), "complex payload overflow");
      scratch.cplx.resize(count);
      if (count > 0) {
        std::memcpy(scratch.cplx.data(), r.cursor(), nbytes);
        r.skip(nbytes);
      }
      view.cplx = scratch.cplx;
      break;
    }
    case kPayTagPackedFloats: {
      const auto packed_len = r.get<std::uint32_t>();
      if (packed_len > r.remaining()) {
        throw WireTruncated("truncated record frame");
      }
      // No packed mode yields more than kMaxPackedExpansion values per
      // stream byte, so a larger element count cannot be made consistent by
      // any stream content — reject before the structural walk ever runs.
      // (Fuzz-found: without this, a 41-byte frame declaring 2^62 elements
      // wrapped the walk's size arithmetic and drove a ~2^64-byte resize.)
      if (count / bitpack::kMaxPackedExpansion > packed_len) {
        throw WireError("packed payload inconsistent");
      }
      // Structural pre-walk: bounds the scratch resize by bytes actually
      // present and classifies errors. A stream inconsistent WITHIN its
      // declared packed_len cannot be fixed by more input — corruption.
      std::size_t used = 0;
      try {
        used = bitpack::packed_stream_bytes(r.cursor(), packed_len, count);
      } catch (const WireTruncated&) {
        throw WireError("packed payload inconsistent");
      }
      if (used != packed_len) throw WireError("packed payload inconsistent");
      scratch.floats.resize(count);
      (void)bitpack::unpack_floats(r.cursor(), packed_len,
                                   std::span<float>(scratch.floats));
      r.skip(packed_len);
      view.floats = scratch.floats;
      break;
    }
    default:
      throw WireError("unknown payload tag");
  }

  const std::size_t body_end = r.pos();
  const auto stored_crc = r.get<std::uint32_t>();
  const std::uint32_t actual_crc = crc32(data + 4, body_end - 4);
  if (stored_crc != actual_crc) throw WireError("record checksum mismatch");

  consumed = r.pos();
  return view;
}

bool RecordView::has_attr(std::string_view key) const {
  Reader r(attr_bytes.data(), attr_bytes.size());
  for (std::uint32_t i = 0; i < nattr; ++i) {
    if (parse_attr(r).key == key) return true;
  }
  return false;
}

std::int64_t RecordView::attr_int(std::string_view key,
                                  std::int64_t fallback) const {
  Reader r(attr_bytes.data(), attr_bytes.size());
  for (std::uint32_t i = 0; i < nattr; ++i) {
    const AttrEntry e = parse_attr(r);
    if (e.key == key) return e.tag == kAttrTagInt ? e.int_value : fallback;
  }
  return fallback;
}

double RecordView::attr_double(std::string_view key, double fallback) const {
  Reader r(attr_bytes.data(), attr_bytes.size());
  for (std::uint32_t i = 0; i < nattr; ++i) {
    const AttrEntry e = parse_attr(r);
    if (e.key == key) {
      return e.tag == kAttrTagDouble ? e.double_value : fallback;
    }
  }
  return fallback;
}

Record RecordView::materialize() const {
  Record rec;
  rec.type = type;
  rec.subtype = subtype;
  rec.scope_depth = scope_depth;
  rec.scope_type = scope_type;
  rec.sequence = sequence;
  switch (pay_tag) {
    case 0:
      rec.payload = std::monostate{};
      break;
    case 1:
      rec.payload = ByteVec(bytes.begin(), bytes.end());
      break;
    case 3:
      rec.payload = CplxVec(cplx.begin(), cplx.end());
      break;
    default:  // 2 or packed: both materialize as a FloatVec
      rec.payload = FloatVec(floats.begin(), floats.end());
      break;
  }
  Reader r(attr_bytes.data(), attr_bytes.size());
  for (std::uint32_t i = 0; i < nattr; ++i) {
    const AttrEntry e = parse_attr(r);
    switch (e.tag) {
      case kAttrTagInt:
        rec.attrs.emplace(std::string(e.key), e.int_value);
        break;
      case kAttrTagDouble:
        rec.attrs.emplace(std::string(e.key), e.double_value);
        break;
      default:
        rec.attrs.emplace(std::string(e.key), std::string(e.string_value));
        break;
    }
  }
  return rec;
}

Record decode_record(const std::uint8_t* data, std::size_t len,
                     std::size_t& consumed) {
  // One scratch per thread: decode_record stays allocation-equivalent to a
  // direct decode without giving every call site a WireScratch to thread.
  thread_local WireScratch scratch;
  return decode_record_view(data, len, consumed, scratch).materialize();
}

Record decode_record(const std::vector<std::uint8_t>& frame) {
  std::size_t consumed = 0;
  Record rec = decode_record(frame.data(), frame.size(), consumed);
  if (consumed != frame.size()) throw WireError("trailing bytes after frame");
  return rec;
}

void WireDecoder::feed(const std::uint8_t* data, std::size_t len) {
  // Reclaim consumed bytes before growing: feed time is the only moment the
  // buffer can expand, so compacting here keeps a drain loop memmove-free.
  compact();
  buf_.insert(buf_.end(), data, data + len);
}

bool WireDecoder::next(Record& out) {
  RecordView view;
  if (!next_view(view)) return false;
  out = view.materialize();
  return true;
}

bool WireDecoder::next_view(RecordView& out) {
  if (buf_.size() - pos_ < 4) return false;
  try {
    std::size_t consumed = 0;
    out = decode_record_view(buf_.data() + pos_, buf_.size() - pos_, consumed,
                             scratch_);
    pos_ += consumed;
    return true;
  } catch (const WireTruncated&) {
    // "Need more bytes" is recoverable by feeding more data; any other
    // WireError is genuine corruption and propagates.
    return false;
  }
}

bool WireDecoder::front_matches(const std::uint8_t* prefix, std::size_t len) const {
  if (buffered_bytes() < len) return false;
  return std::memcmp(buf_.data() + pos_, prefix, len) == 0;
}

void WireDecoder::compact() {
  if (pos_ == 0) return;
  if (pos_ == buf_.size()) {
    // Fully drained: dropping the contents is free (no memmove).
    buf_.clear();
    pos_ = 0;
    return;
  }
  // Amortized front compaction: only shift the tail once the consumed prefix
  // outweighs it, so a burst of n records costs O(n) total, not O(n^2).
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    compacted_ += buf_.size() - pos_;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

}  // namespace dynriver::river
