#include "eval/corpus_cache.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

#include "common/contracts.hpp"

namespace dynriver::eval {

namespace {

constexpr std::uint32_t kMagic = 0x44524343;    // "DRCC"
// Bump whenever featurize output changes numerically (for example when the
// FFT algorithm changes), not only when the layout does: the fingerprint
// covers config fields only, so a stale file would otherwise still load.
constexpr std::uint32_t kFormatVersion = 2;

// -- fingerprint --------------------------------------------------------------

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v ? 1 : 0)); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// -- primitive readers/writers ------------------------------------------------

template <typename T>
void put(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool get(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return is.good();
}

void put_string(std::ostream& os, const std::string& s) {
  put(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool get_string(std::istream& is, std::string& s) {
  std::uint64_t len = 0;
  if (!get(is, len) || len > (1ULL << 20)) return false;
  s.resize(static_cast<std::size_t>(len));
  is.read(s.data(), static_cast<std::streamsize>(len));
  return is.good() || (len == 0 && !is.bad());
}

void put_floats(std::ostream& os, const std::vector<float>& v) {
  put(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

bool get_floats(std::istream& is, std::vector<float>& v) {
  std::uint64_t len = 0;
  if (!get(is, len) || len > (1ULL << 32)) return false;
  v.resize(static_cast<std::size_t>(len));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  return !is.bad() && (len == 0 || is.good());
}

// -- dataset / stats sections -------------------------------------------------

void put_dataset(std::ostream& os, const Dataset& data) {
  put(os, static_cast<std::uint64_t>(data.num_classes));
  put(os, static_cast<std::uint64_t>(data.ensembles.size()));
  for (const auto& e : data.ensembles) {
    put(os, static_cast<std::int64_t>(e.label));
    put(os, e.clip_id);
    put(os, static_cast<std::uint64_t>(e.start_sample));
    put(os, static_cast<std::uint64_t>(e.length));
    put(os, static_cast<std::uint64_t>(e.patterns.size()));
    for (const auto& p : e.patterns) put_floats(os, p);
  }
}

bool get_dataset(std::istream& is, Dataset& data) {
  std::uint64_t num_classes = 0;
  std::uint64_t count = 0;
  if (!get(is, num_classes) || !get(is, count)) return false;
  if (num_classes > (1ULL << 16) || count > (1ULL << 32)) return false;
  data.num_classes = static_cast<std::size_t>(num_classes);
  data.ensembles.resize(static_cast<std::size_t>(count));
  for (auto& e : data.ensembles) {
    std::int64_t label = 0;
    std::uint64_t start = 0;
    std::uint64_t length = 0;
    std::uint64_t patterns = 0;
    if (!get(is, label) || !get(is, e.clip_id) || !get(is, start) ||
        !get(is, length) || !get(is, patterns) || patterns > (1ULL << 32)) {
      return false;
    }
    e.label = static_cast<int>(label);
    e.start_sample = static_cast<std::size_t>(start);
    e.length = static_cast<std::size_t>(length);
    e.patterns.resize(static_cast<std::size_t>(patterns));
    for (auto& p : e.patterns) {
      if (!get_floats(is, p)) return false;
    }
  }
  return true;
}

void put_stats(std::ostream& os, const CorpusStats& stats) {
  for (const auto& sp : stats.species) {
    put_string(os, sp.code);
    put(os, static_cast<std::int64_t>(sp.planted));
    put(os, static_cast<std::int64_t>(sp.validated_ensembles));
    put(os, static_cast<std::int64_t>(sp.patterns));
  }
  put(os, static_cast<std::uint64_t>(stats.clips));
  put(os, static_cast<std::uint64_t>(stats.total_samples));
  put(os, static_cast<std::uint64_t>(stats.extracted_ensembles));
  put(os, static_cast<std::uint64_t>(stats.retained_samples));
  put(os, static_cast<std::uint64_t>(stats.rejected_ensembles));
  put(os, static_cast<std::uint64_t>(stats.missed_songs));
  put(os, stats.build_seconds);
}

bool get_stats(std::istream& is, CorpusStats& stats) {
  for (auto& sp : stats.species) {
    std::int64_t planted = 0;
    std::int64_t validated = 0;
    std::int64_t patterns = 0;
    if (!get_string(is, sp.code) || !get(is, planted) || !get(is, validated) ||
        !get(is, patterns)) {
      return false;
    }
    sp.planted = static_cast<int>(planted);
    sp.validated_ensembles = static_cast<int>(validated);
    sp.patterns = static_cast<int>(patterns);
  }
  std::uint64_t clips = 0;
  std::uint64_t total = 0;
  std::uint64_t extracted = 0;
  std::uint64_t retained = 0;
  std::uint64_t rejected = 0;
  std::uint64_t missed = 0;
  if (!get(is, clips) || !get(is, total) || !get(is, extracted) ||
      !get(is, retained) || !get(is, rejected) || !get(is, missed) ||
      !get(is, stats.build_seconds)) {
    return false;
  }
  stats.clips = static_cast<std::size_t>(clips);
  stats.total_samples = static_cast<std::size_t>(total);
  stats.extracted_ensembles = static_cast<std::size_t>(extracted);
  stats.retained_samples = static_cast<std::size_t>(retained);
  stats.rejected_ensembles = static_cast<std::size_t>(rejected);
  stats.missed_songs = static_cast<std::size_t>(missed);
  return true;
}

}  // namespace

std::uint64_t corpus_fingerprint(const BuildConfig& config) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(kFormatVersion));
  h.mix(config.seed);
  h.mix(config.corpus_scale);
  h.mix(config.songs_per_clip);
  h.mix(config.validation_overlap);
  for (const int songs : config.songs_per_species) h.mix(songs);

  const core::PipelineParams& p = config.params;
  h.mix(p.sample_rate);
  h.mix(p.record_size);
  h.mix(p.anomaly.window);
  h.mix(p.anomaly.alphabet);
  h.mix(p.anomaly.level);
  h.mix(p.anomaly.ma_window);
  h.mix(p.anomaly.frame);
  h.mix(p.trigger_sigma);
  h.mix(p.trigger_min_baseline);
  h.mix(p.trigger_hold_samples);
  h.mix(p.min_ensemble_samples);
  h.mix(p.merge_gap_samples);
  h.mix(p.reslice);
  h.mix(static_cast<std::uint64_t>(p.window));
  h.mix(p.dft_size);
  h.mix(p.cutout_lo_hz);
  h.mix(p.cutout_hi_hz);
  // use_paa is forced off for the master set, but the PAA factor shapes the
  // derived paa_dataset.
  h.mix(p.paa_factor);
  h.mix(p.pattern_merge);
  h.mix(p.pattern_stride);

  const synth::StationParams& st = config.station;
  h.mix(st.sample_rate);
  h.mix(st.clip_seconds);
  h.mix(st.noise.wind);
  h.mix(st.noise.human);
  h.mix(st.noise.ambient);
  h.mix(st.song_gain);
  h.mix(st.distractor_probability);
  h.mix(st.min_event_gap_s);
  h.mix(st.warmup_margin_s);
  return h.value();
}

std::filesystem::path corpus_cache_path(const std::filesystem::path& dir,
                                        const BuildConfig& config) {
  std::ostringstream name;
  name << "corpus_v" << kFormatVersion << "_" << std::hex
       << corpus_fingerprint(config) << ".drc";
  return dir / name.str();
}

bool save_corpus(const std::filesystem::path& path, const BuildConfig& config,
                 const BuildResult& result) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  // Write to a temp sibling and rename so readers never see a torn file.
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    put(os, kMagic);
    put(os, kFormatVersion);
    put(os, corpus_fingerprint(config));
    put_stats(os, result.stats);
    put_dataset(os, result.dataset);
    put_dataset(os, result.paa_dataset);
    // close() flushes the buffered tail; a full disk can fail right there,
    // so check the stream state after the close, not just before it.
    os.close();
    if (!os.good()) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<BuildResult> load_corpus(const std::filesystem::path& path,
                                       const BuildConfig& config) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  if (!get(is, magic) || magic != kMagic) return std::nullopt;
  if (!get(is, version) || version != kFormatVersion) return std::nullopt;
  if (!get(is, fingerprint) || fingerprint != corpus_fingerprint(config)) {
    return std::nullopt;
  }

  // A corrupt body can still carry header-plausible but absurd counts;
  // treat allocation failure like any other malformed-file case.
  try {
    BuildResult result;
    if (!get_stats(is, result.stats)) return std::nullopt;
    if (!get_dataset(is, result.dataset)) return std::nullopt;
    if (!get_dataset(is, result.paa_dataset)) return std::nullopt;
    return result;
  } catch (const std::bad_alloc&) {
    return std::nullopt;
  } catch (const std::length_error&) {
    return std::nullopt;
  }
}

BuildResult load_or_build_corpus(const BuildConfig& config,
                                 const std::filesystem::path& dir,
                                 bool* cache_hit) {
  const std::filesystem::path path = corpus_cache_path(dir, config);
  if (auto cached = load_corpus(path, config)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return std::move(*cached);
  }
  BuildResult result = build_corpus(config);
  (void)save_corpus(path, config, result);
  if (cache_hit != nullptr) *cache_hit = false;
  return result;
}

}  // namespace dynriver::eval
