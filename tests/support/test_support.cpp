#include "test_support.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <numbers>
#include <random>

#include <unistd.h>

namespace dynriver::testsupport {

namespace fs = std::filesystem;

ScopedTempDir::ScopedTempDir(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto base = fs::temp_directory_path();
  // Distinguish parallel ctest processes by pid, same-process reuse by counter.
  const auto unique = tag + "_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1));
  dir_ = base / unique;
  fs::create_directories(dir_);
}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;  // best effort: never throw from a destructor
  fs::remove_all(dir_, ec);
}

std::vector<std::uint8_t> read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file_bytes(const fs::path& path, const std::uint8_t* data,
                      std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

void write_file_bytes(const fs::path& path,
                      const std::vector<std::uint8_t>& bytes) {
  write_file_bytes(path, bytes.data(), bytes.size());
}

namespace {

/// Restores a file to its snapshotted bytes on scope exit, so a sweep that
/// fails (or throws) mid-way never leaves the fixture's file damaged.
class PristineFileGuard {
 public:
  explicit PristineFileGuard(fs::path path)
      : path_(std::move(path)), pristine_(read_file_bytes(path_)) {}
  ~PristineFileGuard() { write_file_bytes(path_, pristine_); }
  PristineFileGuard(const PristineFileGuard&) = delete;
  PristineFileGuard& operator=(const PristineFileGuard&) = delete;

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return pristine_;
  }

 private:
  fs::path path_;
  std::vector<std::uint8_t> pristine_;
};

}  // namespace

void sweep_bit_flips(
    const std::vector<std::uint8_t>& pristine,
    const std::function<void(const std::vector<std::uint8_t>&, std::size_t)>&
        check,
    const std::function<bool(std::size_t)>& skip) {
  std::vector<std::uint8_t> damaged = pristine;
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    if (skip && skip(at)) continue;
    damaged[at] = static_cast<std::uint8_t>(damaged[at] ^ 0x01U);
    check(damaged, at);
    damaged[at] = pristine[at];
  }
}

void sweep_file_bit_flips(const fs::path& path,
                          const std::function<void(std::size_t)>& check,
                          const std::function<bool(std::size_t)>& skip) {
  PristineFileGuard guard(path);
  sweep_bit_flips(
      guard.bytes(),
      [&](const std::vector<std::uint8_t>& damaged, std::size_t at) {
        write_file_bytes(path, damaged);
        check(at);
      },
      skip);
}

void sweep_file_truncations(const fs::path& path,
                            const std::function<void(std::size_t)>& check,
                            std::size_t stride) {
  ASSERT_GT(stride, 0U);
  PristineFileGuard guard(path);
  for (std::size_t len = 0; len < guard.bytes().size(); len += stride) {
    write_file_bytes(path, guard.bytes().data(), len);
    check(len);
  }
}

namespace {
template <typename T>
double max_abs_error_impl(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) {
    ADD_FAILURE() << "size mismatch: " << a.size() << " vs " << b.size();
    return std::numeric_limits<double>::infinity();
  }
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return err;
}
}  // namespace

double max_abs_error(const std::vector<std::complex<double>>& a,
                     const std::vector<std::complex<double>>& b) {
  return max_abs_error_impl(a, b);
}

double max_abs_error(const std::vector<float>& a, const std::vector<float>& b) {
  return max_abs_error_impl(a, b);
}

double max_abs_error(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return max_abs_error_impl(a, b);
}

std::vector<std::complex<double>> random_complex_signal(std::size_t n,
                                                        unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> out(n);
  for (auto& v : out) v = {dist(gen), dist(gen)};
  return out;
}

std::vector<float> noise_with_tone(std::size_t n, std::size_t tone_start,
                                   std::size_t tone_len, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0F, 0.1F);
  std::vector<float> x(n);
  for (auto& v : x) v = dist(gen);
  for (std::size_t i = tone_start; i < std::min(n, tone_start + tone_len); ++i) {
    x[i] += static_cast<float>(
        0.8 * std::sin(2.0 * std::numbers::pi * 0.05 * static_cast<double>(i)));
  }
  return x;
}

std::vector<float> noise_with_bursts(std::size_t n, std::size_t start,
                                     std::size_t len, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<float> dist(0.0F, 0.1F);
  std::vector<float> x(n);
  for (auto& v : x) v = dist(gen);
  for (std::size_t i = start; i < std::min(n, start + len); ++i) {
    const std::size_t phase = (i - start) % 1800;
    if (phase < 1200) {
      x[i] += static_cast<float>(
          0.8 * std::sin(2.0 * std::numbers::pi * 0.05 * static_cast<double>(i)));
    }
  }
  return x;
}

std::vector<float> periodic_with_anomaly(std::size_t n, std::size_t period,
                                         std::size_t anomaly_at) {
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                        static_cast<double>(period));
    if (i >= anomaly_at && i < anomaly_at + period) v = -v * 0.4 + 0.5;
    xs[i] = static_cast<float>(v);
  }
  return xs;
}

synth::ClipRecording record_station_clip(
    std::uint64_t seed, const std::vector<synth::SpeciesId>& singers,
    double distractor_probability) {
  synth::StationParams sp;
  sp.distractor_probability = distractor_probability;
  synth::SensorStation station(sp, seed);
  return station.record_clip(singers);
}

std::vector<river::Ensemble> ensembles_from_records(
    const std::vector<river::Record>& records) {
  std::vector<river::Ensemble> out;
  bool in_ensemble = false;
  river::Ensemble current;
  for (const auto& rec : records) {
    if (rec.type == river::RecordType::kOpenScope &&
        rec.scope_type == river::kScopeEnsemble) {
      in_ensemble = true;
      current.start_sample = static_cast<std::size_t>(
          rec.attr_int(river::kAttrStartSample, -1));
      current.samples.clear();
    } else if ((rec.type == river::RecordType::kCloseScope ||
                rec.type == river::RecordType::kBadCloseScope) &&
               rec.scope_type == river::kScopeEnsemble) {
      in_ensemble = false;
      out.push_back(std::move(current));
      current = {};
    } else if (in_ensemble && rec.type == river::RecordType::kData &&
               rec.subtype == river::kSubtypeAudio && rec.is_float()) {
      const auto f = rec.floats();
      current.samples.insert(current.samples.end(), f.begin(), f.end());
    }
  }
  return out;
}

}  // namespace dynriver::testsupport
