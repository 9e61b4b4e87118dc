// Shared helpers for the dynriver test suites.
//
// Replaces the per-suite copies of temp-file bookkeeping, tolerance
// comparators, synthetic-signal generators, and fixed-seed station
// recordings that used to be duplicated across tests/*.cpp.
#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "river/record.hpp"
#include "river/sample_io.hpp"
#include "synth/station.hpp"

namespace dynriver::testsupport {

// ---------------------------------------------------------------------------
// Temp-dir fixture
// ---------------------------------------------------------------------------

/// RAII directory under the system temp dir, recursively removed on
/// destruction. Usable standalone or via TempDirTest.
class ScopedTempDir {
 public:
  /// @param tag short human-readable component of the directory name.
  explicit ScopedTempDir(const std::string& tag = "dynriver");
  ~ScopedTempDir();

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }
  /// Path of a (not yet created) file inside the directory.
  [[nodiscard]] std::filesystem::path file(const std::string& name) const {
    return dir_ / name;
  }

 private:
  std::filesystem::path dir_;
};

/// gtest fixture owning a fresh ScopedTempDir per test.
class TempDirTest : public ::testing::Test {
 protected:
  [[nodiscard]] const std::filesystem::path& temp_dir() const {
    return dir_.path();
  }
  [[nodiscard]] std::filesystem::path temp_file(const std::string& name) const {
    return dir_.file(name);
  }

 private:
  ScopedTempDir dir_;
};

// ---------------------------------------------------------------------------
// Corruption drills
// ---------------------------------------------------------------------------
//
// Shared sweeps for the "hostile bytes" suites: every decoder that reads
// untrusted input gets the same exhaustive single-bit-flip and
// truncate-at-every-byte treatment (segment files, flat record logs, wire
// frames). Promoted from per-suite copies in test_river_segment_store.

/// Whole file as bytes; ADD_FAILUREs (and returns empty) if it cannot open.
std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path);

/// Truncate-and-write the file to exactly these bytes.
void write_file_bytes(const std::filesystem::path& path,
                      const std::uint8_t* data, std::size_t size);
void write_file_bytes(const std::filesystem::path& path,
                      const std::vector<std::uint8_t>& bytes);

/// In-memory sweep: for every byte position not excused by skip(), call
/// check(damaged, at) with bit 0 of byte `at` flipped. The pristine buffer
/// is never modified.
void sweep_bit_flips(
    const std::vector<std::uint8_t>& pristine,
    const std::function<void(const std::vector<std::uint8_t>&, std::size_t)>&
        check,
    const std::function<bool(std::size_t)>& skip = {});

/// On-disk sweep: snapshot the file, then for every byte position not
/// excused by skip() rewrite it with bit 0 of that byte flipped and call
/// check(at). The pristine file is restored afterwards — including when a
/// check throws or fails fatally (RAII).
void sweep_file_bit_flips(const std::filesystem::path& path,
                          const std::function<void(std::size_t)>& check,
                          const std::function<bool(std::size_t)>& skip = {});

/// On-disk sweep: truncate the file to every length in {0, stride,
/// 2*stride, ...} strictly below its size and call check(len); restores the
/// pristine file afterwards exactly like sweep_file_bit_flips.
void sweep_file_truncations(const std::filesystem::path& path,
                            const std::function<void(std::size_t)>& check,
                            std::size_t stride = 1);

// ---------------------------------------------------------------------------
// Tolerance comparators
// ---------------------------------------------------------------------------

/// Largest absolute element-wise difference; ADD_FAILUREs on size mismatch
/// and returns +inf so callers' EXPECT_LT comparisons fail loudly.
double max_abs_error(const std::vector<std::complex<double>>& a,
                     const std::vector<std::complex<double>>& b);
double max_abs_error(const std::vector<float>& a, const std::vector<float>& b);
double max_abs_error(const std::vector<double>& a,
                     const std::vector<double>& b);

// ---------------------------------------------------------------------------
// Deterministic synthetic signals
// ---------------------------------------------------------------------------

/// Uniform [-1,1) complex samples from a fixed mt19937 seed.
std::vector<std::complex<double>> random_complex_signal(std::size_t n,
                                                        unsigned seed);

/// Gaussian noise (sigma 0.1) with one continuous 0.05-cycles/sample tone of
/// amplitude 0.8 added over [tone_start, tone_start + tone_len).
std::vector<float> noise_with_tone(std::size_t n, std::size_t tone_start,
                                   std::size_t tone_len, unsigned seed);

/// Noise with a syllable-like event: tone bursts of 1200 samples separated
/// by 600-sample gaps (the envelope structure real vocalizations have).
std::vector<float> noise_with_bursts(std::size_t n, std::size_t start,
                                     std::size_t len, unsigned seed);

/// Periodic signal with one planted anomaly (a phase-inverted cycle).
std::vector<float> periodic_with_anomaly(std::size_t n, std::size_t period,
                                         std::size_t anomaly_at);

// ---------------------------------------------------------------------------
// Fixed-seed synth station recordings
// ---------------------------------------------------------------------------

/// Record one clip from a default-parameter SensorStation with the given
/// singers. Distractors default OFF so tests see exactly the singers they
/// asked for; pass the station default (0.15) to restore them.
synth::ClipRecording record_station_clip(
    std::uint64_t seed, const std::vector<synth::SpeciesId>& singers,
    double distractor_probability = 0.0);

// ---------------------------------------------------------------------------
// Operator-pipeline output
// ---------------------------------------------------------------------------

/// Reconstruct the ensembles from a cutter-stage record stream: the audio
/// data records inside each ensemble scope, concatenated.
std::vector<river::Ensemble> ensembles_from_records(
    const std::vector<river::Record>& records);

}  // namespace dynriver::testsupport
