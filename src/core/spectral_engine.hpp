// The shared spectral execution engine.
//
// Every spectral consumer in the codebase — the river operators
// (welchwindow/dft), the batch FeatureExtractor, the extractor facades, and
// dsp::stft via the same underlying plan cache — used to build its own
// windows and run unplanned FFTs with per-call scratch. SpectralEngine
// centralizes that: it owns the transform geometry (window kind + DFT size)
// and executes every transform through plan-cached FFTs (dsp::FftPlan) with
// reusable per-thread scratch.
//
// Thread model: the engine itself is immutable after construction; all
// mutable execution state (FFT plans, window tables, pad/spectrum scratch)
// lives in thread-local storage. One engine can therefore be shared by
// reference across a whole pipeline — and across threads (e.g. the
// SessionScheduler's lanes) — without locking.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "dsp/window.hpp"

namespace dynriver::core {

class SpectralEngine {
 public:
  SpectralEngine(dsp::WindowKind window, std::size_t dft_size);
  /// Geometry from pipeline parameters (window kind + dft_size).
  explicit SpectralEngine(const PipelineParams& params);

  [[nodiscard]] std::size_t dft_size() const { return dft_size_; }
  [[nodiscard]] dsp::WindowKind window_kind() const { return window_; }

  /// Apply the engine's analysis window in place. Window tables are cached
  /// per (kind, length) in thread-local storage, so partial trailing records
  /// cost one table build per thread, not one per record.
  void apply_window(std::span<float> record) const;

  /// Windowed magnitude spectrum of one analysis record: windows a copy of
  /// `record` (record.size() <= dft_size()), zero-pads to dft_size(), and
  /// writes the dft_size() magnitudes |X[k]| into `out`.
  void windowed_magnitudes(std::span<const float> record,
                           std::vector<float>& out) const;

  /// Batched windowed magnitude spectra: `records` is a row-major matrix of
  /// same-length records (records.size() must be a multiple of `record_len`,
  /// record_len <= dft_size()); writes count rows of dft_size() magnitudes
  /// into `out`. Bit-identical to calling windowed_magnitudes per row — the
  /// batch hoists the window table, FFT plan, and pad zeroing out of the
  /// record loop and streams each row through one cache-hot padded buffer
  /// (windowing fused with the copy), so per-record dispatch amortizes
  /// across a clip.
  void windowed_magnitudes_batch(std::span<const float> records,
                                 std::size_t record_len,
                                 std::vector<float>& out) const;

  /// Forward DFT of a float-complex payload, zero-padded (or truncated) to
  /// dft_size(); result narrowed back to float-complex in `out`.
  void dft(std::span<const std::complex<float>> in,
           std::vector<std::complex<float>>& out) const;

 private:
  dsp::WindowKind window_;
  std::size_t dft_size_;
};

}  // namespace dynriver::core
