// Multi-stream ensemble extraction (the paper's future work, Section 6).
//
// "Currently, we have extracted ensembles from data streams comprising a
// single signal. [...] extracting ensembles from multiple correlated data
// streams may enhance classification and detection of time series events.
// For instance, species identification may be more accurate when acoustic
// data is coupled with geographic, weather or other information."
//
// This module implements both halves of that proposal:
//  1. MultiStreamExtractor -- runs one SAX anomaly scorer per synchronized
//     stream (e.g. two microphones of a station), fuses the smoothed scores
//     (max or mean), and drives a single adaptive trigger from the fused
//     score. Events visible in any stream cut ensembles from every stream
//     at identical boundaries, keeping them sample-aligned for downstream
//     multi-channel features.
//  2. augment_with_context -- appends normalized side-channel readings
//     (temperature, wind speed, time of day, ...) to a spectral pattern so
//     MESO can exploit environmental correlations.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/params.hpp"

namespace dynriver::core {

enum class ScoreFusion : std::uint8_t {
  kMax,   ///< an event in any stream triggers (union sensitivity)
  kMean,  ///< consensus: all streams must lean anomalous
};

struct MultiStreamParams {
  PipelineParams base;
  ScoreFusion fusion = ScoreFusion::kMax;
};

/// One extracted multi-channel ensemble: identical boundaries per stream.
struct MultiEnsemble {
  std::size_t start_sample = 0;
  std::size_t length = 0;
  /// channel_samples[s] holds the cut from stream s (all of size `length`).
  std::vector<std::vector<float>> channel_samples;

  [[nodiscard]] std::size_t end_sample() const { return start_sample + length; }
};

struct MultiExtractionResult {
  std::vector<MultiEnsemble> ensembles;
  /// Fused smoothed score per sample (filled when keep_signals).
  std::vector<float> fused_scores;
};

class MultiStreamExtractor {
 public:
  /// `engine` lets the extractor share one SpectralEngine with the rest of
  /// the pipeline; nullptr builds a private engine from `params.base`.
  explicit MultiStreamExtractor(
      MultiStreamParams params,
      std::shared_ptr<const SpectralEngine> engine = nullptr);

  /// Extract from `streams` (all the same length, sample-synchronized).
  /// A single stream reduces exactly to EnsembleExtractor's behaviour.
  [[nodiscard]] MultiExtractionResult extract(
      std::span<const std::span<const float>> streams,
      bool keep_signals = false) const;

  /// Spectral patterns per channel of one multi-ensemble, computed through
  /// the shared SpectralEngine: result[s] holds channel s's patterns.
  [[nodiscard]] std::vector<std::vector<std::vector<float>>> featurize(
      const MultiEnsemble& ensemble) const;

  [[nodiscard]] const MultiStreamParams& params() const { return params_; }
  [[nodiscard]] const std::shared_ptr<const SpectralEngine>& engine() const {
    return features_.engine();
  }

 private:
  MultiStreamParams params_;
  FeatureExtractor features_;  ///< shares the engine; powers featurize()
};

namespace detail {
/// Spectral patterns per channel of one multi-ensemble through `features`:
/// result[s] holds channel s's patterns. The one body behind
/// MultiStreamExtractor::featurize and MultiStreamSession::featurize.
[[nodiscard]] std::vector<std::vector<std::vector<float>>> featurize_channels(
    const FeatureExtractor& features, const MultiEnsemble& ensemble);
}  // namespace detail

/// Append context readings to a feature pattern. Context values are scaled
/// by `context_gain` relative to the pattern's RMS so the side channel
/// informs rather than dominates the Euclidean distance.
[[nodiscard]] std::vector<float> augment_with_context(
    std::span<const float> pattern, std::span<const float> context,
    double context_gain = 1.0);

}  // namespace dynriver::core
