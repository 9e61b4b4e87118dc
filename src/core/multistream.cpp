#include "core/multistream.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "core/stream_session.hpp"

namespace dynriver::core {

MultiStreamExtractor::MultiStreamExtractor(
    MultiStreamParams params, std::shared_ptr<const SpectralEngine> engine)
    : params_(std::move(params)), features_(params_.base, std::move(engine)) {
  params_.base.validate();
}

MultiExtractionResult MultiStreamExtractor::extract(
    std::span<const std::span<const float>> streams, bool keep_signals) const {
  // The session checks that every stream has the same length. It advances
  // one scorer per channel in lockstep, block-batched through the dsp::simd
  // kernels, so archive-scale clips never materialize score buffers.
  DR_EXPECTS(!streams.empty());
  SessionOptions options;
  if (keep_signals) options.tap_capacity = SignalTap::kUnbounded;
  MultiStreamSession session(params_, streams.size(), std::move(options),
                             features_.engine());
  session.push(streams);

  MultiExtractionResult result;
  result.ensembles = session.finish();
  if (keep_signals) result.fused_scores = session.tap().scores();
  return result;
}

std::vector<std::vector<std::vector<float>>> MultiStreamExtractor::featurize(
    const MultiEnsemble& ensemble) const {
  return detail::featurize_channels(features_, ensemble);
}

std::vector<std::vector<std::vector<float>>> detail::featurize_channels(
    const FeatureExtractor& features, const MultiEnsemble& ensemble) {
  std::vector<std::vector<std::vector<float>>> out;
  out.reserve(ensemble.channel_samples.size());
  for (const auto& channel : ensemble.channel_samples) {
    out.push_back(features.patterns(channel));
  }
  return out;
}

std::vector<float> augment_with_context(std::span<const float> pattern,
                                        std::span<const float> context,
                                        double context_gain) {
  DR_EXPECTS(!pattern.empty());
  DR_EXPECTS(context_gain >= 0.0);

  double energy = 0.0;
  for (const float v : pattern) energy += static_cast<double>(v) * v;
  const double rms = std::sqrt(energy / static_cast<double>(pattern.size()));

  std::vector<float> out(pattern.begin(), pattern.end());
  out.reserve(pattern.size() + context.size());
  const auto scale = static_cast<float>(rms * context_gain);
  for (const float c : context) out.push_back(c * scale);
  return out;
}

}  // namespace dynriver::core
