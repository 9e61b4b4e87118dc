#include "ts/znorm.hpp"

#include <cmath>

#include "dsp/simd.hpp"

namespace dynriver::ts {

std::vector<float> znormalize(std::span<const float> series) {
  std::vector<float> out(series.begin(), series.end());
  znormalize_inplace(out);
  return out;
}

void znormalize_inplace(std::span<float> series) {
  if (series.empty()) return;
  // One fused mean/variance sweep plus one vectorized apply sweep, instead
  // of the former three passes (mean, centered squares, apply).
  double mu = 0.0;
  double var = 0.0;
  dsp::simd::mean_var_f32(series.data(), series.size(), &mu, &var);
  const double sigma = std::sqrt(var);
  if (sigma < kZnormEpsilon) {
    for (auto& v : series) v = 0.0F;
    return;
  }
  dsp::simd::normalize_f32(series.data(), series.data(), series.size(),
                           static_cast<float>(mu),
                           static_cast<float>(1.0 / sigma));
}

void StreamingZnorm::reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

}  // namespace dynriver::ts
