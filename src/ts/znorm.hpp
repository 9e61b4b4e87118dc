// Z-normalization (paper, Section 2).
//
// An original sequence Q is Z-normalized element-wise: q_i = (q_i - mu) / sigma,
// where mu is the vector mean and sigma the standard deviation.
// Z-normalization "helps equalize similar acoustic patterns that differ in
// signal strength".
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace dynriver::ts {

/// Standard deviation floor: sequences with sigma below this are treated as
/// constant and normalize to all-zeros instead of amplifying noise.
inline constexpr double kZnormEpsilon = 1e-8;

/// Z-normalize out of place.
[[nodiscard]] std::vector<float> znormalize(std::span<const float> series);

/// Z-normalize in place.
void znormalize_inplace(std::span<float> series);

/// Incremental Z-normalizer for streaming use: tracks mean/std over all
/// samples seen so far and normalizes each new sample against them.
class StreamingZnorm {
 public:
  /// Observe a sample and return its normalized value. Until enough samples
  /// have arrived to estimate spread (2 samples), returns 0. Header-inline:
  /// the anomaly scorer's frame pass runs it once per symbol.
  float push(float x) {
    ++count_;
    const double delta = static_cast<double>(x) - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (static_cast<double>(x) - mean_);
    const double sigma = stddev();
    if (count_ < 2 || sigma < kZnormEpsilon) return 0.0F;
    return static_cast<float>((static_cast<double>(x) - mean_) / sigma);
  }

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double stddev() const {
    if (count_ < 2) return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_));
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  void reset();

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace dynriver::ts
