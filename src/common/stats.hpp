// Numerically stable running statistics (Welford) plus small helpers shared by
// the evaluation harness and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dynriver {

/// Incremental mean/variance accumulator (Welford's algorithm).
///
/// Used by the evaluation harness (mean +/- std over experiment
/// repetitions).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  /// Remove-free reset.
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sample_stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of a span; 0 for an empty span.
[[nodiscard]] double mean_of(std::span<const double> xs);
[[nodiscard]] double mean_of(std::span<const float> xs);

/// Population standard deviation of a span; 0 for spans shorter than 2.
[[nodiscard]] double stddev_of(std::span<const double> xs);
[[nodiscard]] double stddev_of(std::span<const float> xs);

}  // namespace dynriver
