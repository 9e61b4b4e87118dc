#include "common/stats.hpp"

#include <cmath>

namespace dynriver {

void RunningStats::reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sample_stddev() const { return std::sqrt(sample_variance()); }

namespace {
template <typename T>
double mean_impl(std::span<const T> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const T x : xs) sum += static_cast<double>(x);
  return sum / static_cast<double>(xs.size());
}

template <typename T>
double stddev_impl(std::span<const T> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean_impl(xs);
  double acc = 0.0;
  for (const T x : xs) {
    const double d = static_cast<double>(x) - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}
}  // namespace

double mean_of(std::span<const double> xs) { return mean_impl(xs); }
double mean_of(std::span<const float> xs) { return mean_impl(xs); }
double stddev_of(std::span<const double> xs) { return stddev_impl(xs); }
double stddev_of(std::span<const float> xs) { return stddev_impl(xs); }

}  // namespace dynriver
