#include "ts/sax.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "dsp/simd.hpp"
#include "ts/paa.hpp"
#include "ts/znorm.hpp"

namespace dynriver::ts {

double inverse_normal_cdf(double p) {
  DR_EXPECTS(p > 0.0 && p < 1.0);

  // Acklam's algorithm: rational approximations on three regions.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

std::vector<double> sax_breakpoints(std::size_t alphabet) {
  DR_EXPECTS(alphabet >= 2 && alphabet <= 64);
  std::vector<double> breaks(alphabet - 1);
  for (std::size_t i = 1; i < alphabet; ++i) {
    breaks[i - 1] = inverse_normal_cdf(static_cast<double>(i) /
                                       static_cast<double>(alphabet));
  }
  return breaks;
}

std::vector<Symbol> discretize(std::span<const float> normalized,
                               std::span<const double> breakpoints) {
  std::vector<Symbol> out(normalized.size());
  dsp::simd::discretize_f32(normalized.data(), normalized.size(),
                            breakpoints.data(), breakpoints.size(), out.data());
  return out;
}

std::vector<Symbol> to_sax(std::span<const float> series, const SaxParams& params) {
  DR_EXPECTS(!series.empty());
  const auto normalized = znormalize(series);
  const auto breakpoints = sax_breakpoints(params.alphabet);
  if (params.segments == 0 || params.segments == series.size()) {
    return discretize(normalized, breakpoints);
  }
  const auto reduced = paa(normalized, params.segments);
  return discretize(reduced, breakpoints);
}

std::string sax_to_string(std::span<const Symbol> symbols, std::size_t alphabet) {
  std::string out;
  if (alphabet <= 26) {
    out.reserve(symbols.size());
    for (const Symbol s : symbols) out += static_cast<char>('a' + s);
    return out;
  }
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(static_cast<int>(symbols[i]) + 1);
  }
  return out;
}

double sax_min_dist(std::span<const Symbol> a, std::span<const Symbol> b,
                    std::size_t n, std::size_t alphabet) {
  DR_EXPECTS(a.size() == b.size());
  DR_EXPECTS(!a.empty());
  const auto breaks = sax_breakpoints(alphabet);

  // dist(r, c) = 0 when |r - c| <= 1, else beta[max(r,c)-1] - beta[min(r,c)].
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int r = static_cast<int>(a[i]);
    const int c = static_cast<int>(b[i]);
    if (std::abs(r - c) <= 1) continue;
    const int hi = std::max(r, c);
    const int lo = std::min(r, c);
    const double d = breaks[static_cast<std::size_t>(hi - 1)] -
                     breaks[static_cast<std::size_t>(lo)];
    acc += d * d;
  }
  const double w = static_cast<double>(a.size());
  return std::sqrt(static_cast<double>(n) / w) * std::sqrt(acc);
}

}  // namespace dynriver::ts
