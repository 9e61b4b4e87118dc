#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/contracts.hpp"
#include "dsp/fft_plan.hpp"

namespace dynriver::dsp {

namespace {
constexpr double kPi = std::numbers::pi;
}  // namespace

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_radix2(std::span<Cplx> data, bool inverse) {
  const std::size_t n = data.size();
  DR_EXPECTS(is_power_of_two(n));
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * kPi / static_cast<double>(len) * (inverse ? 1 : -1);
    const Cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1, 0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = data[i + k];
        const Cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<Cplx> fft(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  std::vector<Cplx> out(n);
  local_plan_cache().get(n).forward(input, out);
  return out;
}

std::vector<Cplx> ifft(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  std::vector<Cplx> out(input.begin(), input.end());
  local_plan_cache().get(n).inverse(out);
  return out;
}

std::vector<Cplx> dft_naive(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  std::vector<Cplx> out(n, Cplx(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    Cplx acc(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k) * static_cast<double>(t) /
          static_cast<double>(n);
      acc += input[t] * Cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Cplx> fft_real(std::span<const float> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  std::vector<Cplx> out(n);
  local_plan_cache().get(n).forward_real(input, out);
  return out;
}

std::vector<float> magnitude_spectrum(std::span<const float> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  std::vector<float> mags(n);
  local_plan_cache().get(n).magnitudes(input, mags);
  return mags;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  DR_EXPECTS(n > 0);
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

std::size_t frequency_bin(double freq_hz, std::size_t n, double sample_rate) {
  DR_EXPECTS(n > 0);
  DR_EXPECTS(sample_rate > 0);
  const double k = freq_hz * static_cast<double>(n) / sample_rate;
  const auto bin = static_cast<std::size_t>(std::llround(std::max(0.0, k)));
  return std::min(bin, n - 1);
}

}  // namespace dynriver::dsp
