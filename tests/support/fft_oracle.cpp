#include "fft_oracle.hpp"

#include <cmath>
#include <numbers>

namespace dynriver::testsupport {

namespace {

/// Bluestein's chirp-z transform: expresses an arbitrary-length DFT as a
/// convolution, evaluated with a power-of-2 FFT.
std::vector<Cplx> bluestein(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  const std::size_t m = dsp::next_power_of_two(2 * n + 1);

  // chirp[k] = exp(-i*pi*k^2/n)
  std::vector<Cplx> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the argument small for numerical stability.
    const auto k2 = static_cast<double>((static_cast<unsigned long long>(k) * k) %
                                        (2 * n));
    const double angle = std::numbers::pi * k2 / static_cast<double>(n);
    chirp[k] = Cplx(std::cos(angle), -std::sin(angle));
  }

  std::vector<Cplx> a(m, Cplx(0, 0));
  for (std::size_t k = 0; k < n; ++k) a[k] = input[k] * chirp[k];

  std::vector<Cplx> b(m, Cplx(0, 0));
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    b[m - k] = std::conj(chirp[k]);
  }

  dsp::fft_radix2(a, /*inverse=*/false);
  dsp::fft_radix2(b, /*inverse=*/false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  dsp::fft_radix2(a, /*inverse=*/true);

  std::vector<Cplx> out(n);
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * scale * chirp[k];
  return out;
}

}  // namespace

std::vector<Cplx> fft_unplanned(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  if (dsp::is_power_of_two(n)) {
    std::vector<Cplx> data(input.begin(), input.end());
    dsp::fft_radix2(data, /*inverse=*/false);
    return data;
  }
  return bluestein(input);
}

std::vector<Cplx> ifft_unplanned(std::span<const Cplx> input) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  // IFFT via conjugation: ifft(x) = conj(fft(conj(x))) / n.
  std::vector<Cplx> conj_in(n);
  for (std::size_t i = 0; i < n; ++i) conj_in[i] = std::conj(input[i]);
  std::vector<Cplx> out = fft_unplanned(conj_in);
  const double scale = 1.0 / static_cast<double>(n);
  for (auto& v : out) v = std::conj(v) * scale;
  return out;
}

std::vector<Cplx> fft_real_unplanned(std::span<const float> input) {
  std::vector<Cplx> cplx_in(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    cplx_in[i] = Cplx(static_cast<double>(input[i]), 0.0);
  }
  return fft_unplanned(cplx_in);
}

std::vector<std::complex<long double>> dft_long_double(
    std::span<const Cplx> input) {
  using Cl = std::complex<long double>;
  const std::size_t n = input.size();
  std::vector<Cl> twiddle(n);
  for (std::size_t j = 0; j < n; ++j) {
    const long double angle = -2.0L * std::numbers::pi_v<long double> *
                              static_cast<long double>(j) /
                              static_cast<long double>(n);
    twiddle[j] = Cl(std::cos(angle), std::sin(angle));
  }
  std::vector<Cl> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Cl acc(0.0L, 0.0L);
    for (std::size_t j = 0; j < n; ++j) {
      const Cl x(input[j].real(), input[j].imag());
      acc += x * twiddle[(j * k) % n];
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace dynriver::testsupport
