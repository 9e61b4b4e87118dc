// Discrete Fourier transforms.
//
// The paper's `dft` operator computes the discrete Fourier transform of each
// (windowed) ensemble record. The repository default record length is 900
// samples (see DESIGN.md section 3), so a power-of-2-only FFT is not enough:
// the plan-cached transforms (dsp/fft_plan.hpp) run radix-2 for powers of
// two, a mixed-radix Stockham chain for other sizes whose prime factors are
// all <= 5 (900 = 2^2*3^2*5^2), and Bluestein's chirp-z algorithm for the
// rest. This header also keeps the plain iterative radix-2 FFT and a naive
// O(n^2) DFT as a cross-check reference.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace dynriver::dsp {

using Cplx = std::complex<double>;

/// True iff n is a power of two (n >= 1).
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// In-place iterative radix-2 Cooley-Tukey FFT. Requires power-of-2 size.
/// `inverse` computes the unscaled inverse transform (caller divides by n).
void fft_radix2(std::span<Cplx> data, bool inverse);

/// FFT for arbitrary sizes: radix-2 for powers of two, mixed-radix Stockham
/// for other 5-smooth sizes, Bluestein otherwise (FftPlan picks).
/// Forward transform, no normalization. Plan-cached: transforms of a size
/// seen before on this thread reuse precomputed tables (see dsp/fft_plan.hpp).
[[nodiscard]] std::vector<Cplx> fft(std::span<const Cplx> input);

/// Inverse FFT for arbitrary sizes, normalized by 1/n. Plan-cached.
[[nodiscard]] std::vector<Cplx> ifft(std::span<const Cplx> input);

/// Reference naive DFT (O(n^2)); used by tests and the micro benches.
[[nodiscard]] std::vector<Cplx> dft_naive(std::span<const Cplx> input);

/// Forward DFT of a real signal; returns the full n-point complex spectrum.
/// Plan-cached.
[[nodiscard]] std::vector<Cplx> fft_real(std::span<const float> input);

/// Magnitude spectrum |X[k]| of a real signal, k = 0 .. n-1. Plan-cached.
[[nodiscard]] std::vector<float> magnitude_spectrum(std::span<const float> input);

/// Frequency (Hz) of bin k for an n-point transform at `sample_rate`.
[[nodiscard]] double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

/// Bin index whose center frequency is closest to `freq_hz` (clamped to n-1).
[[nodiscard]] std::size_t frequency_bin(double freq_hz, std::size_t n,
                                        double sample_rate);

}  // namespace dynriver::dsp
