// Unplanned reference FFTs: the legacy implementations FftPlan replaced.
// They recompute twiddles and the Bluestein chirp and allocate scratch on
// every call. The plan-equivalence tests use them as an oracle and the
// micro benches as the planned-vs-legacy baseline; nothing in src/ calls
// them. A long-double naive DFT is the accuracy reference both the planned
// and the legacy paths are measured against. GTest-free, so the bench
// binaries can link it.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace dynriver::testsupport {

using dsp::Cplx;

/// Forward DFT, no normalization: radix-2 for powers of two, Bluestein
/// otherwise.
[[nodiscard]] std::vector<Cplx> fft_unplanned(std::span<const Cplx> input);
/// Inverse DFT, normalized by 1/n.
[[nodiscard]] std::vector<Cplx> ifft_unplanned(std::span<const Cplx> input);
/// Forward DFT of a real signal: the full n-point complex spectrum.
[[nodiscard]] std::vector<Cplx> fft_real_unplanned(std::span<const float> input);

/// Naive O(n^2) forward DFT accumulated in long double, with each twiddle
/// taken from an n-entry long-double table at index (j*k) mod n: the
/// reference the accuracy tests measure every double-precision path against.
[[nodiscard]] std::vector<std::complex<long double>> dft_long_double(
    std::span<const Cplx> input);

}  // namespace dynriver::testsupport
