// Symbolic Aggregate approXimation (SAX; Lin, Keogh, Lonardi & Chiu).
//
// SAX converts a (Z-normalized, PAA-reduced) sequence to symbols such that
// each symbol appears with equal probability under the Gaussian assumption
// (paper, Section 2 / Figure 4). Breakpoints are the (i/a)-quantiles of the
// standard normal distribution, computed for any alphabet size with an
// inverse-normal-CDF approximation rather than a fixed lookup table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dynriver::ts {

using Symbol = std::uint8_t;

/// Inverse standard-normal CDF (Acklam's rational approximation; |error| <
/// 1.15e-9 over (0,1)). Exposed for tests.
[[nodiscard]] double inverse_normal_cdf(double p);

/// The a-1 breakpoints dividing N(0,1) into `alphabet` equiprobable regions.
/// alphabet must be in [2, 64].
[[nodiscard]] std::vector<double> sax_breakpoints(std::size_t alphabet);

/// Discretize already-normalized values against the given breakpoints.
/// Symbol i means the value lies in region i (0-based, low to high).
[[nodiscard]] std::vector<Symbol> discretize(std::span<const float> normalized,
                                             std::span<const double> breakpoints);

/// One-value discretization (streaming use). Branchless count of
/// breakpoints <= value: for sorted breakpoints this is exactly the index
/// the "scan until value < breakpoint" search returns, without the
/// unpredictable early-exit branch (values land on either side of the
/// middle breakpoints by construction of the Gaussian bins). Header-inline:
/// the anomaly scorer's frame pass runs it once per symbol.
[[nodiscard]] inline Symbol discretize_value(
    double normalized, std::span<const double> breakpoints) {
  unsigned sym = 0;
  for (const double b : breakpoints) sym += normalized >= b ? 1U : 0U;
  return static_cast<Symbol>(sym);
}

struct SaxParams {
  std::size_t segments = 0;  ///< PAA segments (0 = one symbol per sample)
  std::size_t alphabet = 8;
};

/// Full SAX pipeline: Z-normalize -> PAA(segments) -> discretize.
[[nodiscard]] std::vector<Symbol> to_sax(std::span<const float> series,
                                         const SaxParams& params);

/// Display helper: symbol i -> letter 'a'+i (or its 1-based integer string
/// when the alphabet exceeds 26, matching the paper's integer rendering).
[[nodiscard]] std::string sax_to_string(std::span<const Symbol> symbols,
                                        std::size_t alphabet);

/// MINDIST lower bound between two equal-length SAX words (Lin et al.),
/// given the original series length n. Used by HOT SAX style pruning.
[[nodiscard]] double sax_min_dist(std::span<const Symbol> a,
                                  std::span<const Symbol> b, std::size_t n,
                                  std::size_t alphabet);

}  // namespace dynriver::ts
