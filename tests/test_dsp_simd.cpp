// SIMD kernel equivalence: every kernel in dsp/simd.hpp must match a plain
// scalar reference within 1e-9 relative tolerance, across all sizes 1..257
// (every odd-tail shape), larger primes and powers of two, and unaligned
// base addresses (the vector loads/stores must tolerate any element-aligned
// pointer). The references here are written out longhand on purpose — they
// are the definition the kernels are held to, independent of which backend
// the build selected.
//
// Width coverage: offsets run 0..7 elements and the size sweep includes
// 511/513/1023/2048/4093/4096 so every tail shape of 128-, 256-, AND
// 512-bit lanes is hit — under -march=x86-64-v4 the compiler may widen or
// re-vectorize these loops with zmm registers and masked tails (CI carries
// a v4 compile job; run the suite on AVX-512 hardware to execute them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <random>
#include <vector>

#include "dsp/simd.hpp"

namespace simd = dynriver::dsp::simd;
using Cplx = std::complex<double>;

namespace {

constexpr std::size_t kMaxOffset = 7;  ///< element offsets to unalign by
                                       ///< (covers 512-bit lane misalignment)

std::vector<std::size_t> sweep_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 257; ++n) sizes.push_back(n);
  // Primes and powers of two around every vector-width boundary, including
  // the 8-double / 16-float shapes an AVX-512 build would use.
  for (const std::size_t n : {263UL, 511UL, 512UL, 513UL, 521UL, 1021UL,
                              1023UL, 1024UL, 2048UL, 4093UL, 4096UL}) {
    sizes.push_back(n);
  }
  return sizes;
}

std::vector<double> random_doubles(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> out(n);
  for (auto& v : out) v = dist(gen);
  return out;
}

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(gen);
  return out;
}

/// |a-b| <= 1e-9 * max(1, |b|) element-wise.
template <typename T>
void expect_close(const std::vector<T>& got, const std::vector<T>& want,
                  const char* what, std::size_t n, std::size_t off) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = static_cast<double>(got[i]);
    const double w = static_cast<double>(want[i]);
    EXPECT_LE(std::abs(g - w), 1e-9 * std::max(1.0, std::abs(w)))
        << what << " n=" << n << " off=" << off << " i=" << i;
  }
}

}  // namespace

TEST(SimdKernels, MultiplyF32MatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 1);
      const auto w = random_floats(n + off, static_cast<unsigned>(n) + 2);
      std::vector<float> got(n + off, 0.0F);
      simd::multiply_f32(got.data() + off, x.data() + off, w.data() + off, n);

      std::vector<float> want(n + off, 0.0F);
      for (std::size_t i = 0; i < n; ++i) {
        want[off + i] = x[off + i] * w[off + i];
      }
      expect_close(got, want, "multiply_f32", n, off);

      // In place (the apply_window call shape).
      std::vector<float> inplace(x);
      simd::multiply_f32(inplace.data() + off, inplace.data() + off,
                         w.data() + off, n);
      expect_close(inplace, [&] {
        std::vector<float> r(x);
        for (std::size_t i = 0; i < n; ++i) r[off + i] = x[off + i] * w[off + i];
        return r;
      }(), "multiply_f32/inplace", n, off);
    }
  }
}

TEST(SimdKernels, WidenF32MatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 3);
      std::vector<double> got(n + off, 0.0);
      simd::widen_f32(x.data() + off, got.data() + off, n);
      std::vector<double> want(n + off, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        want[off + i] = static_cast<double>(x[off + i]);
      }
      expect_close(got, want, "widen_f32", n, off);
    }
  }
}

TEST(SimdKernels, ComplexMultiplyMatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      // Buffers hold 2n doubles (+2*off unaligned slack).
      const auto a = random_doubles(2 * (n + off), static_cast<unsigned>(n) + 4);
      const auto b = random_doubles(2 * (n + off), static_cast<unsigned>(n) + 5);
      std::vector<double> got(2 * (n + off), 0.0);
      simd::complex_multiply(got.data() + 2 * off, a.data() + 2 * off,
                             b.data() + 2 * off, n);

      std::vector<double> want(2 * (n + off), 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = 2 * (off + k);
        const Cplx p = Cplx(a[i], a[i + 1]) * Cplx(b[i], b[i + 1]);
        want[i] = p.real();
        want[i + 1] = p.imag();
      }
      expect_close(got, want, "complex_multiply", n, off);

      // In place over the accumulator (the convolution step's shape).
      std::vector<double> acc(a);
      simd::complex_multiply(acc.data() + 2 * off, acc.data() + 2 * off,
                             b.data() + 2 * off, n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = 2 * (off + k);
        EXPECT_LE(std::abs(acc[i] - want[i]),
                  1e-9 * std::max(1.0, std::abs(want[i])))
            << "inplace n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimdKernels, ComplexMultiplyRealMatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 6);
      const auto b = random_doubles(2 * (n + off), static_cast<unsigned>(n) + 7);
      std::vector<double> got(2 * (n + off), 0.0);
      simd::complex_multiply_real(got.data() + 2 * off, x.data() + off,
                                  b.data() + 2 * off, n);
      std::vector<double> want(2 * (n + off), 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = 2 * (off + k);
        const auto xv = static_cast<double>(x[off + k]);
        want[i] = xv * b[i];
        want[i + 1] = xv * b[i + 1];
      }
      expect_close(got, want, "complex_multiply_real", n, off);
    }
  }
}

TEST(SimdKernels, ConjugateMatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    const auto orig = random_doubles(2 * n, static_cast<unsigned>(n) + 8);
    std::vector<double> got(orig);
    simd::conjugate(got.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(got[2 * k], orig[2 * k]);
      EXPECT_EQ(got[2 * k + 1], -orig[2 * k + 1]);
    }
  }
}

TEST(SimdKernels, ConjMultiplyScaleMatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto a = random_doubles(2 * (n + off), static_cast<unsigned>(n) + 9);
      const auto b = random_doubles(2 * (n + off), static_cast<unsigned>(n) + 10);
      const double scale = 1.0 / static_cast<double>(2 * n);
      std::vector<double> got(2 * (n + off), 0.0);
      simd::conj_multiply_scale(got.data() + 2 * off, a.data() + 2 * off,
                                b.data() + 2 * off, scale, n);
      std::vector<double> want(2 * (n + off), 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = 2 * (off + k);
        const Cplx p = std::conj(Cplx(a[i], a[i + 1])) * scale *
                       Cplx(b[i], b[i + 1]);
        want[i] = p.real();
        want[i + 1] = p.imag();
      }
      expect_close(got, want, "conj_multiply_scale", n, off);
    }
  }
}

TEST(SimdKernels, MagnitudesF32MatchesScalar) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto spec =
          random_doubles(2 * (n + off), static_cast<unsigned>(n) + 11);
      std::vector<float> got(n + off, 0.0F);
      simd::magnitudes_f32(spec.data() + 2 * off, got.data() + off, n);
      std::vector<float> want(n + off, 0.0F);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = 2 * (off + k);
        want[off + k] = static_cast<float>(
            std::sqrt(spec[i] * spec[i] + spec[i + 1] * spec[i + 1]));
      }
      expect_close(got, want, "magnitudes_f32", n, off);
    }
  }
}

namespace {

/// Scalar reference radix-2 butterfly stage, the textbook loop.
void reference_stage(std::vector<double>& d, const std::vector<double>& tw,
                     std::size_t s, std::size_t half) {
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < s; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const Cplx w(tw[2 * k], tw[2 * k + 1]);
      const std::size_t ai = 2 * (i + k);
      const std::size_t bi = 2 * (i + k + half);
      const Cplx u(d[ai], d[ai + 1]);
      const Cplx v = Cplx(d[bi], d[bi + 1]) * w;
      const Cplx top = u + v;
      const Cplx bot = u - v;
      d[ai] = top.real();
      d[ai + 1] = top.imag();
      d[bi] = bot.real();
      d[bi + 1] = bot.imag();
    }
  }
}

}  // namespace

TEST(SimdKernels, Radix2StageMatchesScalarReference) {
  // half values cover the vector path (>= 2), its odd tail (3, 5), the
  // scalar half=1 stage, and widths past one 512-bit register (32, 64);
  // blocks give s a multiple of the butterfly span.
  for (const std::size_t half : {1UL, 2UL, 3UL, 4UL, 5UL, 8UL, 16UL, 32UL,
                                 64UL}) {
    for (const std::size_t blocks : {1UL, 2UL, 3UL}) {
      const std::size_t s = blocks * 2 * half;
      const auto tw =
          random_doubles(2 * half, static_cast<unsigned>(half) + 100);
      const auto orig =
          random_doubles(2 * s, static_cast<unsigned>(s) + 101);

      std::vector<double> got(orig);
      simd::radix2_stage(got.data(), tw.data(), s, half);

      std::vector<double> want(orig);
      reference_stage(want, tw, s, half);
      expect_close(got, want, "radix2_stage", s, half);
    }
  }
}

TEST(SimdKernels, Radix4FirstPassMatchesTwoRadix2Stages) {
  for (const std::size_t s : {4UL, 8UL, 16UL, 64UL, 256UL, 1024UL, 4096UL}) {
    const auto orig = random_doubles(2 * s, static_cast<unsigned>(s) + 200);

    std::vector<double> got(orig);
    simd::radix4_first_pass(got.data(), s);

    // Reference: the len=2 stage (w = 1) then the len=4 stage (w = 1, -i),
    // with the exact -i rotation the fused pass implements.
    std::vector<double> want(orig);
    reference_stage(want, {1.0, 0.0}, s, 1);
    reference_stage(want, {1.0, 0.0, 0.0, -1.0}, s, 2);
    expect_close(got, want, "radix4_first_pass", s, 0);
  }
}

namespace {

/// Scalar reference for one radix-R Stockham stage, written from the
/// definition: legs at b*l + k + r*l*m, twiddles at (r-1)*l + k, an R-point
/// DFT summed directly over exp(-2*pi*i*j*q/R), outputs at b*l*R + k + q*l.
/// Buffers start at element offset `off`.
void reference_stockham(std::vector<double>& out, const std::vector<double>& in,
                        const std::vector<double>& tw, std::size_t radix,
                        std::size_t l, std::size_t m, std::size_t off) {
  const double pi = std::acos(-1.0);
  for (std::size_t b = 0; b < m; ++b) {
    for (std::size_t k = 0; k < l; ++k) {
      std::vector<Cplx> legs(radix);
      for (std::size_t r = 0; r < radix; ++r) {
        const std::size_t i = 2 * (off + b * l + k + r * l * m);
        legs[r] = Cplx(in[i], in[i + 1]);
        if (r > 0) {
          const std::size_t t = 2 * ((r - 1) * l + k);
          legs[r] *= Cplx(tw[t], tw[t + 1]);
        }
      }
      for (std::size_t q = 0; q < radix; ++q) {
        Cplx acc(0.0, 0.0);
        for (std::size_t j = 0; j < radix; ++j) {
          const double angle = -2.0 * pi * static_cast<double>((j * q) % radix) /
                               static_cast<double>(radix);
          acc += legs[j] * Cplx(std::cos(angle), std::sin(angle));
        }
        const std::size_t o = 2 * (off + b * l * radix + k + q * l);
        out[o] = acc.real();
        out[o + 1] = acc.imag();
      }
    }
  }
}

template <std::size_t R>
void check_stockham_stage(const char* what) {
  // l covers the scalar-only first stage (1), full vector pairs (even l),
  // one-butterfly odd tails (3, 5, 9, 17) and widths past one 512-bit
  // register (16, 32); m covers one and several blocks.
  for (const std::size_t l : {1UL, 2UL, 3UL, 4UL, 5UL, 6UL, 9UL, 16UL, 17UL,
                              32UL}) {
    for (const std::size_t m : {1UL, 2UL, 3UL, 5UL}) {
      const std::size_t n = R * l * m;
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        const auto in = random_doubles(2 * (n + off),
                                       static_cast<unsigned>(n * R + off));
        const auto tw = random_doubles(2 * (R - 1) * l,
                                       static_cast<unsigned>(l) + 400);
        std::vector<double> got(2 * (n + off), 0.0);
        simd::stockham_stage<R>(got.data() + 2 * off, in.data() + 2 * off,
                                tw.data(), l, m);
        std::vector<double> want(2 * (n + off), 0.0);
        reference_stockham(want, in, tw, R, l, m, off);
        expect_close(got, want, what, n, off);
      }
    }
  }
}

}  // namespace

TEST(SimdKernels, StockhamRadix2StageMatchesReference) {
  check_stockham_stage<2>("stockham_stage<2>");
}

TEST(SimdKernels, StockhamRadix3StageMatchesReference) {
  check_stockham_stage<3>("stockham_stage<3>");
}

TEST(SimdKernels, StockhamRadix4StageMatchesReference) {
  check_stockham_stage<4>("stockham_stage<4>");
}

TEST(SimdKernels, StockhamRadix5StageMatchesReference) {
  check_stockham_stage<5>("stockham_stage<5>");
}

// ---------------------------------------------------------------------------
// Scoring-chain kernels. These feed the anomaly scorer's batch path, whose
// outputs must be bit-identical to the incremental streaming path, so the
// references below are held to EXPECT_DOUBLE_EQ (not a tolerance): each
// reduction reference spells out the documented lane-order contract longhand
// (four lanes, sequential n%4 tail, ((l0+l2)+(l1+l3))+tail combine), and a
// second check keeps the contract result within float-ish distance of the
// naive sequential sum so the contract itself can't drift into nonsense.
// ---------------------------------------------------------------------------

namespace {

/// The lane-order reduction contract from dsp/simd.hpp, written longhand.
double lane_order_sum(const float* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += static_cast<double>(x[i]);
    l1 += static_cast<double>(x[i + 1]);
    l2 += static_cast<double>(x[i + 2]);
    l3 += static_cast<double>(x[i + 3]);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += static_cast<double>(x[i]);
  return ((l0 + l2) + (l1 + l3)) + tail;
}

double lane_order_sum_squares(const float* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += static_cast<double>(x[i]) * static_cast<double>(x[i]);
    l1 += static_cast<double>(x[i + 1]) * static_cast<double>(x[i + 1]);
    l2 += static_cast<double>(x[i + 2]) * static_cast<double>(x[i + 2]);
    l3 += static_cast<double>(x[i + 3]) * static_cast<double>(x[i + 3]);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return ((l0 + l2) + (l1 + l3)) + tail;
}

double naive_sum(const float* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]);
  return s;
}

}  // namespace

TEST(SimdScoringKernels, SumF32MatchesLaneOrderContractExactly) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 300);
      const double got = simd::sum_f32(x.data() + off, n);
      EXPECT_DOUBLE_EQ(got, lane_order_sum(x.data() + off, n))
          << "sum_f32 n=" << n << " off=" << off;
      const double naive = naive_sum(x.data() + off, n);
      EXPECT_LE(std::abs(got - naive), 1e-9 * std::max(1.0, std::abs(naive)))
          << "sum_f32 vs naive n=" << n << " off=" << off;
    }
  }
}

TEST(SimdScoringKernels, SumSquaresF32MatchesLaneOrderContractExactly) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 301);
      const double got = simd::sum_squares_f32(x.data() + off, n);
      EXPECT_DOUBLE_EQ(got, lane_order_sum_squares(x.data() + off, n))
          << "sum_squares_f32 n=" << n << " off=" << off;
      double naive = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = static_cast<double>(x[off + i]);
        naive += v * v;
      }
      EXPECT_LE(std::abs(got - naive), 1e-9 * std::max(1.0, naive))
          << "sum_squares_f32 vs naive n=" << n << " off=" << off;
    }
  }
}

TEST(SimdScoringKernels, MeanVarF32MatchesLaneOrderContractExactly) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 302);
      double mean = -1.0, var = -1.0;
      simd::mean_var_f32(x.data() + off, n, &mean, &var);
      const double inv_n = 1.0 / static_cast<double>(n);
      const double want_mean = lane_order_sum(x.data() + off, n) * inv_n;
      const double raw_var =
          lane_order_sum_squares(x.data() + off, n) * inv_n -
          want_mean * want_mean;
      EXPECT_DOUBLE_EQ(mean, want_mean) << "mean_var n=" << n << " off=" << off;
      EXPECT_DOUBLE_EQ(var, raw_var > 0.0 ? raw_var : 0.0)
          << "mean_var n=" << n << " off=" << off;
      EXPECT_GE(var, 0.0);
    }
  }
}

TEST(SimdScoringKernels, MeanVarF32ZeroLengthAndConstantInput) {
  double mean = -1.0, var = -1.0;
  simd::mean_var_f32(nullptr, 0, &mean, &var);
  EXPECT_EQ(mean, 0.0);
  EXPECT_EQ(var, 0.0);
  // A constant series may produce a tiny negative E[x^2]-mu^2 residue; the
  // kernel's clamp must report exactly zero variance, never negative.
  for (const std::size_t n : {1UL, 7UL, 64UL, 257UL}) {
    const std::vector<float> x(n, 0.1F);
    simd::mean_var_f32(x.data(), n, &mean, &var);
    EXPECT_GE(var, 0.0) << "n=" << n;
    EXPECT_LE(var, 1e-12) << "n=" << n;
  }
}

TEST(SimdScoringKernels, NormalizeF32MatchesScalarExactly) {
  const float mu = 0.125F;
  const float inv_sigma = 1.75F;
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto x = random_floats(n + off, static_cast<unsigned>(n) + 303);
      std::vector<float> got(n + off, 0.0F);
      simd::normalize_f32(got.data() + off, x.data() + off, n, mu, inv_sigma);
      for (std::size_t i = 0; i < n; ++i) {
        const float want = (x[off + i] - mu) * inv_sigma;
        EXPECT_EQ(got[off + i], want)
            << "normalize_f32 n=" << n << " off=" << off << " i=" << i;
      }
      // In place: dst aliasing x must produce the same values.
      std::vector<float> inplace(x);
      simd::normalize_f32(inplace.data() + off, inplace.data() + off, n, mu,
                          inv_sigma);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(inplace[off + i], got[off + i])
            << "normalize_f32 in-place n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(SimdScoringKernels, SegmentMeansF32MatchesLaneOrderContractExactly) {
  // PAA geometry: segments x seg_len, exact divisors only. seg_len sweeps
  // the tail shapes; segment count covers one vector of outputs and more.
  for (const std::size_t segments : {1UL, 3UL, 8UL, 16UL}) {
    for (const std::size_t seg_len :
         {1UL, 2UL, 3UL, 4UL, 5UL, 7UL, 8UL, 24UL, 100UL, 257UL}) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        const std::size_t n = segments * seg_len;
        const auto x =
            random_floats(n + off, static_cast<unsigned>(n) + 304);
        std::vector<float> got(segments, 0.0F);
        simd::segment_means_f32(x.data() + off, segments, seg_len, got.data());
        const double inv_len = 1.0 / static_cast<double>(seg_len);
        for (std::size_t s = 0; s < segments; ++s) {
          const float want = static_cast<float>(
              lane_order_sum(x.data() + off + s * seg_len, seg_len) * inv_len);
          EXPECT_EQ(got[s], want) << "segment_means segments=" << segments
                                  << " seg_len=" << seg_len << " off=" << off
                                  << " s=" << s;
        }
      }
    }
  }
}

TEST(SimdScoringKernels, DiscretizeF32MatchesTextbookScanExactly) {
  // Breakpoint tables for alphabet sizes 2..8 (1..7 breakpoints), values in
  // the same [-1, 1] range as the inputs so every branch is taken.
  for (const std::size_t n_breaks : {1UL, 2UL, 3UL, 4UL, 7UL}) {
    std::vector<double> breaks(n_breaks);
    for (std::size_t b = 0; b < n_breaks; ++b) {
      breaks[b] = -0.8 + 1.6 * static_cast<double>(b) /
                             static_cast<double>(n_breaks);
    }
    for (const std::size_t n : sweep_sizes()) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        auto x = random_floats(n + off, static_cast<unsigned>(n) + 305);
        // Plant exact-breakpoint hits so the >= boundary is exercised.
        if (n > 2) {
          x[off] = static_cast<float>(breaks[0]);
          x[off + n / 2] = static_cast<float>(breaks[n_breaks - 1]);
        }
        std::vector<std::uint8_t> got(n + off, 255);
        simd::discretize_f32(x.data() + off, n, breaks.data(), n_breaks,
                             got.data() + off);
        for (std::size_t i = 0; i < n; ++i) {
          const double v = static_cast<double>(x[off + i]);
          unsigned sym = 0;
          for (std::size_t b = 0; b < n_breaks; ++b) {
            if (v >= breaks[b]) ++sym;
          }
          EXPECT_EQ(got[off + i], static_cast<std::uint8_t>(sym))
              << "discretize n_breaks=" << n_breaks << " n=" << n
              << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdScoringKernels, DiscretizeF32MapsNaNToSymbolZero) {
  const double breaks[] = {-0.5, 0.0, 0.5};
  std::vector<float> x(13, std::numeric_limits<float>::quiet_NaN());
  std::vector<std::uint8_t> out(13, 255);
  simd::discretize_f32(x.data(), x.size(), breaks, 3, out.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(out[i], 0) << "i=" << i;
  }
}

TEST(SimdScoringKernels, MaxInplaceF64MatchesScalarExactly) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto a = random_doubles(n + off, static_cast<unsigned>(n) + 306);
      const auto b = random_doubles(n + off, static_cast<unsigned>(n) + 307);
      std::vector<double> got(a);
      simd::max_inplace_f64(got.data() + off, b.data() + off, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[off + i], std::max(a[off + i], b[off + i]))
            << "max_inplace n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(SimdScoringKernels, AddInplaceF64MatchesScalarExactly) {
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto a = random_doubles(n + off, static_cast<unsigned>(n) + 308);
      const auto b = random_doubles(n + off, static_cast<unsigned>(n) + 309);
      std::vector<double> got(a);
      simd::add_inplace_f64(got.data() + off, b.data() + off, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[off + i], a[off + i] + b[off + i])
            << "add_inplace n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(SimdScoringKernels, ScaleF64MatchesScalarExactly) {
  const double s = 1.0 / 3.0;
  for (const std::size_t n : sweep_sizes()) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto a = random_doubles(n + off, static_cast<unsigned>(n) + 310);
      std::vector<double> got(a);
      simd::scale_f64(got.data() + off, n, s);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[off + i], a[off + i] * s)
            << "scale n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}
