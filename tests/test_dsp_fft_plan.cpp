// Plan/legacy equivalence: the planned FFT (dsp/fft_plan.hpp) must match
// the legacy unplanned implementations — and for small sizes the naive DFT —
// across a size sweep of 1..257 plus primes and powers of two, forcing the
// radix-2, mixed-radix Stockham and Bluestein paths. Also covers plan reuse,
// in-place vs out-of-place execution, the real-input paths, accuracy
// against a long-double DFT, and PlanCache behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <random>

#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"
#include "fft_oracle.hpp"
#include "test_support.hpp"

namespace dsp = dynriver::dsp;
using dynriver::testsupport::dft_long_double;
using dynriver::testsupport::fft_real_unplanned;
using dynriver::testsupport::fft_unplanned;
using dynriver::testsupport::ifft_unplanned;
using dynriver::testsupport::max_abs_error;
using dynriver::testsupport::random_complex_signal;

namespace {

std::vector<float> random_real_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(gen);
  return out;
}

double size_tol(std::size_t n) { return 1e-9 * static_cast<double>(n + 1); }

/// Max |got[k] - want[k]| against a long-double reference spectrum.
double max_error_vs(const std::vector<dsp::Cplx>& got,
                    const std::vector<std::complex<long double>>& want) {
  double worst = 0.0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const std::complex<long double> g(got[k].real(), got[k].imag());
    worst = std::max(worst, static_cast<double>(std::abs(g - want[k])));
  }
  return worst;
}

}  // namespace

// Every size from 1 to 257: covers all the tiny radix-2 sizes, every prime
// below 257, and the densest region of Bluestein edge cases (2n+1 rounding).
TEST(FftPlanSweep, MatchesUnplannedForAllSizes1To257) {
  dsp::PlanCache cache;
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 40000);
    std::vector<dsp::Cplx> planned(n);
    cache.get(n).forward(x, planned);
    const auto legacy = fft_unplanned(x);
    EXPECT_LT(max_abs_error(planned, legacy), size_tol(n)) << "n=" << n;
  }
}

// Larger primes and powers of two, including the pipeline's 900 and the
// Bluestein convolution boundary cases.
class FftPlanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSizes, ForwardMatchesUnplanned) {
  const std::size_t n = GetParam();
  const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 50000);
  std::vector<dsp::Cplx> planned(n);
  dsp::FftPlan plan(n);
  plan.forward(x, planned);
  EXPECT_LT(max_abs_error(planned, fft_unplanned(x)), size_tol(n))
      << "n=" << n;
}

TEST_P(FftPlanSizes, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  if (n > 1024) GTEST_SKIP() << "naive DFT too slow";
  const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 60000);
  std::vector<dsp::Cplx> planned(n);
  dsp::FftPlan plan(n);
  plan.forward(x, planned);
  EXPECT_LT(max_abs_error(planned, dsp::dft_naive(x)),
            1e-7 * static_cast<double>(n))
      << "n=" << n;
}

TEST_P(FftPlanSizes, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 70000);
  dsp::FftPlan plan(n);
  std::vector<dsp::Cplx> data(x.begin(), x.end());
  plan.forward(data);
  plan.inverse(data);
  EXPECT_LT(max_abs_error(data, x), size_tol(n)) << "n=" << n;
}

TEST_P(FftPlanSizes, RepeatedExecutionIsStable) {
  // The same plan re-run on the same input must give bit-identical output
  // (reused scratch must not leak state between executions).
  const std::size_t n = GetParam();
  const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 80000);
  dsp::FftPlan plan(n);
  std::vector<dsp::Cplx> first(n);
  std::vector<dsp::Cplx> second(n);
  plan.forward(x, first);
  // Perturb the scratch with a different transform in between.
  const auto y = random_complex_signal(n, static_cast<unsigned>(n) + 90000);
  std::vector<dsp::Cplx> other(n);
  plan.forward(y, other);
  plan.forward(x, second);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(first[i].real(), second[i].real()) << "n=" << n << " i=" << i;
    EXPECT_EQ(first[i].imag(), second[i].imag()) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanSizes,
                         ::testing::Values(263, 337, 521, 857, 900, 1021, 1024,
                                           2048, 2053));

/// True when n = 2^a 3^b 5^c and is not a power of two: the sizes FftPlan
/// runs on the mixed-radix Stockham path, complex and real alike (an even
/// real size runs its n/2 half plan, which then qualifies too).
bool runs_stockham(std::size_t n) {
  if (dsp::is_power_of_two(n)) return false;
  for (const std::size_t p : {2UL, 3UL, 5UL}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

// Accuracy gate for the mixed-radix path, which is not bit-identical to the
// Bluestein transform it replaced: against a long-double naive DFT, the
// planned complex and real transforms must be no less accurate than the
// Bluestein oracle on the same seeded input. The sweep covers 1..257 (every
// radix-2, Stockham and Bluestein shape up to there) plus the 5-smooth
// sizes around the pipeline's record length. Radix-2 and Bluestein sizes
// run the same algorithm on both sides, implemented twice, so their errors
// differ only by rounding either way (n=7, 11, 16 and real n=14 come out a
// few ulps above the oracle); they are held to twice the oracle's error.
TEST(FftPlanAccuracy, NoWorseThanBluesteinOracle) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 257; ++n) sizes.push_back(n);
  for (const std::size_t n : {450UL, 675UL, 900UL, 1000UL, 1125UL, 1800UL,
                              2250UL}) {
    sizes.push_back(n);
  }
  dsp::PlanCache cache;
  for (const std::size_t n : sizes) {
    dsp::FftPlan& plan = cache.get(n);
    const double slack = runs_stockham(n) ? 1.0 : 2.0;

    const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 140000);
    const auto ref = dft_long_double(x);
    std::vector<dsp::Cplx> planned(n);
    plan.forward(x, planned);
    EXPECT_LE(max_error_vs(planned, ref),
              slack * max_error_vs(fft_unplanned(x), ref))
        << "complex n=" << n;

    const auto r = random_real_signal(n, static_cast<unsigned>(n) + 150000);
    std::vector<dsp::Cplx> widened(n);
    for (std::size_t i = 0; i < n; ++i) widened[i] = static_cast<double>(r[i]);
    const auto ref_real = dft_long_double(widened);
    std::vector<dsp::Cplx> planned_real(n);
    plan.forward_real(r, planned_real);
    EXPECT_LE(max_error_vs(planned_real, ref_real),
              slack * max_error_vs(fft_real_unplanned(r), ref_real))
        << "real n=" << n;
  }
}

TEST(FftPlanReal, RealPathsMatchLegacy) {
  for (const std::size_t n : {128UL, 900UL, 257UL}) {
    const auto x = random_real_signal(n, static_cast<unsigned>(n) + 100);
    dsp::FftPlan plan(n);

    std::vector<dsp::Cplx> spec(n);
    plan.forward_real(x, spec);
    EXPECT_LT(max_abs_error(spec, fft_real_unplanned(x)), size_tol(n))
        << "n=" << n;

    std::vector<float> mags(n);
    plan.magnitudes(x, mags);
    std::vector<float> expected(n);
    for (std::size_t k = 0; k < n; ++k) {
      expected[k] = static_cast<float>(std::abs(spec[k]));
    }
    EXPECT_LT(max_abs_error(mags, expected), 1e-6) << "n=" << n;
  }
}

// The packed half-size real path (even n), the widened Stockham path (odd
// 5-smooth n), the real-specialized Bluestein (other odd n), and the
// trivial n=1 path must all agree with the legacy widen-to-complex
// implementation across a dense small-size sweep plus the
// pipeline/prime/power-of-two sizes.
TEST(FftPlanReal, FastPathMatchesUnplannedSweep) {
  dsp::PlanCache cache;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (const std::size_t n : {257UL, 450UL, 900UL, 901UL, 1024UL, 2048UL}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    const auto x = random_real_signal(n, static_cast<unsigned>(n) + 110000);
    std::vector<dsp::Cplx> fast(n);
    cache.get(n).forward_real(x, fast);
    EXPECT_LT(max_abs_error(fast, fft_real_unplanned(x)), size_tol(n))
        << "n=" << n;
  }
}

// Real spectra are Hermitian; the fast path constructs the mirror half
// explicitly, so the symmetry must hold exactly.
TEST(FftPlanReal, FastPathOutputIsHermitian) {
  for (const std::size_t n : {900UL, 901UL, 1024UL}) {
    const auto x = random_real_signal(n, static_cast<unsigned>(n) + 120000);
    dsp::FftPlan plan(n);
    std::vector<dsp::Cplx> spec(n);
    plan.forward_real(x, spec);
    for (std::size_t k = 1; k < n - k; ++k) {
      EXPECT_EQ(spec[n - k].real(), spec[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(spec[n - k].imag(), -spec[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

// The batch entry points must be bit-identical to per-record execution:
// same plan, same scratch path, just amortized dispatch.
TEST(FftPlanReal, BatchBitIdenticalToSingle) {
  constexpr std::size_t kCount = 5;
  for (const std::size_t n : {257UL, 900UL, 1024UL}) {
    const auto records =
        random_real_signal(kCount * n, static_cast<unsigned>(n) + 130000);
    dsp::FftPlan plan(n);

    std::vector<dsp::Cplx> batch_spec(kCount * n);
    plan.forward_real_batch(records, kCount, batch_spec);
    std::vector<float> batch_mags(kCount * n);
    plan.magnitudes_batch(records, kCount, batch_mags);

    for (std::size_t r = 0; r < kCount; ++r) {
      const std::span<const float> rec(records.data() + r * n, n);
      std::vector<dsp::Cplx> single(n);
      plan.forward_real(rec, single);
      std::vector<float> mags(n);
      plan.magnitudes(rec, mags);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(batch_spec[r * n + k].real(), single[k].real())
            << "n=" << n << " r=" << r << " k=" << k;
        EXPECT_EQ(batch_spec[r * n + k].imag(), single[k].imag())
            << "n=" << n << " r=" << r << " k=" << k;
        EXPECT_EQ(batch_mags[r * n + k], mags[k])
            << "n=" << n << " r=" << r << " k=" << k;
      }
    }
  }
}

TEST(FftPlanFreeFunctions, PlanCachedWrappersMatchUnplanned) {
  // The public fft/ifft/fft_real now route through the thread-local plan
  // cache; they must agree with the legacy implementations they replaced.
  for (const std::size_t n : {64UL, 257UL, 900UL}) {
    const auto x = random_complex_signal(n, static_cast<unsigned>(n) + 200);
    EXPECT_LT(max_abs_error(dsp::fft(x), fft_unplanned(x)), size_tol(n));
    EXPECT_LT(max_abs_error(dsp::ifft(x), ifft_unplanned(x)), size_tol(n));
    const auto r = random_real_signal(n, static_cast<unsigned>(n) + 300);
    EXPECT_LT(max_abs_error(dsp::fft_real(r), fft_real_unplanned(r)),
              size_tol(n));
  }
}

TEST(PlanCache, ReusesPlansPerSize) {
  dsp::PlanCache cache;
  EXPECT_EQ(cache.cached_plans(), 0U);
  dsp::FftPlan& a = cache.get(900);
  dsp::FftPlan& b = cache.get(900);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(cache.cached_plans(), 1U);
  (void)cache.get(1024);
  EXPECT_EQ(cache.cached_plans(), 2U);
  cache.clear();
  EXPECT_EQ(cache.cached_plans(), 0U);
}

TEST(PlanCache, PlanGeometry) {
  dsp::PlanCache cache;
  EXPECT_TRUE(cache.get(1024).is_radix2());
  EXPECT_FALSE(cache.get(900).is_radix2());
  EXPECT_EQ(cache.get(900).size(), 900U);
}

TEST(PlanCache, LocalCacheIsSticky) {
  dsp::PlanCache& cache = dsp::local_plan_cache();
  const std::size_t before = cache.cached_plans();
  (void)dsp::fft(random_complex_signal(477, 1));
  (void)dsp::fft(random_complex_signal(477, 2));
  EXPECT_GE(cache.cached_plans(), before);  // 477 now cached (or was already)
  dsp::FftPlan& p = cache.get(477);
  EXPECT_EQ(&p, &cache.get(477));
}
