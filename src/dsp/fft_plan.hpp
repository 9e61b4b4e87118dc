// Planned-execution FFTs.
//
// Archive-scale extraction runs millions of same-size transforms (the
// pipeline's record size is fixed at 900), so this module precomputes
// everything that depends only on the transform size once, in an FftPlan,
// and reuses in/out scratch across executions. A size-keyed PlanCache
// amortizes plan construction; a thread-local cache instance backs the
// plan-cached free functions in dsp/fft.hpp.
//
// A plan picks one of three algorithms from the size's factorisation alone:
// powers of two run radix-2 (a fused radix-4 first pass, then vectorized
// radix-2 butterflies); other sizes whose prime factors are all <= 5 run a
// self-sorting mixed-radix Stockham chain of radix-2/3/4/5 stages; sizes
// with a larger prime factor run Bluestein over a power-of-2 convolution.
// Execution runs on the SIMD kernel layer (dsp/simd.hpp), and a packed
// real-input fast path does an n/2-point complex transform per real FFT
// (900 -> 450 = 2*3^2*5^2, a Stockham size). Batch entry points amortize
// dispatch and scratch across whole record matrices.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dsp/fft.hpp"

namespace dynriver::dsp {

/// Precomputed transform of one fixed size. Powers of two hold the
/// bit-reversal table and twiddles of the radix-2 butterflies; other
/// 5-smooth sizes (every prime factor <= 5) hold the Stockham stage radices
/// and per-stage twiddles; the remaining sizes hold the Bluestein chirp, the
/// chirp filter's spectrum and the radix-2 tables of its convolution.
/// Execution reuses the plan's internal scratch, so a plan is cheap to run
/// but NOT thread-safe: use one plan (or one PlanCache) per thread;
/// `local_plan_cache()` gives every thread its own.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  /// True when the size is a power of two and runs the radix-2 path. Other
  /// sizes run the mixed-radix Stockham path or Bluestein.
  [[nodiscard]] bool is_radix2() const { return pow2_; }

  /// In-place forward DFT of `data` (size() elements, no normalization).
  void forward(std::span<Cplx> data);
  /// In-place inverse DFT of `data`, normalized by 1/n.
  void inverse(std::span<Cplx> data);

  /// Out-of-place forward DFT; `in` and `out` must both hold size() elements
  /// and may not alias.
  void forward(std::span<const Cplx> in, std::span<Cplx> out);

  /// Forward DFT of a real signal into `out` (both size() elements). Runs
  /// the real-input fast path: even sizes pack the signal into an
  /// n/2-point complex transform (Hermitian unpack afterwards, ~half the
  /// work of the complex path); odd Stockham sizes run the complex chain on
  /// the widened input; odd Bluestein sizes premultiply the chirp directly
  /// against the real input. Odd sizes keep only the lower half spectrum
  /// and mirror the rest by conjugate symmetry.
  void forward_real(std::span<const float> in, std::span<Cplx> out);
  /// Magnitude spectrum |X[k]| of a real signal, k = 0 .. size()-1. Only
  /// the size()/2+1 unique Hermitian bins are computed; the mirror half is
  /// copied.
  void magnitudes(std::span<const float> in, std::span<float> out);

  /// Forward DFTs of `count` real records packed row-major in `in`
  /// (count * size() floats); writes count * size() spectra. Bit-identical
  /// to `count` forward_real calls — the batch exists to amortize dispatch,
  /// plan lookups, and scratch reuse across a whole record matrix.
  void forward_real_batch(std::span<const float> in, std::size_t count,
                          std::span<Cplx> out);
  /// Magnitude spectra of `count` packed real records (count * size() floats
  /// in, count * size() magnitudes out). Bit-identical to `count`
  /// magnitudes calls.
  void magnitudes_batch(std::span<const float> in, std::size_t count,
                        std::span<float> out);

 private:
  /// Table-driven iterative butterflies over `data` (whose size is n_ when
  /// pow2_, else the Bluestein convolution size m_): bit-reversal, a fused
  /// radix-4 first pass, then vectorized radix-2 stages.
  void radix2_forward(std::span<Cplx> data) const;
  /// The Stockham stage chain over `data` (size n_), ping-ponging with
  /// work_; an odd stage count copies the result back.
  void mixed_radix_forward(std::span<Cplx> data);
  void bluestein_forward(std::span<Cplx> data);
  void bluestein_forward_real(const float* in, Cplx* out);

  /// Build the real-input fast-path state (half-size sub-plan, unpack
  /// twiddles) on first use; odd sizes need none.
  void ensure_real_state();
  void forward_real_one(const float* in, Cplx* out);
  void magnitudes_one(const float* in, float* out);

  std::size_t n_;
  bool pow2_;
  std::vector<std::size_t> bitrev_;  ///< permutation for the radix-2 size
  std::vector<Cplx> twiddle_;        ///< stage-contiguous butterfly twiddles

  // Mixed-radix Stockham state (empty unless n_ is 5-smooth and not a
  // power of two).
  std::vector<std::size_t> radices_;  ///< stage radices, first stage first
  std::vector<Cplx> stage_twiddle_;   ///< per stage: (radix-1)*l twiddles
  std::vector<Cplx> work_;            ///< ping-pong buffer, size n

  // Bluestein state (empty unless n_ has a prime factor above 5).
  std::size_t m_ = 0;            ///< power-of-2 convolution length >= 2n+1
  std::vector<Cplx> chirp_;      ///< exp(-i*pi*k^2/n), k < n
  std::vector<Cplx> chirp_fft_;  ///< forward FFT of the chirp filter, size m
  std::vector<Cplx> conv_;       ///< reusable convolution scratch, size m

  // Real-input fast-path state (built lazily by ensure_real_state; the
  // sub-plan never builds its own, so the chain is one level deep).
  std::unique_ptr<FftPlan> half_plan_;  ///< n/2-point sub-plan (even n)
  std::vector<Cplx> half_twiddle_;      ///< exp(-2*pi*i*k/n), k < n/2
  std::vector<Cplx> packed_;            ///< n/2 packed input scratch

  std::vector<Cplx> real_scratch_;  ///< reusable buffer for real-input paths
};

/// Size-keyed cache of FftPlans. Not thread-safe; intended usage is one
/// cache per thread (see local_plan_cache()) or one per single-threaded
/// engine.
class PlanCache {
 public:
  /// The plan for size `n` (n >= 1), built on first use.
  [[nodiscard]] FftPlan& get(std::size_t n);

  [[nodiscard]] std::size_t cached_plans() const { return plans_.size(); }
  void clear() { plans_.clear(); }

 private:
  std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> plans_;
};

/// This thread's plan cache. Backs the plan-cached fft/ifft/fft_real free
/// functions; safe to use from any thread because each thread sees its own
/// instance.
[[nodiscard]] PlanCache& local_plan_cache();

}  // namespace dynriver::dsp
