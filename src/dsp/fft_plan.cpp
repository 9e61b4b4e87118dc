#include "dsp/fft_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/contracts.hpp"
#include "dsp/simd.hpp"

namespace dynriver::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

/// Bit-reversal permutation table for a power-of-2 size `s`.
std::vector<std::size_t> make_bitrev(std::size_t s) {
  std::vector<std::size_t> table(s);
  std::size_t j = 0;
  for (std::size_t i = 1; i < s; ++i) {
    std::size_t bit = s >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    table[i] = j;
  }
  return table;
}

/// Forward twiddles laid out stage-contiguously: the stage with butterfly
/// span `len` contributes len/2 sequential entries exp(-2*pi*i*k/len),
/// k < len/2 (s-1 entries total). Sequential layout keeps the butterfly
/// inner loop streaming through the table; a single strided s/2 table
/// measured ~2x slower.
std::vector<Cplx> make_twiddles(std::size_t s) {
  std::vector<Cplx> table;
  table.reserve(s > 0 ? s - 1 : 0);
  for (std::size_t len = 2; len <= s; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(len);
      table.emplace_back(std::cos(angle), std::sin(angle));
    }
  }
  return table;
}

/// Stockham stage radices for a size n that is not a power of two, first
/// stage first, or empty when n has a prime factor above 5. Radix-4 stages
/// (and one radix-2 for a leftover factor 2) run first: the first stage has
/// l = 1, so its butterflies all take the scalar path and it should be the
/// multiply-free one, and an even l afterwards keeps every later stage on
/// full vector pairs.
std::vector<std::size_t> stockham_radices(std::size_t n) {
  std::vector<std::size_t> radices;
  for (; n % 4 == 0; n /= 4) radices.push_back(4);
  for (const std::size_t r : {2UL, 3UL, 5UL}) {
    for (; n % r == 0; n /= r) radices.push_back(r);
  }
  if (n != 1) radices.clear();
  return radices;
}

/// Per-stage Stockham twiddles for `radices`, stages concatenated: the stage
/// with radix R after stages of product l holds exp(-2*pi*i*k*r/(l*R)) at
/// (r-1)*l + k, for 1 <= r < R and k < l.
std::vector<Cplx> make_stage_twiddles(const std::vector<std::size_t>& radices) {
  std::vector<Cplx> table;
  std::size_t l = 1;
  for (const std::size_t radix : radices) {
    const double span = static_cast<double>(l * radix);
    for (std::size_t r = 1; r < radix; ++r) {
      for (std::size_t k = 0; k < l; ++k) {
        const double angle = -2.0 * kPi * static_cast<double>(k * r) / span;
        table.emplace_back(std::cos(angle), std::sin(angle));
      }
    }
    l *= radix;
  }
  return table;
}

/// Interleaved (re, im) view of a complex array for the SIMD kernels —
/// sanctioned by the std::complex array-oriented access guarantee.
double* as_doubles(Cplx* p) { return reinterpret_cast<double*>(p); }
const double* as_doubles(const Cplx* p) {
  return reinterpret_cast<const double*>(p);
}
}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_power_of_two(n)) {
  DR_EXPECTS(n >= 1);

  // A 5-smooth size needs only the Stockham state; the radix-2 tables below
  // serve powers of two and the Bluestein convolution.
  if (!pow2_) radices_ = stockham_radices(n_);
  if (!radices_.empty()) {
    stage_twiddle_ = make_stage_twiddles(radices_);
    work_.resize(n_);
    return;
  }

  const std::size_t sub = pow2_ ? n_ : next_power_of_two(2 * n_ + 1);
  bitrev_ = make_bitrev(sub);
  twiddle_ = make_twiddles(sub);

  if (!pow2_) {
    m_ = sub;
    // chirp[k] = exp(-i*pi*k^2/n); k^2 mod 2n keeps the argument small.
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const auto k2 = static_cast<double>(
          (static_cast<unsigned long long>(k) * k) % (2 * n_));
      const double angle = kPi * k2 / static_cast<double>(n_);
      chirp_[k] = Cplx(std::cos(angle), -std::sin(angle));
    }

    // The chirp filter b and its spectrum, computed once per plan: the
    // legacy path redid this FFT on every call.
    chirp_fft_.assign(m_, Cplx(0, 0));
    chirp_fft_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      chirp_fft_[k] = std::conj(chirp_[k]);
      chirp_fft_[m_ - k] = std::conj(chirp_[k]);
    }
    radix2_forward(chirp_fft_);

    conv_.resize(m_);
  }
}

void FftPlan::radix2_forward(std::span<Cplx> data) const {
  const std::size_t s = data.size();
  DR_ASSERT(s == bitrev_.size());
  if (s <= 1) return;

  Cplx* d = data.data();
  for (std::size_t i = 1; i < s; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(d[i], d[j]);
  }

  // Butterflies run on the SIMD kernels: a fused twiddle-free radix-4 first
  // pass (stages len=2 and len=4 in one sweep over the data), then
  // vectorized radix-2 stages streaming through the stage-contiguous
  // twiddle table.
  double* dd = as_doubles(d);
  const double* tw = as_doubles(twiddle_.data());
  std::size_t len = 2;
  std::size_t stage = 0;  // complex twiddle entries consumed so far
  if (s % 4 == 0) {
    simd::radix4_first_pass(dd, s);
    len = 8;
    stage = 3;  // the skipped len=2 (1 entry) and len=4 (2 entries) stages
  }
  for (; len <= s; len <<= 1) {
    const std::size_t half = len / 2;
    simd::radix2_stage(dd, tw + 2 * stage, s, half);
    stage += half;
  }
}

void FftPlan::mixed_radix_forward(std::span<Cplx> data) {
  double* src = as_doubles(data.data());
  double* dst = as_doubles(work_.data());
  const double* tw = as_doubles(stage_twiddle_.data());
  std::size_t l = 1;  // product of the radices already applied
  for (const std::size_t radix : radices_) {
    const std::size_t m = n_ / (l * radix);
    switch (radix) {
      case 2: simd::stockham_stage<2>(dst, src, tw, l, m); break;
      case 3: simd::stockham_stage<3>(dst, src, tw, l, m); break;
      case 4: simd::stockham_stage<4>(dst, src, tw, l, m); break;
      default: simd::stockham_stage<5>(dst, src, tw, l, m); break;
    }
    tw += 2 * (radix - 1) * l;
    l *= radix;
    std::swap(src, dst);
  }
  if (src != as_doubles(data.data())) {
    std::copy(work_.begin(), work_.end(), data.begin());
  }
}

void FftPlan::bluestein_forward(std::span<Cplx> data) {
  // a[k] = x[k] * chirp[k], zero-padded to the convolution length.
  simd::complex_multiply(as_doubles(conv_.data()), as_doubles(data.data()),
                         as_doubles(chirp_.data()), n_);
  std::fill(conv_.begin() + static_cast<std::ptrdiff_t>(n_), conv_.end(),
            Cplx(0, 0));

  radix2_forward(conv_);
  simd::complex_multiply(as_doubles(conv_.data()), as_doubles(conv_.data()),
                         as_doubles(chirp_fft_.data()), m_);

  // Unscaled inverse via conjugation: ifft(x) = conj(fft(conj(x))).
  simd::conjugate(as_doubles(conv_.data()), m_);
  radix2_forward(conv_);

  const double scale = 1.0 / static_cast<double>(m_);
  simd::conj_multiply_scale(as_doubles(data.data()), as_doubles(conv_.data()),
                            as_doubles(chirp_.data()), scale, n_);
}

void FftPlan::bluestein_forward_real(const float* in, Cplx* out) {
  // Chirp premultiply specialized for real input: no widening pass, two
  // multiplies per element.
  simd::complex_multiply_real(as_doubles(conv_.data()), in,
                              as_doubles(chirp_.data()), n_);
  std::fill(conv_.begin() + static_cast<std::ptrdiff_t>(n_), conv_.end(),
            Cplx(0, 0));

  radix2_forward(conv_);
  simd::complex_multiply(as_doubles(conv_.data()), as_doubles(conv_.data()),
                         as_doubles(chirp_fft_.data()), m_);
  simd::conjugate(as_doubles(conv_.data()), m_);
  radix2_forward(conv_);

  // Real input => Hermitian output: postmultiply only the n/2+1 unique bins
  // and mirror the rest by conjugate symmetry.
  const double scale = 1.0 / static_cast<double>(m_);
  const std::size_t h = n_ / 2;  // n_ is odd here
  simd::conj_multiply_scale(as_doubles(out), as_doubles(conv_.data()),
                            as_doubles(chirp_.data()), scale, h + 1);
  for (std::size_t k = 1; k <= h; ++k) out[n_ - k] = std::conj(out[k]);
}

void FftPlan::forward(std::span<Cplx> data) {
  DR_EXPECTS(data.size() == n_);
  if (pow2_) {
    radix2_forward(data);
  } else if (!radices_.empty()) {
    mixed_radix_forward(data);
  } else {
    bluestein_forward(data);
  }
}

void FftPlan::inverse(std::span<Cplx> data) {
  DR_EXPECTS(data.size() == n_);
  simd::conjugate(as_doubles(data.data()), n_);
  forward(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v = std::conj(v) * scale;
}

void FftPlan::forward(std::span<const Cplx> in, std::span<Cplx> out) {
  DR_EXPECTS(in.size() == n_);
  DR_EXPECTS(out.size() == n_);
  std::copy(in.begin(), in.end(), out.begin());
  forward(out);
}

void FftPlan::ensure_real_state() {
  if (n_ < 2 || n_ % 2 != 0 || half_plan_) return;
  const std::size_t h = n_ / 2;
  half_plan_ = std::make_unique<FftPlan>(h);
  half_twiddle_.resize(h);
  for (std::size_t k = 0; k < h; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n_);
    half_twiddle_[k] = Cplx(std::cos(angle), std::sin(angle));
  }
  packed_.resize(h);
}

void FftPlan::forward_real_one(const float* in, Cplx* out) {
  if (n_ == 1) {
    out[0] = Cplx(static_cast<double>(in[0]), 0.0);
    return;
  }
  if (n_ % 2 != 0) {
    if (radices_.empty()) {
      bluestein_forward_real(in, out);
      return;
    }
    // Odd 5-smooth size: the complex chain on the widened input, then the
    // same Hermitian mirror as the Bluestein branch.
    for (std::size_t k = 0; k < n_; ++k) {
      out[k] = Cplx(static_cast<double>(in[k]), 0.0);
    }
    mixed_radix_forward(std::span<Cplx>(out, n_));
    for (std::size_t k = 1; k <= n_ / 2; ++k) out[n_ - k] = std::conj(out[k]);
    return;
  }

  // Packed half-size transform: z[k] = x[2k] + i*x[2k+1] is exactly the
  // widened input reinterpreted as n/2 complex values. One h-point complex
  // FFT replaces the n-point transform the old path ran.
  const std::size_t h = n_ / 2;
  simd::widen_f32(in, as_doubles(packed_.data()), n_);
  half_plan_->forward(std::span<Cplx>(packed_));

  // Hermitian unpack: split Z into the spectra of the even/odd subsequences
  // (E[k] = (Z[k]+conj(Z[h-k]))/2, O[k] = (Z[k]-conj(Z[h-k]))/(2i)) and
  // recombine X[k] = E[k] + W^k O[k], X[n-k] = conj(X[k]).
  const Cplx z0 = packed_[0];
  out[0] = Cplx(z0.real() + z0.imag(), 0.0);
  out[h] = Cplx(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const Cplx zk = packed_[k];
    const Cplx zc = std::conj(packed_[h - k]);
    const Cplx even = 0.5 * (zk + zc);
    const Cplx odd = (zk - zc) * Cplx(0.0, -0.5);
    const Cplx x = even + half_twiddle_[k] * odd;
    out[k] = x;
    out[n_ - k] = std::conj(x);
  }
}

void FftPlan::magnitudes_one(const float* in, float* out) {
  real_scratch_.resize(n_);
  forward_real_one(in, real_scratch_.data());
  // Hermitian symmetry: sqrt only the unique bins, copy the mirror half.
  const std::size_t unique = n_ / 2 + 1;
  simd::magnitudes_f32(as_doubles(real_scratch_.data()), out,
                       std::min(unique, n_));
  for (std::size_t k = unique; k < n_; ++k) out[k] = out[n_ - k];
}

void FftPlan::forward_real(std::span<const float> in, std::span<Cplx> out) {
  DR_EXPECTS(in.size() == n_);
  DR_EXPECTS(out.size() == n_);
  ensure_real_state();
  forward_real_one(in.data(), out.data());
}

void FftPlan::magnitudes(std::span<const float> in, std::span<float> out) {
  DR_EXPECTS(in.size() == n_);
  DR_EXPECTS(out.size() == n_);
  ensure_real_state();
  magnitudes_one(in.data(), out.data());
}

void FftPlan::forward_real_batch(std::span<const float> in, std::size_t count,
                                 std::span<Cplx> out) {
  DR_EXPECTS(in.size() == count * n_);
  DR_EXPECTS(out.size() == count * n_);
  ensure_real_state();
  for (std::size_t r = 0; r < count; ++r) {
    forward_real_one(in.data() + r * n_, out.data() + r * n_);
  }
}

void FftPlan::magnitudes_batch(std::span<const float> in, std::size_t count,
                               std::span<float> out) {
  DR_EXPECTS(in.size() == count * n_);
  DR_EXPECTS(out.size() == count * n_);
  ensure_real_state();
  for (std::size_t r = 0; r < count; ++r) {
    magnitudes_one(in.data() + r * n_, out.data() + r * n_);
  }
}

FftPlan& PlanCache::get(std::size_t n) {
  DR_EXPECTS(n >= 1);
  auto it = plans_.find(n);
  if (it == plans_.end()) {
    it = plans_.emplace(n, std::make_unique<FftPlan>(n)).first;
  }
  return *it->second;
}

PlanCache& local_plan_cache() {
  thread_local PlanCache cache;
  return cache;
}

}  // namespace dynriver::dsp
