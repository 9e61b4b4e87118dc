// Portable SIMD kernel layer for the spectral hot path.
//
// Every per-element loop the FFT and windowing code runs millions of times at
// archive scale lives here as a small kernel: radix-2/radix-4 butterflies,
// the radix-2/3/4/5 mixed-radix Stockham stages, pointwise complex
// multiplies (the Bluestein chirp/convolution steps), window application,
// float<->double widening, and magnitude extraction.
//
// The vector path uses GCC/Clang generic vector extensions — no intrinsics,
// no runtime dispatch — so the same source compiles to SSE2 on a portable
// x86-64 baseline, AVX2 under -march=x86-64-v3, and NEON on aarch64; any
// other compiler gets the scalar fallback below each #if. Call sites are
// backend-agnostic: they call the kernel, the preprocessor picks the body.
//
// Numerical contract: the vector bodies perform the same IEEE operations per
// element as the scalar bodies (complex multiplies expand to the identical
// mul/add sequence, lanes never mix), so the two backends agree to the last
// ulp in practice; tests hold them to 1e-9 relative tolerance.
//
// All complex kernels operate on interleaved (re, im) double arrays with
// sizes counted in complex elements — reinterpret_cast from
// std::complex<double>* is sanctioned by [complex.numbers.general]. Kernels
// tolerate any element-aligned pointer (loads/stores dereference a
// reduced-alignment may_alias vector type, compiling to unaligned vector
// moves) and arbitrary sizes including odd tails.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(DYNRIVER_NO_SIMD)
#define DYNRIVER_SIMD_VECTOR_EXT 1
#else
#define DYNRIVER_SIMD_VECTOR_EXT 0
#endif

namespace dynriver::dsp::simd {

/// Which kernel backend this build uses (diagnostics / bench output).
[[nodiscard]] constexpr const char* backend() {
#if DYNRIVER_SIMD_VECTOR_EXT
  return "vector-ext";
#else
  return "scalar";
#endif
}

#if DYNRIVER_SIMD_VECTOR_EXT
namespace detail {

// 4 doubles = 2 interleaved complex values; 8 floats = one window strip.
// The reduced `aligned` makes any element-aligned address loadable; 32-byte
// vectors split into two SSE ops on the portable baseline and map 1:1 onto
// AVX2 registers under -march=x86-64-v3.
typedef double V4d __attribute__((vector_size(32), aligned(8), may_alias));
typedef float V8f __attribute__((vector_size(32), aligned(4), may_alias));
typedef float V4f __attribute__((vector_size(16), aligned(4), may_alias));
typedef long long M4 __attribute__((vector_size(32), may_alias));

// Loads/stores dereference through the reduced-alignment may_alias vector
// type: legal at any element-aligned address, and the compiler emits plain
// unaligned vector moves. (memcpy into a local vector looks equivalent but
// GCC 12 materializes the local on the stack under -mavx2 — every load
// becomes a store-forwarding stall and the kernels run ~10x slower.)
inline V4d load4d(const double* p) {
  return *reinterpret_cast<const V4d*>(p);
}
inline void store4d(double* p, V4d v) { *reinterpret_cast<V4d*>(p) = v; }
inline V8f load8f(const float* p) { return *reinterpret_cast<const V8f*>(p); }
inline void store8f(float* p, V8f v) { *reinterpret_cast<V8f*>(p) = v; }
inline V4f load4f(const float* p) { return *reinterpret_cast<const V4f*>(p); }

template <int A, int B, int C, int D>
[[nodiscard]] inline V4d shuffle(V4d v) {
#if defined(__clang__)
  return __builtin_shufflevector(v, v, A, B, C, D);
#else
  return __builtin_shuffle(v, M4{A, B, C, D});
#endif
}

/// Lane-wise complex multiply of two packed pairs: (a0*b0, a1*b1). Expands
/// to the same (ar*br - ai*bi, ar*bi + ai*br) sequence the scalar path uses.
[[nodiscard]] inline V4d cmul(V4d a, V4d b) {
  const V4d ar = shuffle<0, 0, 2, 2>(a);
  const V4d ai = shuffle<1, 1, 3, 3>(a);
  const V4d bs = shuffle<1, 0, 3, 2>(b);
  const V4d sign = {-1.0, 1.0, -1.0, 1.0};
  return ar * b + sign * (ai * bs);
}

}  // namespace detail
#endif  // DYNRIVER_SIMD_VECTOR_EXT

/// dst[i] = x[i] * w[i] for n floats (dst may alias x): the window-apply
/// kernel, also used fused with the copy into batch record matrices.
inline void multiply_f32(float* dst, const float* x, const float* w,
                         std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; i + 8 <= n; i += 8) {
    detail::store8f(dst + i, detail::load8f(x + i) * detail::load8f(w + i));
  }
#endif
  for (; i < n; ++i) dst[i] = x[i] * w[i];
}

/// out[i] = double(x[i]) for n elements. Widening a real record into the
/// FFT's interleaved complex layout (re = even, im = odd index) is exactly
/// this elementwise convert.
inline void widen_f32(const float* x, double* out, std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; i + 4 <= n; i += 4) {
    detail::store4d(out + i,
                    __builtin_convertvector(detail::load4f(x + i), detail::V4d));
  }
#endif
  for (; i < n; ++i) out[i] = static_cast<double>(x[i]);
}

/// out[k] = a[k] * b[k] over n interleaved complex values. `out` may alias
/// `a` (the in-place convolution step) but not partially overlap.
inline void complex_multiply(double* out, const double* a, const double* b,
                             std::size_t n) {
  std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; k + 2 <= n; k += 2) {
    detail::store4d(out + 2 * k, detail::cmul(detail::load4d(a + 2 * k),
                                              detail::load4d(b + 2 * k)));
  }
#endif
  for (; k < n; ++k) {
    const double ar = a[2 * k];
    const double ai = a[2 * k + 1];
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = ar * br - ai * bi;
    out[2 * k + 1] = ar * bi + ai * br;
  }
}

/// out[k] = x[k] * b[k] with real float x — the Bluestein chirp premultiply
/// specialized for real input (two multiplies per element instead of six
/// flops, no widening pass).
inline void complex_multiply_real(double* out, const float* x, const double* b,
                                  std::size_t n) {
  std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; k + 2 <= n; k += 2) {
    const detail::V4d xv = {
        static_cast<double>(x[k]), static_cast<double>(x[k]),
        static_cast<double>(x[k + 1]), static_cast<double>(x[k + 1])};
    detail::store4d(out + 2 * k, xv * detail::load4d(b + 2 * k));
  }
#endif
  for (; k < n; ++k) {
    const double xv = static_cast<double>(x[k]);
    out[2 * k] = xv * b[2 * k];
    out[2 * k + 1] = xv * b[2 * k + 1];
  }
}

/// In-place conjugation of n interleaved complex values.
inline void conjugate(double* x, std::size_t n) {
  std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  const detail::V4d sign = {1.0, -1.0, 1.0, -1.0};
  for (; k + 2 <= n; k += 2) {
    detail::store4d(x + 2 * k, detail::load4d(x + 2 * k) * sign);
  }
#endif
  for (; k < n; ++k) x[2 * k + 1] = -x[2 * k + 1];
}

/// out[k] = conj(a[k]) * scale * b[k] — the Bluestein postmultiply (inverse
/// conjugation, 1/m normalization, and chirp de-rotation in one pass).
inline void conj_multiply_scale(double* out, const double* a, const double* b,
                                double scale, std::size_t n) {
  std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  const detail::V4d sv = {scale, -scale, scale, -scale};
  for (; k + 2 <= n; k += 2) {
    detail::store4d(out + 2 * k, detail::cmul(detail::load4d(a + 2 * k) * sv,
                                              detail::load4d(b + 2 * k)));
  }
#endif
  for (; k < n; ++k) {
    const double tr = a[2 * k] * scale;
    const double ti = a[2 * k + 1] * -scale;
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = tr * br - ti * bi;
    out[2 * k + 1] = tr * bi + ti * br;
  }
}

/// out[k] = float(sqrt(re^2 + im^2)) of n interleaved complex values. The
/// squared sums vectorize; the square roots stay scalar (no portable
/// elementwise sqrt in the vector extension) but dominate either way.
inline void magnitudes_f32(const double* spec, float* out, std::size_t n) {
  std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; k + 2 <= n; k += 2) {
    const detail::V4d v = detail::load4d(spec + 2 * k);
    const detail::V4d sq = v * v;
    const detail::V4d sum = sq + detail::shuffle<1, 0, 3, 2>(sq);
    out[k] = static_cast<float>(std::sqrt(sum[0]));
    out[k + 1] = static_cast<float>(std::sqrt(sum[2]));
  }
#endif
  for (; k < n; ++k) {
    const double re = spec[2 * k];
    const double im = spec[2 * k + 1];
    out[k] = static_cast<float>(std::sqrt(re * re + im * im));
  }
}

namespace detail {
/// One scalar radix-2 butterfly between complex slots a and b with twiddle
/// (wr, wi) — shared by the scalar stage body and the odd-half tail.
inline void butterfly1(double* a, double* b, double wr, double wi) {
  const double vr = b[0] * wr - b[1] * wi;
  const double vi = b[0] * wi + b[1] * wr;
  const double ur = a[0];
  const double ui = a[1];
  a[0] = ur + vr;
  a[1] = ui + vi;
  b[0] = ur - vr;
  b[1] = ui - vi;
}
}  // namespace detail

/// One radix-2 Cooley-Tukey stage with butterfly span 2*half over s
/// interleaved complex values (s a multiple of 2*half). `tw` holds the
/// stage's half twiddles, sequential — the stage-contiguous layout FftPlan
/// precomputes. The vector path runs two butterflies per iteration.
inline void radix2_stage(double* __restrict d, const double* __restrict tw,
                         std::size_t s, std::size_t half) {
  const std::size_t len = 2 * half;
#if DYNRIVER_SIMD_VECTOR_EXT
  if (half >= 2) {
    const std::size_t vhalf = half & ~std::size_t{1};
    for (std::size_t i = 0; i < s; i += len) {
      double* a = d + 2 * i;
      double* b = a + 2 * half;
      for (std::size_t k = 0; k < vhalf; k += 2) {
        const detail::V4d w = detail::load4d(tw + 2 * k);
        const detail::V4d u = detail::load4d(a + 2 * k);
        const detail::V4d v = detail::cmul(detail::load4d(b + 2 * k), w);
        detail::store4d(a + 2 * k, u + v);
        detail::store4d(b + 2 * k, u - v);
      }
      for (std::size_t k = vhalf; k < half; ++k) {
        detail::butterfly1(a + 2 * k, b + 2 * k, tw[2 * k], tw[2 * k + 1]);
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < s; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      detail::butterfly1(d + 2 * (i + k), d + 2 * (i + k + half), tw[2 * k],
                         tw[2 * k + 1]);
    }
  }
}

/// The first two radix-2 stages fused into one twiddle-free radix-4 pass
/// over s interleaved complex values (s a multiple of 4): per 4-point block
///   t0 = x0+x1   t1 = x0-x1   t2 = x2+x3   t3 = -i*(x2-x3)
///   y0 = t0+t2   y1 = t1+t3   y2 = t0-t2   y3 = t1-t3
/// One pass over the data instead of two, and the -i rotation is an exact
/// swap/negate instead of the table path's cos/sin approximation.
inline void radix4_first_pass(double* d, std::size_t s) {
#if DYNRIVER_SIMD_VECTOR_EXT
  const detail::V4d sgn = {1.0, 1.0, -1.0, -1.0};
  const detail::V4d rot = {1.0, 1.0, 1.0, -1.0};
  for (std::size_t i = 0; i < s; i += 4) {
    double* p = d + 2 * i;
    const detail::V4d v01 = detail::load4d(p);
    const detail::V4d v23 = detail::load4d(p + 4);
    const detail::V4d t01 = detail::shuffle<2, 3, 0, 1>(v01) + sgn * v01;
    const detail::V4d t23 = detail::shuffle<2, 3, 0, 1>(v23) + sgn * v23;
    const detail::V4d t2r3 = detail::shuffle<0, 1, 3, 2>(t23) * rot;
    detail::store4d(p, t01 + t2r3);
    detail::store4d(p + 4, t01 - t2r3);
  }
#else
  for (std::size_t i = 0; i < s; i += 4) {
    double* p = d + 2 * i;
    const double t0r = p[0] + p[2];
    const double t0i = p[1] + p[3];
    const double t1r = p[0] - p[2];
    const double t1i = p[1] - p[3];
    const double t2r = p[4] + p[6];
    const double t2i = p[5] + p[7];
    const double dr = p[4] - p[6];
    const double di = p[5] - p[7];
    p[0] = t0r + t2r;
    p[1] = t0i + t2i;
    p[2] = t1r + di;
    p[3] = t1i - dr;
    p[4] = t0r - t2r;
    p[5] = t0i - t2i;
    p[6] = t1r - di;
    p[7] = t1i + dr;
  }
#endif
}

// ---------------------------------------------------------------------------
// Mixed-radix Stockham stages (Temperton, "Self-sorting mixed-radix FFTs",
// J. Comput. Phys. 1983). FftPlan runs every size 2^a 3^b 5^c that is not a
// power of two as a chain of these out-of-place stages, ping-ponging between
// two buffers; each stage writes its output in the order the next stage
// reads, so the result comes out in natural order with no bit-reversal.
//
// The radix butterflies are written once, as templates over the value type:
// a V4d (two complex values, one per lane pair) in the vector body and a C1
// (one complex value) in the scalar body and the tails. Both backends
// therefore run the same IEEE operations per element.
// ---------------------------------------------------------------------------

namespace detail {

/// One complex value: the scalar counterpart of a V4d lane pair.
struct C1 {
  double re;
  double im;
};
inline C1 operator+(C1 a, C1 b) { return {a.re + b.re, a.im + b.im}; }
inline C1 operator-(C1 a, C1 b) { return {a.re - b.re, a.im - b.im}; }
inline C1 operator*(C1 a, double s) { return {a.re * s, a.im * s}; }
/// Same (ar*br - ai*bi, ar*bi + ai*br) sequence as the vector cmul.
inline C1 cmul(C1 a, C1 b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
/// -i*a: an exact swap and negate.
inline C1 mul_neg_i(C1 a) { return {a.im, -a.re}; }
inline void load(C1& v, const double* p) { v = {p[0], p[1]}; }
inline void store(double* p, C1 v) {
  p[0] = v.re;
  p[1] = v.im;
}

#if DYNRIVER_SIMD_VECTOR_EXT
inline V4d mul_neg_i(V4d a) {
  const V4d sign = {1.0, -1.0, 1.0, -1.0};
  return shuffle<1, 0, 3, 2>(a) * sign;
}
inline void load(V4d& v, const double* p) { v = load4d(p); }
inline void store(double* p, V4d v) { store4d(p, v); }
#endif

// Forward R-point DFTs, in place: y_k = sum_j x_j exp(-2*pi*i*j*k/R).
// Radix 3 and 5 use the usual real-constant factorizations (the conjugate
// pair y_k, y_{R-k} share their real and imaginary partial sums).
constexpr double kSin60 = 0.8660254037844386;      // sin(2*pi/3)
constexpr double kCos72 = 0.30901699437494745;     // cos(2*pi/5)
constexpr double kCos144 = -0.8090169943749475;    // cos(4*pi/5)
constexpr double kSin72 = 0.9510565162951535;      // sin(2*pi/5)
constexpr double kSin144 = 0.5877852522924731;     // sin(4*pi/5)

template <class T>
inline void dft(std::array<T, 2>& x) {
  const T a = x[0];
  x[0] = a + x[1];
  x[1] = a - x[1];
}

template <class T>
inline void dft(std::array<T, 3>& x) {
  const T sum = x[1] + x[2];
  const T real = x[0] - sum * 0.5;
  const T imag = mul_neg_i(x[1] - x[2]) * kSin60;
  x[0] = x[0] + sum;
  x[1] = real + imag;
  x[2] = real - imag;
}

template <class T>
inline void dft(std::array<T, 4>& x) {
  const T t0 = x[0] + x[2];
  const T t1 = x[0] - x[2];
  const T t2 = x[1] + x[3];
  const T t3 = mul_neg_i(x[1] - x[3]);
  x[0] = t0 + t2;
  x[1] = t1 + t3;
  x[2] = t0 - t2;
  x[3] = t1 - t3;
}

template <class T>
inline void dft(std::array<T, 5>& x) {
  const T a1 = x[1] + x[4];
  const T b1 = x[1] - x[4];
  const T a2 = x[2] + x[3];
  const T b2 = x[2] - x[3];
  const T real1 = x[0] + a1 * kCos72 + a2 * kCos144;
  const T real2 = x[0] + a1 * kCos144 + a2 * kCos72;
  const T imag1 = mul_neg_i(b1 * kSin72 + b2 * kSin144);
  const T imag2 = mul_neg_i(b1 * kSin144 - b2 * kSin72);
  x[0] = x[0] + a1 + a2;
  x[1] = real1 + imag1;
  x[2] = real2 + imag2;
  x[3] = real2 - imag2;
  x[4] = real1 - imag1;
}

/// One radix-R Stockham butterfly (per lane of T): legs src[r*leg] for
/// r < R, twiddled by tw[(r-1)*l] for r >= 1, written to dst[r*l]. Offsets
/// count complex elements.
template <class T, std::size_t R>
inline void stockham_butterfly(double* dst, const double* src,
                               const double* tw, std::size_t l,
                               std::size_t leg) {
  std::array<T, R> x{};
  load(x[0], src);
  for (std::size_t r = 1; r < R; ++r) {
    T w{};
    load(x[r], src + 2 * r * leg);
    load(w, tw + 2 * (r - 1) * l);
    x[r] = cmul(x[r], w);
  }
  dft(x);
  for (std::size_t r = 0; r < R; ++r) store(dst + 2 * r * l, x[r]);
}

}  // namespace detail

/// One radix-R Stockham stage (R = 2, 3, 4 or 5), out of place, over
/// n = R*l*m interleaved complex values, where l is the product of the
/// radices of the stages before it. For block b < m and k < l, the
/// butterfly reads legs in[b*l + k + r*l*m], multiplies leg r >= 1 by
/// tw[(r-1)*l + k] = exp(-2*pi*i*k*r/(l*R)), runs an R-point DFT, and
/// writes out[b*l*R + k + r*l]. `out` and `in` may not overlap. The vector
/// path runs two k per iteration; an odd l leaves a one-butterfly tail.
template <std::size_t R>
inline void stockham_stage(double* __restrict out, const double* __restrict in,
                           const double* __restrict tw, std::size_t l,
                           std::size_t m) {
  static_assert(R >= 2 && R <= 5, "radix 2, 3, 4 or 5");
  const std::size_t leg = l * m;  // n/R: distance between a butterfly's legs
  for (std::size_t b = 0; b < m; ++b) {
    const double* src = in + 2 * b * l;
    double* dst = out + 2 * b * l * R;
    std::size_t k = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
    for (; k + 2 <= l; k += 2) {
      detail::stockham_butterfly<detail::V4d, R>(dst + 2 * k, src + 2 * k,
                                                 tw + 2 * k, l, leg);
    }
#endif
    for (; k < l; ++k) {
      detail::stockham_butterfly<detail::C1, R>(dst + 2 * k, src + 2 * k,
                                                tw + 2 * k, l, leg);
    }
  }
}

// ---------------------------------------------------------------------------
// Scoring-chain kernels (znorm / PAA / SAX / windowed energy).
//
// Reduction contract, shared verbatim by the vector and scalar bodies so the
// two backends agree bit-for-bit (the anomaly scorer's batch and streaming
// paths both fold through these, and their outputs feed integer symbol
// decisions): four double accumulator lanes, lane l summing elements
// l, l+4, l+8, ...; the n%4 tail folds sequentially into a fifth scalar
// accumulator; the result combines as ((lane0+lane2)+(lane1+lane3)) + tail.
// ---------------------------------------------------------------------------

/// Sum of n floats accumulated in double (fixed lane-order contract above).
[[nodiscard]] inline double sum_f32(const float* x, std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  detail::V4d acc = {0.0, 0.0, 0.0, 0.0};
  for (; i + 4 <= n; i += 4) {
    acc += __builtin_convertvector(detail::load4f(x + i), detail::V4d);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += static_cast<double>(x[i]);
  return ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail;
#else
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (; i + 4 <= n; i += 4) {
    l0 += static_cast<double>(x[i]);
    l1 += static_cast<double>(x[i + 1]);
    l2 += static_cast<double>(x[i + 2]);
    l3 += static_cast<double>(x[i + 3]);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += static_cast<double>(x[i]);
  return ((l0 + l2) + (l1 + l3)) + tail;
#endif
}

/// Sum of squares of n floats in double — the windowed-energy fold behind
/// the scorer's log-RMS frame aggregation (same lane-order contract).
[[nodiscard]] inline double sum_squares_f32(const float* x, std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  detail::V4d acc = {0.0, 0.0, 0.0, 0.0};
  for (; i + 4 <= n; i += 4) {
    const detail::V4d v =
        __builtin_convertvector(detail::load4f(x + i), detail::V4d);
    acc += v * v;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail;
#else
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
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
#endif
}

/// Fused mean/variance pass: one sweep accumulates sum and sum of squares
/// (each under the lane-order contract), then mean = S/n and population
/// variance = max(0, Q/n - mean^2). Audio-style data (bounded, near zero
/// mean) loses nothing to the E[x^2] - mu^2 cancellation in double; the
/// clamp absorbs the tiny negative residue a constant series can produce.
inline void mean_var_f32(const float* x, std::size_t n, double* mean_out,
                         double* var_out) {
  if (n == 0) {
    *mean_out = 0.0;
    *var_out = 0.0;
    return;
  }
  std::size_t i = 0;
  double s;
  double q;
#if DYNRIVER_SIMD_VECTOR_EXT
  detail::V4d acc_s = {0.0, 0.0, 0.0, 0.0};
  detail::V4d acc_q = {0.0, 0.0, 0.0, 0.0};
  for (; i + 4 <= n; i += 4) {
    const detail::V4d v =
        __builtin_convertvector(detail::load4f(x + i), detail::V4d);
    acc_s += v;
    acc_q += v * v;
  }
  double tail_s = 0.0;
  double tail_q = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    tail_s += v;
    tail_q += v * v;
  }
  s = ((acc_s[0] + acc_s[2]) + (acc_s[1] + acc_s[3])) + tail_s;
  q = ((acc_q[0] + acc_q[2]) + (acc_q[1] + acc_q[3])) + tail_q;
#else
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  for (; i + 4 <= n; i += 4) {
    const double v0 = static_cast<double>(x[i]);
    const double v1 = static_cast<double>(x[i + 1]);
    const double v2 = static_cast<double>(x[i + 2]);
    const double v3 = static_cast<double>(x[i + 3]);
    s0 += v0;
    s1 += v1;
    s2 += v2;
    s3 += v3;
    q0 += v0 * v0;
    q1 += v1 * v1;
    q2 += v2 * v2;
    q3 += v3 * v3;
  }
  double tail_s = 0.0;
  double tail_q = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    tail_s += v;
    tail_q += v * v;
  }
  s = ((s0 + s2) + (s1 + s3)) + tail_s;
  q = ((q0 + q2) + (q1 + q3)) + tail_q;
#endif
  const double inv_n = 1.0 / static_cast<double>(n);
  const double mean = s * inv_n;
  const double var = q * inv_n - mean * mean;
  *mean_out = mean;
  *var_out = var > 0.0 ? var : 0.0;
}

/// dst[i] = (x[i] - mu) * inv_sigma in float — the z-normalize apply step.
/// `dst` may alias `x` (the in-place normalization). Pure elementwise float
/// arithmetic: vector and scalar bodies are bit-identical.
inline void normalize_f32(float* dst, const float* x, std::size_t n, float mu,
                          float inv_sigma) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  const detail::V8f muv = {mu, mu, mu, mu, mu, mu, mu, mu};
  const detail::V8f sv = {inv_sigma, inv_sigma, inv_sigma, inv_sigma,
                          inv_sigma, inv_sigma, inv_sigma, inv_sigma};
  for (; i + 8 <= n; i += 8) {
    detail::store8f(dst + i, (detail::load8f(x + i) - muv) * sv);
  }
#endif
  for (; i < n; ++i) dst[i] = (x[i] - mu) * inv_sigma;
}

/// out[s] = mean of x[s*seg_len .. (s+1)*seg_len) in float — the PAA
/// segment-mean fold over a whole record (exact-divisor geometry). Each
/// segment reduces under the lane-order contract of sum_f32.
inline void segment_means_f32(const float* x, std::size_t segments,
                              std::size_t seg_len, float* out) {
  const double inv_len = 1.0 / static_cast<double>(seg_len);
  for (std::size_t s = 0; s < segments; ++s) {
    out[s] = static_cast<float>(sum_f32(x + s * seg_len, seg_len) * inv_len);
  }
}

/// SAX discretization of n floats against `n_breaks` sorted breakpoints:
/// out[i] = number of breakpoints <= x[i] — branchless, exactly the index
/// the textbook "scan until x < breakpoint" search returns for sorted
/// breakpoints. The vector body accumulates the 0/-1 lanes of four
/// comparisons per breakpoint; counts are exact integers, so vector, scalar,
/// and scan agree bit-for-bit. (NaN input maps to symbol 0 on every path.)
inline void discretize_f32(const float* x, std::size_t n, const double* breaks,
                           std::size_t n_breaks, std::uint8_t* out) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; i + 4 <= n; i += 4) {
    const detail::V4d v =
        __builtin_convertvector(detail::load4f(x + i), detail::V4d);
    detail::M4 counts = {0, 0, 0, 0};
    for (std::size_t b = 0; b < n_breaks; ++b) {
      const double bp = breaks[b];
      const detail::V4d bv = {bp, bp, bp, bp};
      counts -= (v >= bv);  // each lane: 0 or -1
    }
    out[i] = static_cast<std::uint8_t>(counts[0]);
    out[i + 1] = static_cast<std::uint8_t>(counts[1]);
    out[i + 2] = static_cast<std::uint8_t>(counts[2]);
    out[i + 3] = static_cast<std::uint8_t>(counts[3]);
  }
#endif
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    unsigned sym = 0;
    for (std::size_t b = 0; b < n_breaks; ++b) {
      sym += v >= breaks[b] ? 1U : 0U;
    }
    out[i] = static_cast<std::uint8_t>(sym);
  }
}

/// dst[i] = max(dst[i], x[i]) over n doubles — the kMax score-fusion fold
/// across channels. max is evaluated elementwise as (b > a ? b : a),
/// identical to std::max for non-NaN scores, so vector and scalar bodies
/// agree bitwise.
inline void max_inplace_f64(double* dst, const double* x, std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; i + 4 <= n; i += 4) {
    const detail::V4d a = detail::load4d(dst + i);
    const detail::V4d b = detail::load4d(x + i);
    detail::store4d(dst + i, b > a ? b : a);
  }
#endif
  for (; i < n; ++i) dst[i] = x[i] > dst[i] ? x[i] : dst[i];
}

/// dst[i] += x[i] over n doubles (the kMean fusion accumulate). Pure
/// elementwise adds: vector and scalar bodies are bit-identical.
inline void add_inplace_f64(double* dst, const double* x, std::size_t n) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  for (; i + 4 <= n; i += 4) {
    detail::store4d(dst + i, detail::load4d(dst + i) + detail::load4d(x + i));
  }
#endif
  for (; i < n; ++i) dst[i] += x[i];
}

/// dst[i] *= s over n doubles (the kMean 1/channels normalization). Pure
/// elementwise multiplies: vector and scalar bodies are bit-identical.
inline void scale_f64(double* dst, std::size_t n, double s) {
  std::size_t i = 0;
#if DYNRIVER_SIMD_VECTOR_EXT
  const detail::V4d sv = {s, s, s, s};
  for (; i + 4 <= n; i += 4) {
    detail::store4d(dst + i, detail::load4d(dst + i) * sv);
  }
#endif
  for (; i < n; ++i) dst[i] *= s;
}

}  // namespace dynriver::dsp::simd
