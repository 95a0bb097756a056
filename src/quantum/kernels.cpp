#include "quantum/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/sampling.h"
#include "quantum/tuner.h"

// AVX2 kernels are compiled behind a target attribute and selected at
// runtime, so the translation unit builds (and the scalar path runs) on any
// host.  -DQDB_NO_AVX2=ON removes them entirely: the CI scalar-fallback leg
// and sanitizer builds on non-AVX2 runners take this path.
#if !defined(QDB_NO_AVX2) && (defined(__x86_64__) || defined(_M_X64))
#define QDB_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace qdb {

const char* precision_name(Precision p) {
  return p == Precision::f64 ? "f64" : "f32";
}

bool kernels_avx2_compiled() {
#ifdef QDB_AVX2_BUILD
  return true;
#else
  return false;
#endif
}

bool kernels_avx2_active() {
#ifdef QDB_AVX2_BUILD
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

namespace {

// One lowered op: matrices flattened to the working precision as
// (real, imag) pairs.  1q uses m[0..7] = row-major 2x2; 2q uses m[0..31] =
// row-major 4x4 in the |q1 q0> basis Statevector::apply_2q uses.
template <class Real>
struct OpK {
  bool two_qubit = false;
  int q0 = 0;
  int q1 = -1;
  int hi = 0;  ///< highest qubit touched (block-locality test)
  Real m[32] = {};
};

template <class Real>
std::vector<OpK<Real>> lower_ops(const FusedProgram& p) {
  std::vector<OpK<Real>> ops;
  ops.reserve(p.ops.size());
  for (const FusedOp& src : p.ops) {
    OpK<Real> op;
    op.two_qubit = src.two_qubit;
    op.q0 = src.q0;
    op.q1 = src.q1;
    if (src.two_qubit) {
      op.hi = std::max(src.q0, src.q1);
      for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
          op.m[(r * 4 + c) * 2 + 0] = static_cast<Real>(src.m4[r][c].real());
          op.m[(r * 4 + c) * 2 + 1] = static_cast<Real>(src.m4[r][c].imag());
        }
    } else {
      op.hi = src.q0;
      for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c) {
          op.m[(r * 2 + c) * 2 + 0] = static_cast<Real>(src.m2[r][c].real());
          op.m[(r * 2 + c) * 2 + 1] = static_cast<Real>(src.m2[r][c].imag());
        }
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Scalar kernels.  The expression trees below are the SoA transliteration of
// Statevector's std::complex arithmetic: per output, products are rounded
// individually, subtractions pair (real, imag) cross terms, and sums
// associate left to right.  The AVX2 kernels replicate the same trees per
// lane with no FMA, which is what makes f64 results bit-identical across
// scalar, SIMD, and any cache-block size.
// ---------------------------------------------------------------------------

template <class Real>
void apply_1q_scalar(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                     int q, const Real* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; ++j) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const Real a0r = re[i0], a0i = im[i0];
      const Real a1r = re[i1], a1i = im[i1];
      re[i0] = (m[0] * a0r - m[1] * a0i) + (m[2] * a1r - m[3] * a1i);
      im[i0] = (m[0] * a0i + m[1] * a0r) + (m[2] * a1i + m[3] * a1r);
      re[i1] = (m[4] * a0r - m[5] * a0i) + (m[6] * a1r - m[7] * a1i);
      im[i1] = (m[4] * a0i + m[5] * a0r) + (m[6] * a1i + m[7] * a1r);
    }
  }
}

template <class Real>
void apply_2q_scalar(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                     int q0, int q1, const Real* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; ++j) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const Real ar[4] = {re[i00], re[i01], re[i10], re[i11]};
        const Real ai[4] = {im[i00], im[i01], im[i10], im[i11]};
        Real orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const Real* mr = m + 8 * r;
          Real vr = mr[0] * ar[0] - mr[1] * ai[0];
          Real vi = mr[0] * ai[0] + mr[1] * ar[0];
          vr += mr[2] * ar[1] - mr[3] * ai[1];
          vi += mr[2] * ai[1] + mr[3] * ar[1];
          vr += mr[4] * ar[2] - mr[5] * ai[2];
          vi += mr[4] * ai[2] + mr[5] * ar[2];
          vr += mr[6] * ar[3] - mr[7] * ai[3];
          vi += mr[6] * ai[3] + mr[7] * ar[3];
          orr[r] = vr;
          ori[r] = vi;
        }
        re[i00] = orr[0]; im[i00] = ori[0];
        re[i01] = orr[1]; im[i01] = ori[1];
        re[i10] = orr[2]; im[i10] = ori[2];
        re[i11] = orr[3]; im[i11] = ori[3];
      }
    }
  }
}

#ifdef QDB_AVX2_BUILD

// ---------------------------------------------------------------------------
// AVX2 kernels.  target("avx2") deliberately omits "fma": without the FMA
// ISA the compiler cannot contract mul+add, so each lane computes exactly
// the scalar expression tree.  Callers guarantee the contiguous inner run
// (2^q for 1q, 2^min(q0,q1) for 2q) covers at least one full vector.
// ---------------------------------------------------------------------------

__attribute__((target("avx2")))
void apply_1q_avx2(double* re, double* im, std::uint64_t begin,
                   std::uint64_t end, int q, const double* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  __m256d mv[8];
  for (int k = 0; k < 8; ++k) mv[k] = _mm256_set1_pd(m[k]);
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; j += 4) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const __m256d a0r = _mm256_loadu_pd(re + i0);
      const __m256d a0i = _mm256_loadu_pd(im + i0);
      const __m256d a1r = _mm256_loadu_pd(re + i1);
      const __m256d a1i = _mm256_loadu_pd(im + i1);
      _mm256_storeu_pd(
          re + i0,
          _mm256_add_pd(
              _mm256_sub_pd(_mm256_mul_pd(mv[0], a0r), _mm256_mul_pd(mv[1], a0i)),
              _mm256_sub_pd(_mm256_mul_pd(mv[2], a1r), _mm256_mul_pd(mv[3], a1i))));
      _mm256_storeu_pd(
          im + i0,
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(mv[0], a0i), _mm256_mul_pd(mv[1], a0r)),
              _mm256_add_pd(_mm256_mul_pd(mv[2], a1i), _mm256_mul_pd(mv[3], a1r))));
      _mm256_storeu_pd(
          re + i1,
          _mm256_add_pd(
              _mm256_sub_pd(_mm256_mul_pd(mv[4], a0r), _mm256_mul_pd(mv[5], a0i)),
              _mm256_sub_pd(_mm256_mul_pd(mv[6], a1r), _mm256_mul_pd(mv[7], a1i))));
      _mm256_storeu_pd(
          im + i1,
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(mv[4], a0i), _mm256_mul_pd(mv[5], a0r)),
              _mm256_add_pd(_mm256_mul_pd(mv[6], a1i), _mm256_mul_pd(mv[7], a1r))));
    }
  }
}

__attribute__((target("avx2")))
void apply_1q_avx2(float* re, float* im, std::uint64_t begin, std::uint64_t end,
                   int q, const float* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  __m256 mv[8];
  for (int k = 0; k < 8; ++k) mv[k] = _mm256_set1_ps(m[k]);
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; j += 8) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const __m256 a0r = _mm256_loadu_ps(re + i0);
      const __m256 a0i = _mm256_loadu_ps(im + i0);
      const __m256 a1r = _mm256_loadu_ps(re + i1);
      const __m256 a1i = _mm256_loadu_ps(im + i1);
      _mm256_storeu_ps(
          re + i0,
          _mm256_add_ps(
              _mm256_sub_ps(_mm256_mul_ps(mv[0], a0r), _mm256_mul_ps(mv[1], a0i)),
              _mm256_sub_ps(_mm256_mul_ps(mv[2], a1r), _mm256_mul_ps(mv[3], a1i))));
      _mm256_storeu_ps(
          im + i0,
          _mm256_add_ps(
              _mm256_add_ps(_mm256_mul_ps(mv[0], a0i), _mm256_mul_ps(mv[1], a0r)),
              _mm256_add_ps(_mm256_mul_ps(mv[2], a1i), _mm256_mul_ps(mv[3], a1r))));
      _mm256_storeu_ps(
          re + i1,
          _mm256_add_ps(
              _mm256_sub_ps(_mm256_mul_ps(mv[4], a0r), _mm256_mul_ps(mv[5], a0i)),
              _mm256_sub_ps(_mm256_mul_ps(mv[6], a1r), _mm256_mul_ps(mv[7], a1i))));
      _mm256_storeu_ps(
          im + i1,
          _mm256_add_ps(
              _mm256_add_ps(_mm256_mul_ps(mv[4], a0i), _mm256_mul_ps(mv[5], a0r)),
              _mm256_add_ps(_mm256_mul_ps(mv[6], a1i), _mm256_mul_ps(mv[7], a1r))));
    }
  }
}

__attribute__((target("avx2")))
void apply_2q_avx2(double* re, double* im, std::uint64_t begin,
                   std::uint64_t end, int q0, int q1, const double* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  __m256d mv[32];
  for (int k = 0; k < 32; ++k) mv[k] = _mm256_set1_pd(m[k]);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; j += 4) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const __m256d ar0 = _mm256_loadu_pd(re + i00), ai0 = _mm256_loadu_pd(im + i00);
        const __m256d ar1 = _mm256_loadu_pd(re + i01), ai1 = _mm256_loadu_pd(im + i01);
        const __m256d ar2 = _mm256_loadu_pd(re + i10), ai2 = _mm256_loadu_pd(im + i10);
        const __m256d ar3 = _mm256_loadu_pd(re + i11), ai3 = _mm256_loadu_pd(im + i11);
        __m256d orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const __m256d* mr = mv + 8 * r;
          __m256d vr = _mm256_sub_pd(_mm256_mul_pd(mr[0], ar0), _mm256_mul_pd(mr[1], ai0));
          __m256d vi = _mm256_add_pd(_mm256_mul_pd(mr[0], ai0), _mm256_mul_pd(mr[1], ar0));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[2], ar1), _mm256_mul_pd(mr[3], ai1)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[2], ai1), _mm256_mul_pd(mr[3], ar1)));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[4], ar2), _mm256_mul_pd(mr[5], ai2)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[4], ai2), _mm256_mul_pd(mr[5], ar2)));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[6], ar3), _mm256_mul_pd(mr[7], ai3)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[6], ai3), _mm256_mul_pd(mr[7], ar3)));
          orr[r] = vr;
          ori[r] = vi;
        }
        _mm256_storeu_pd(re + i00, orr[0]); _mm256_storeu_pd(im + i00, ori[0]);
        _mm256_storeu_pd(re + i01, orr[1]); _mm256_storeu_pd(im + i01, ori[1]);
        _mm256_storeu_pd(re + i10, orr[2]); _mm256_storeu_pd(im + i10, ori[2]);
        _mm256_storeu_pd(re + i11, orr[3]); _mm256_storeu_pd(im + i11, ori[3]);
      }
    }
  }
}

__attribute__((target("avx2")))
void apply_2q_avx2(float* re, float* im, std::uint64_t begin, std::uint64_t end,
                   int q0, int q1, const float* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  __m256 mv[32];
  for (int k = 0; k < 32; ++k) mv[k] = _mm256_set1_ps(m[k]);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; j += 8) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const __m256 ar0 = _mm256_loadu_ps(re + i00), ai0 = _mm256_loadu_ps(im + i00);
        const __m256 ar1 = _mm256_loadu_ps(re + i01), ai1 = _mm256_loadu_ps(im + i01);
        const __m256 ar2 = _mm256_loadu_ps(re + i10), ai2 = _mm256_loadu_ps(im + i10);
        const __m256 ar3 = _mm256_loadu_ps(re + i11), ai3 = _mm256_loadu_ps(im + i11);
        __m256 orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const __m256* mr = mv + 8 * r;
          __m256 vr = _mm256_sub_ps(_mm256_mul_ps(mr[0], ar0), _mm256_mul_ps(mr[1], ai0));
          __m256 vi = _mm256_add_ps(_mm256_mul_ps(mr[0], ai0), _mm256_mul_ps(mr[1], ar0));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[2], ar1), _mm256_mul_ps(mr[3], ai1)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[2], ai1), _mm256_mul_ps(mr[3], ar1)));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[4], ar2), _mm256_mul_ps(mr[5], ai2)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[4], ai2), _mm256_mul_ps(mr[5], ar2)));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[6], ar3), _mm256_mul_ps(mr[7], ai3)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[6], ai3), _mm256_mul_ps(mr[7], ar3)));
          orr[r] = vr;
          ori[r] = vi;
        }
        _mm256_storeu_ps(re + i00, orr[0]); _mm256_storeu_ps(im + i00, ori[0]);
        _mm256_storeu_ps(re + i01, orr[1]); _mm256_storeu_ps(im + i01, ori[1]);
        _mm256_storeu_ps(re + i10, orr[2]); _mm256_storeu_ps(im + i10, ori[2]);
        _mm256_storeu_ps(re + i11, orr[3]); _mm256_storeu_ps(im + i11, ori[3]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Low-qubit AVX2 kernels, for ops whose low qubit lies inside one register
// (q < 2 at f64, q < 3 at f32).  Each output lane fetches its operands with
// an in-register permute of the register(s) holding its amplitude group,
// multiplies them by a per-lane copy of its matrix row, and sums in the
// scalar kernels' order, so every lane evaluates the scalar expression
// tree, again without FMA.
// ---------------------------------------------------------------------------

template <class Real>
struct Avx2;

template <>
struct Avx2<double> {
  using Vec = __m256d;
  static constexpr int kLanes = 4;
  static constexpr int kLaneBits = 2;
  __attribute__((target("avx2"))) static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  __attribute__((target("avx2"))) static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  __attribute__((target("avx2"))) static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  __attribute__((target("avx2"))) static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  __attribute__((target("avx2"))) static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  /// Lane p of the result is lane src[p] of x.
  __attribute__((target("avx2"))) static __m256i lane_index(const int* src) {
    return _mm256_setr_epi32(2 * src[0], 2 * src[0] + 1, 2 * src[1], 2 * src[1] + 1,
                             2 * src[2], 2 * src[2] + 1, 2 * src[3], 2 * src[3] + 1);
  }
  __attribute__((target("avx2"))) static Vec permute(Vec x, __m256i idx) {
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(x), idx));
  }
};

template <>
struct Avx2<float> {
  using Vec = __m256;
  static constexpr int kLanes = 8;
  static constexpr int kLaneBits = 3;
  __attribute__((target("avx2"))) static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  __attribute__((target("avx2"))) static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  __attribute__((target("avx2"))) static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  __attribute__((target("avx2"))) static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  __attribute__((target("avx2"))) static Vec sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  __attribute__((target("avx2"))) static __m256i lane_index(const int* src) {
    return _mm256_setr_epi32(src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]);
  }
  __attribute__((target("avx2"))) static Vec permute(Vec x, __m256i idx) {
    return _mm256_permutevar8x32_ps(x, idx);
  }
};

// [begin, end) is register-aligned and a whole number of registers; every
// register holds whole (i0, i1) pairs.
template <class Real>
__attribute__((target("avx2")))
void apply_1q_avx2_low(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                       int q, const Real* m) {
  using K = Avx2<Real>;
  using Vec = typename K::Vec;
  constexpr int L = K::kLanes;
  const int bit = 1 << q;
  int src[2][L];
  alignas(32) Real cr[2][L], ci[2][L];  // [column][lane]
  for (int p = 0; p < L; ++p) {
    const int row = (p & bit) ? 1 : 0;
    for (int col = 0; col < 2; ++col) {
      src[col][p] = col ? (p | bit) : (p & ~bit);
      cr[col][p] = m[(row * 2 + col) * 2 + 0];
      ci[col][p] = m[(row * 2 + col) * 2 + 1];
    }
  }
  const __m256i idx0 = K::lane_index(src[0]), idx1 = K::lane_index(src[1]);
  const Vec c0r = K::load(cr[0]), c0i = K::load(ci[0]);
  const Vec c1r = K::load(cr[1]), c1i = K::load(ci[1]);
  for (std::uint64_t i = begin; i != end; i += L) {
    const Vec xr = K::load(re + i), xi = K::load(im + i);
    const Vec a0r = K::permute(xr, idx0), a0i = K::permute(xi, idx0);
    const Vec a1r = K::permute(xr, idx1), a1i = K::permute(xi, idx1);
    K::store(re + i, K::add(K::sub(K::mul(c0r, a0r), K::mul(c0i, a0i)),
                            K::sub(K::mul(c1r, a1r), K::mul(c1i, a1i))));
    K::store(im + i, K::add(K::add(K::mul(c0r, a0i), K::mul(c0i, a0r)),
                            K::add(K::mul(c1r, a1i), K::mul(c1i, a1r))));
  }
}

// One output row of a 2q op: v = t0, v += t1, v += t2, v += t3 with
// t_c = m[r][c] * a_c, exactly as apply_2q_scalar.
template <class Real, class Vec = typename Avx2<Real>::Vec>
__attribute__((target("avx2"), always_inline)) inline
void row_sum_avx2(const Vec* ar, const Vec* ai, const Vec* cr, const Vec* ci,
                  Real* out_re, Real* out_im) {
  using K = Avx2<Real>;
  Vec vr = K::sub(K::mul(cr[0], ar[0]), K::mul(ci[0], ai[0]));
  Vec vi = K::add(K::mul(cr[0], ai[0]), K::mul(ci[0], ar[0]));
#pragma GCC unroll 3
  for (int c = 1; c < 4; ++c) {
    vr = K::add(vr, K::sub(K::mul(cr[c], ar[c]), K::mul(ci[c], ai[c])));
    vi = K::add(vi, K::add(K::mul(cr[c], ai[c]), K::mul(ci[c], ar[c])));
  }
  K::store(out_re, vr);
  K::store(out_im, vi);
}

// A 2q op with its low qubit inside a register and its high qubit across
// registers: the register at i (high bit 0) and the one at i + 2^hi (high
// bit 1) line up lane by lane, and each lane reads the low-bit-0/1
// operands of its own pair.  kLowIsQ0 tells which operand is the low qubit;
// matrix column c pairs with the amplitude whose (q1, q0) bits are
// (c >> 1, c & 1).
template <class Real, bool kLowIsQ0>
__attribute__((target("avx2")))
void apply_2q_avx2_split(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                         int lo, int hi, const Real* m) {
  using K = Avx2<Real>;
  using Vec = typename K::Vec;
  constexpr int L = K::kLanes;
  const int bl = 1 << lo;
  int src[2][L];                              // [low-bit value][lane]
  alignas(32) Real cr[2][4][L], ci[2][4][L];  // [high bit][column][lane]
  for (int p = 0; p < L; ++p) {
    const int low_bit = (p & bl) ? 1 : 0;
    src[0][p] = p & ~bl;
    src[1][p] = p | bl;
    for (int h = 0; h < 2; ++h) {
      const int row = kLowIsQ0 ? 2 * h + low_bit : 2 * low_bit + h;
      for (int c = 0; c < 4; ++c) {
        cr[h][c][p] = m[(row * 4 + c) * 2 + 0];
        ci[h][c][p] = m[(row * 4 + c) * 2 + 1];
      }
    }
  }
  const __m256i idx0 = K::lane_index(src[0]), idx1 = K::lane_index(src[1]);
  Vec cvr[2][4], cvi[2][4];
  for (int h = 0; h < 2; ++h)
    for (int c = 0; c < 4; ++c) {
      cvr[h][c] = K::load(cr[h][c]);
      cvi[h][c] = K::load(ci[h][c]);
    }
  // Operand (register, low bit) -> index register * 2 + low bit; columns 1
  // and 2 swap places when the low qubit is q1.
  constexpr int k1 = kLowIsQ0 ? 1 : 2;
  constexpr int k2 = kLowIsQ0 ? 2 : 1;
  const std::uint64_t bh = std::uint64_t{1} << hi;
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t j = 0; j < bh; j += L) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + bh;
      const Vec x0r = K::load(re + i0), x0i = K::load(im + i0);
      const Vec x1r = K::load(re + i1), x1i = K::load(im + i1);
      const Vec pr[4] = {K::permute(x0r, idx0), K::permute(x0r, idx1),
                         K::permute(x1r, idx0), K::permute(x1r, idx1)};
      const Vec pi[4] = {K::permute(x0i, idx0), K::permute(x0i, idx1),
                         K::permute(x1i, idx0), K::permute(x1i, idx1)};
      const Vec ar[4] = {pr[0], pr[k1], pr[k2], pr[3]};
      const Vec ai[4] = {pi[0], pi[k1], pi[k2], pi[3]};
      row_sum_avx2(ar, ai, cvr[0], cvi[0], re + i0, im + i0);
      row_sum_avx2(ar, ai, cvr[1], cvi[1], re + i1, im + i1);
    }
  }
}

template <class Real>
__attribute__((target("avx2")))
void apply_2q_avx2_low(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                       int q0, int q1, const Real* m) {
  using K = Avx2<Real>;
  using Vec = typename K::Vec;
  constexpr int L = K::kLanes;
  if (q0 >= K::kLaneBits || q1 >= K::kLaneBits) {
    if (q0 < q1) {
      apply_2q_avx2_split<Real, true>(re, im, begin, end, q0, q1, m);
    } else {
      apply_2q_avx2_split<Real, false>(re, im, begin, end, q1, q0, m);
    }
    return;
  }
  // Both qubits inside a register: each register holds whole groups, and
  // lane p reads column c's operand from lane (p without the op bits) | c's
  // bits.
  const int b0 = 1 << q0;
  const int b1 = 1 << q1;
  int src[4][L];
  alignas(32) Real cr[4][L], ci[4][L];  // [column][lane]
  for (int p = 0; p < L; ++p) {
    const int row = ((p & b1) ? 2 : 0) + ((p & b0) ? 1 : 0);
    for (int c = 0; c < 4; ++c) {
      src[c][p] = (p & ~(b0 | b1)) | ((c & 1) ? b0 : 0) | ((c & 2) ? b1 : 0);
      cr[c][p] = m[(row * 4 + c) * 2 + 0];
      ci[c][p] = m[(row * 4 + c) * 2 + 1];
    }
  }
  __m256i idx[4];
  Vec cvr[4], cvi[4];
  for (int c = 0; c < 4; ++c) {
    idx[c] = K::lane_index(src[c]);
    cvr[c] = K::load(cr[c]);
    cvi[c] = K::load(ci[c]);
  }
  for (std::uint64_t i = begin; i != end; i += L) {
    const Vec xr = K::load(re + i), xi = K::load(im + i);
    const Vec ar[4] = {K::permute(xr, idx[0]), K::permute(xr, idx[1]),
                       K::permute(xr, idx[2]), K::permute(xr, idx[3])};
    const Vec ai[4] = {K::permute(xi, idx[0]), K::permute(xi, idx[1]),
                       K::permute(xi, idx[2]), K::permute(xi, idx[3])};
    row_sum_avx2(ar, ai, cvr, cvi, re + i, im + i);
  }
}

// AVX2 dispatch for one op over [begin, end).  A range narrower than one
// register (a cache block below the register width) is staged through a
// zero-padded register-sized buffer; its op bits all lie inside the range,
// so the padding lanes never feed a real amplitude.
template <class Real>
void apply_op_avx2(Real* re, Real* im, const OpK<Real>& op, std::uint64_t begin,
                   std::uint64_t end) {
  constexpr int L = Avx2<Real>::kLanes;
  if (end - begin < L) {
    const auto n = static_cast<std::ptrdiff_t>(end - begin);
    Real pad_re[L] = {}, pad_im[L] = {};
    std::copy(re + begin, re + end, pad_re);
    std::copy(im + begin, im + end, pad_im);
    apply_op_avx2(pad_re, pad_im, op, 0, L);
    std::copy(pad_re, pad_re + n, re + begin);
    std::copy(pad_im, pad_im + n, im + begin);
    return;
  }
  if (op.two_qubit) {
    if (std::min(op.q0, op.q1) >= Avx2<Real>::kLaneBits) {
      apply_2q_avx2(re, im, begin, end, op.q0, op.q1, op.m);
    } else {
      apply_2q_avx2_low(re, im, begin, end, op.q0, op.q1, op.m);
    }
  } else if (op.q0 >= Avx2<Real>::kLaneBits) {
    apply_1q_avx2(re, im, begin, end, op.q0, op.m);
  } else {
    apply_1q_avx2_low(re, im, begin, end, op.q0, op.m);
  }
}

#endif  // QDB_AVX2_BUILD

// Apply one lowered op to the index range [begin, end).  `begin`/`end` must
// be multiples of 2^(op.hi + 1) (block bases and full-array chunks are).
// The scalar kernels run only without AVX2 (or under force_scalar).
template <class Real>
void apply_op_range(Real* re, Real* im, const OpK<Real>& op, std::uint64_t begin,
                    std::uint64_t end, bool avx2) {
#ifdef QDB_AVX2_BUILD
  if (avx2) {
    apply_op_avx2(re, im, op, begin, end);
    return;
  }
#else
  (void)avx2;
#endif
  if (op.two_qubit) {
    apply_2q_scalar(re, im, begin, end, op.q0, op.q1, op.m);
  } else {
    apply_1q_scalar(re, im, begin, end, op.q0, op.m);
  }
}

// Execute a lowered program: consecutive ops confined to the low `block`
// qubits run block by block (one 2^block window stays L1-resident across
// the whole segment); anything wider takes its own full-array pass.  Every
// task updates a disjoint index range, so thread count never affects bits.
template <class Real>
void run_lowered(Real* re, Real* im, int num_qubits, int block, bool avx2,
                 const std::vector<OpK<Real>>& ops) {
  const std::uint64_t dim = std::uint64_t{1} << num_qubits;
  const int b = std::min(block, num_qubits);
  const std::uint64_t bs = std::uint64_t{1} << b;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].hi < b) {
      std::size_t j = i + 1;
      while (j < ops.size() && ops[j].hi < b) ++j;
      const auto nblocks = static_cast<std::int64_t>(dim >> b);
      parallel_for_static(nblocks, [&](std::int64_t blk) {
        const std::uint64_t begin = static_cast<std::uint64_t>(blk) << b;
        for (std::size_t k = i; k < j; ++k) {
          apply_op_range(re, im, ops[k], begin, begin + bs, avx2);
        }
      });
      i = j;
    } else {
      const OpK<Real>& op = ops[i];
      const std::uint64_t step = std::uint64_t{2} << op.hi;
      const auto nchunks = static_cast<std::int64_t>(dim / step);
      parallel_for_static(nchunks, [&](std::int64_t k) {
        const std::uint64_t begin = static_cast<std::uint64_t>(k) * step;
        apply_op_range(re, im, op, begin, begin + step, avx2);
      });
      ++i;
    }
  }
}

int default_block_qubits(Precision p) {
  // Both split arrays of one block should fit L1 with headroom:
  // f64: 2^10 * 16 B = 16 KiB; f32: 2^11 * 8 B = 16 KiB.
  return p == Precision::f64 ? 10 : 11;
}

}  // namespace

FusedEngine::FusedEngine(int num_qubits, Precision precision, EngineOptions opt)
    : num_qubits_(num_qubits), precision_(precision), opt_(opt) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "fused engine supports 1..30 qubits");
  if (opt_.block_qubits > 0) {
    block_qubits_ = opt_.block_qubits;
  } else if (opt_.use_tuner) {
    block_qubits_ = Tuner::global().plan_for(num_qubits, precision).block_qubits;
  } else {
    block_qubits_ = default_block_qubits(precision);
  }
  block_qubits_ = std::clamp(block_qubits_, 1, num_qubits_);
  const std::size_t dim = std::size_t{1} << num_qubits_;
  if (precision_ == Precision::f64) {
    re64_.assign(dim, 0.0);
    im64_.assign(dim, 0.0);
    re64_[0] = 1.0;
  } else {
    re32_.assign(dim, 0.0f);
    im32_.assign(dim, 0.0f);
    re32_[0] = 1.0f;
  }
}

void FusedEngine::reset() {
  if (precision_ == Precision::f64) {
    std::fill(re64_.begin(), re64_.end(), 0.0);
    std::fill(im64_.begin(), im64_.end(), 0.0);
    re64_[0] = 1.0;
  } else {
    std::fill(re32_.begin(), re32_.end(), 0.0f);
    std::fill(im32_.begin(), im32_.end(), 0.0f);
    re32_[0] = 1.0f;
  }
  cdf_valid_ = false;
}

void FusedEngine::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than engine");
  // Same site name as Statevector::apply — the fused engine *is* the dense
  // apply path now, and the fault sweep's coverage carries over unchanged.
  fault_site("engine.dense.apply");
  FusionOptions fo;
  fo.fuse_matrices = (precision_ == Precision::f32);
  apply(fuse_circuit(c, fo));
  if constexpr (check::audit_enabled()) {
    const double n2 = norm2();
    const double tol = precision_ == Precision::f64 ? 1e-6 : 1e-3;
    QDB_AUDIT(std::abs(n2 - 1.0) < tol,
              "fused engine norm drifted after circuit: norm2="
                  << n2 << " gates=" << c.gates().size() << " precision="
                  << precision_name(precision_));
  }
}

void FusedEngine::apply(const FusedProgram& p) {
  QDB_REQUIRE(p.num_qubits <= num_qubits_, "program wider than engine");
  static obs::Counter& gates_in = obs::counter("kernel.fused.gates_in");
  static obs::Counter& ops_out = obs::counter("kernel.fused.ops");
  gates_in.add(p.gates_in);
  ops_out.add(p.ops.size());
  obs::Span span(precision_ == Precision::f64 ? "kernel.apply.f64"
                                              : "kernel.apply.f32");
  const bool avx2 = !opt_.force_scalar && kernels_avx2_active();
  if (precision_ == Precision::f64) {
    run_lowered(re64_.data(), im64_.data(), num_qubits_, block_qubits_, avx2,
                lower_ops<double>(p));
  } else {
    run_lowered(re32_.data(), im32_.data(), num_qubits_, block_qubits_, avx2,
                lower_ops<float>(p));
  }
  cdf_valid_ = false;
}

std::vector<cplx> FusedEngine::amplitudes() const {
  std::vector<cplx> out(dimension());
  if (precision_ == Precision::f64) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = cplx{re64_[i], im64_[i]};
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = cplx{static_cast<double>(re32_[i]), static_cast<double>(im32_[i])};
    }
  }
  return out;
}

double FusedEngine::probability(std::uint64_t index) const {
  QDB_REQUIRE(index < dimension(), "probability index out of range");
  if (precision_ == Precision::f64) {
    return re64_[index] * re64_[index] + im64_[index] * im64_[index];
  }
  const double r = re32_[index];
  const double m = im32_[index];
  return r * r + m * m;
}

double FusedEngine::expectation_diagonal(
    const std::function<double(std::uint64_t)>& f) const {
  const auto n = static_cast<std::int64_t>(dimension());
  if (precision_ == Precision::f64) {
    const double* re = re64_.data();
    const double* im = im64_.data();
    return parallel_reduce(n, [&](std::int64_t i) {
      const double p = re[i] * re[i] + im[i] * im[i];
      return p > 0.0 ? p * f(static_cast<std::uint64_t>(i)) : 0.0;
    });
  }
  const float* re = re32_.data();
  const float* im = im32_.data();
  return parallel_reduce(n, [&](std::int64_t i) {
    const double r = re[i];
    const double m = im[i];
    const double p = r * r + m * m;
    return p > 0.0 ? p * f(static_cast<std::uint64_t>(i)) : 0.0;
  });
}

double FusedEngine::norm2() const {
  const auto n = static_cast<std::int64_t>(dimension());
  if (precision_ == Precision::f64) {
    const double* re = re64_.data();
    const double* im = im64_.data();
    return parallel_reduce(
        n, [&](std::int64_t i) { return re[i] * re[i] + im[i] * im[i]; });
  }
  const float* re = re32_.data();
  const float* im = im32_.data();
  return parallel_reduce(n, [&](std::int64_t i) {
    const double r = re[i];
    const double m = im[i];
    return r * r + m * m;
  });
}

const std::vector<double>& FusedEngine::cdf() const {
  if (!cdf_valid_) {
    cdf_scratch_.resize(dimension());
    double acc = 0.0;
    if (precision_ == Precision::f64) {
      // Exactly Statevector's prefix pass: acc += re^2 + im^2, same tree,
      // so f64 sampling is draw-for-draw identical to the scalar engine.
      for (std::size_t i = 0; i < cdf_scratch_.size(); ++i) {
        acc += re64_[i] * re64_[i] + im64_[i] * im64_[i];
        cdf_scratch_[i] = acc;
      }
    } else {
      for (std::size_t i = 0; i < cdf_scratch_.size(); ++i) {
        const double r = re32_[i];
        const double m = im32_[i];
        acc += r * r + m * m;
        cdf_scratch_[i] = acc;
      }
    }
    cdf_total_ = acc > 0.0 ? acc : 1.0;
    cdf_valid_ = true;
  }
  return cdf_scratch_;
}

std::vector<std::uint64_t> FusedEngine::sample(std::size_t shots,
                                               Rng& rng) const {
  static obs::Counter& cdf_hits = obs::counter("kernel.sample.cdf_reuse");
  const bool reused = cdf_valid_;
  const std::vector<double>& c = cdf();
  if (reused) cdf_hits.add(1);
  return detail::sample_sorted_cdf(c, cdf_total_, shots, rng, draw_scratch_);
}

}  // namespace qdb
