#include "vec/simd.h"

#include <atomic>

#if defined(__x86_64__) && !defined(MINIHIVE_DISABLE_SIMD)
#define MINIHIVE_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace minihive::simd {
namespace {

std::atomic<bool> g_enabled{true};

bool DetectAvx2() {
#ifdef MINIHIVE_SIMD_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx2Available() {
  static const bool available = DetectAvx2();
  return available;
}

// ---------------------------------------------------------------------------
// Scalar arms. These are the semantic definition; the AVX2 arms below must
// match them bit-for-bit.
// ---------------------------------------------------------------------------

template <typename T>
void CompareMaskScalar(Cmp op, const T* in, T scalar, int n, uint8_t* mask) {
  switch (op) {
    case Cmp::kEq:
      for (int i = 0; i < n; ++i) mask[i] = in[i] == scalar ? 1 : 0;
      break;
    case Cmp::kNe:
      for (int i = 0; i < n; ++i) mask[i] = in[i] != scalar ? 1 : 0;
      break;
    case Cmp::kLt:
      for (int i = 0; i < n; ++i) mask[i] = in[i] < scalar ? 1 : 0;
      break;
    case Cmp::kLe:
      for (int i = 0; i < n; ++i) mask[i] = in[i] <= scalar ? 1 : 0;
      break;
    case Cmp::kGt:
      for (int i = 0; i < n; ++i) mask[i] = in[i] > scalar ? 1 : 0;
      break;
    case Cmp::kGe:
      for (int i = 0; i < n; ++i) mask[i] = in[i] >= scalar ? 1 : 0;
      break;
  }
}

template <typename T>
void BetweenMaskScalar(const T* in, T lo, T hi, int n, uint8_t* mask) {
  for (int i = 0; i < n; ++i) mask[i] = (in[i] >= lo && in[i] <= hi) ? 1 : 0;
}

// Unsigned accumulate so integer overflow wraps identically in both arms.
inline int64_t ApplyI64(Arith op, int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case Arith::kAdd: return static_cast<int64_t>(ua + ub);
    case Arith::kSub: return static_cast<int64_t>(ua - ub);
    case Arith::kMul: return static_cast<int64_t>(ua * ub);
    case Arith::kDiv: return b == 0 ? 0 : a / b;
  }
  return 0;
}

inline double ApplyF64(Arith op, double a, double b) {
  switch (op) {
    case Arith::kAdd: return a + b;
    case Arith::kSub: return a - b;
    case Arith::kMul: return a * b;
    case Arith::kDiv: return b == 0 ? 0 : a / b;
  }
  return 0;
}

#ifdef MINIHIVE_SIMD_AVX2

// ---------------------------------------------------------------------------
// AVX2 arms.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline void StoreMask4(__m256i eq,
                                                       uint8_t* mask) {
  // Each 64-bit lane is all-ones or all-zero; movemask_pd grabs the sign
  // bit of each lane.
  int bits = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
  mask[0] = bits & 1;
  mask[1] = (bits >> 1) & 1;
  mask[2] = (bits >> 2) & 1;
  mask[3] = (bits >> 3) & 1;
}

__attribute__((target("avx2"))) void CompareMaskI64Avx2(Cmp op,
                                                        const int64_t* in,
                                                        int64_t scalar, int n,
                                                        uint8_t* mask) {
  const __m256i s = _mm256_set1_epi64x(scalar);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i r;
    switch (op) {
      case Cmp::kEq:
        r = _mm256_cmpeq_epi64(v, s);
        break;
      case Cmp::kNe:
        r = _mm256_xor_si256(_mm256_cmpeq_epi64(v, s),
                             _mm256_set1_epi64x(-1));
        break;
      case Cmp::kLt:
        r = _mm256_cmpgt_epi64(s, v);
        break;
      case Cmp::kLe:  // v <= s  ==  !(v > s)
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(v, s),
                             _mm256_set1_epi64x(-1));
        break;
      case Cmp::kGt:
        r = _mm256_cmpgt_epi64(v, s);
        break;
      case Cmp::kGe:  // v >= s  ==  !(s > v)
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(s, v),
                             _mm256_set1_epi64x(-1));
        break;
      default:
        r = _mm256_setzero_si256();
        break;
    }
    StoreMask4(r, mask + i);
  }
  if (i < n) CompareMaskScalar<int64_t>(op, in + i, scalar, n - i, mask + i);
}

__attribute__((target("avx2"))) void CompareMaskF64Avx2(Cmp op,
                                                        const double* in,
                                                        double scalar, int n,
                                                        uint8_t* mask) {
  const __m256d s = _mm256_set1_pd(scalar);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(in + i);
    __m256d r;
    switch (op) {
      // Ordered-quiet for everything except Ne, which must be true for NaN
      // operands to match scalar `!=`.
      case Cmp::kEq: r = _mm256_cmp_pd(v, s, _CMP_EQ_OQ); break;
      case Cmp::kNe: r = _mm256_cmp_pd(v, s, _CMP_NEQ_UQ); break;
      case Cmp::kLt: r = _mm256_cmp_pd(v, s, _CMP_LT_OQ); break;
      case Cmp::kLe: r = _mm256_cmp_pd(v, s, _CMP_LE_OQ); break;
      case Cmp::kGt: r = _mm256_cmp_pd(v, s, _CMP_GT_OQ); break;
      case Cmp::kGe: r = _mm256_cmp_pd(v, s, _CMP_GE_OQ); break;
      default: r = _mm256_setzero_pd(); break;
    }
    StoreMask4(_mm256_castpd_si256(r), mask + i);
  }
  if (i < n) CompareMaskScalar<double>(op, in + i, scalar, n - i, mask + i);
}

__attribute__((target("avx2"))) void BetweenMaskI64Avx2(const int64_t* in,
                                                        int64_t lo, int64_t hi,
                                                        int n, uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const __m256i ones = _mm256_set1_epi64x(-1);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    // v >= lo  ==  !(lo > v); v <= hi  ==  !(v > hi)
    __m256i ge = _mm256_xor_si256(_mm256_cmpgt_epi64(vlo, v), ones);
    __m256i le = _mm256_xor_si256(_mm256_cmpgt_epi64(v, vhi), ones);
    StoreMask4(_mm256_and_si256(ge, le), mask + i);
  }
  if (i < n) BetweenMaskScalar<int64_t>(in + i, lo, hi, n - i, mask + i);
}

__attribute__((target("avx2"))) void BetweenMaskF64Avx2(const double* in,
                                                        double lo, double hi,
                                                        int n, uint8_t* mask) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(in + i);
    __m256d ge = _mm256_cmp_pd(v, vlo, _CMP_GE_OQ);
    __m256d le = _mm256_cmp_pd(v, vhi, _CMP_LE_OQ);
    StoreMask4(_mm256_castpd_si256(_mm256_and_pd(ge, le)), mask + i);
  }
  if (i < n) BetweenMaskScalar<double>(in + i, lo, hi, n - i, mask + i);
}

// 64-bit multiply from 32-bit pieces: lo(a)*lo(b) + ((lo(a)*hi(b) +
// hi(a)*lo(b)) << 32). Identical wraparound to scalar uint64 multiply.
__attribute__((target("avx2"))) inline __m256i MulI64(__m256i a, __m256i b) {
  __m256i lo_lo = _mm256_mul_epu32(a, b);
  __m256i a_hi = _mm256_srli_epi64(a, 32);
  __m256i b_hi = _mm256_srli_epi64(b, 32);
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                   _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void ArithColColI64Avx2(Arith op,
                                                        const int64_t* a,
                                                        const int64_t* b,
                                                        int n, int64_t* out) {
  int i = 0;
  if (op != Arith::kDiv) {
    for (; i + 4 <= n; i += 4) {
      __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      __m256i r;
      switch (op) {
        case Arith::kAdd: r = _mm256_add_epi64(va, vb); break;
        case Arith::kSub: r = _mm256_sub_epi64(va, vb); break;
        default: r = MulI64(va, vb); break;
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
    }
  }
  for (; i < n; ++i) out[i] = ApplyI64(op, a[i], b[i]);
}

__attribute__((target("avx2"))) void ArithColColF64Avx2(Arith op,
                                                        const double* a,
                                                        const double* b,
                                                        int n, double* out) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d va = _mm256_loadu_pd(a + i);
    __m256d vb = _mm256_loadu_pd(b + i);
    __m256d r;
    switch (op) {
      case Arith::kAdd: r = _mm256_add_pd(va, vb); break;
      case Arith::kSub: r = _mm256_sub_pd(va, vb); break;
      case Arith::kMul: r = _mm256_mul_pd(va, vb); break;
      default: {
        // b == 0 ? 0 : a / b — blend on the zero test so the guarded
        // result matches the scalar kernel exactly.
        __m256d quotient = _mm256_div_pd(va, vb);
        __m256d zero = _mm256_setzero_pd();
        __m256d is_zero = _mm256_cmp_pd(vb, zero, _CMP_EQ_OQ);
        r = _mm256_blendv_pd(quotient, zero, is_zero);
        break;
      }
    }
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) out[i] = ApplyF64(op, a[i], b[i]);
}

__attribute__((target("avx2"))) void ArithScalarI64Avx2(Arith op,
                                                        const int64_t* in,
                                                        int64_t scalar,
                                                        bool scalar_left,
                                                        int n, int64_t* out) {
  if (op == Arith::kDiv) {
    if (scalar_left) {
      for (int i = 0; i < n; ++i) out[i] = ApplyI64(op, scalar, in[i]);
    } else {
      for (int i = 0; i < n; ++i) out[i] = ApplyI64(op, in[i], scalar);
    }
    return;
  }
  const __m256i s = _mm256_set1_epi64x(scalar);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i a = scalar_left ? s : v;
    __m256i b = scalar_left ? v : s;
    __m256i r;
    switch (op) {
      case Arith::kAdd: r = _mm256_add_epi64(a, b); break;
      case Arith::kSub: r = _mm256_sub_epi64(a, b); break;
      default: r = MulI64(a, b); break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (; i < n; ++i) {
    out[i] = scalar_left ? ApplyI64(op, scalar, in[i])
                         : ApplyI64(op, in[i], scalar);
  }
}

__attribute__((target("avx2"))) void ArithScalarF64Avx2(Arith op,
                                                        const double* in,
                                                        double scalar,
                                                        bool scalar_left,
                                                        int n, double* out) {
  const __m256d s = _mm256_set1_pd(scalar);
  const __m256d zero = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(in + i);
    __m256d a = scalar_left ? s : v;
    __m256d b = scalar_left ? v : s;
    __m256d r;
    switch (op) {
      case Arith::kAdd: r = _mm256_add_pd(a, b); break;
      case Arith::kSub: r = _mm256_sub_pd(a, b); break;
      case Arith::kMul: r = _mm256_mul_pd(a, b); break;
      default: {
        __m256d quotient = _mm256_div_pd(a, b);
        __m256d is_zero = _mm256_cmp_pd(b, zero, _CMP_EQ_OQ);
        r = _mm256_blendv_pd(quotient, zero, is_zero);
        break;
      }
    }
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) {
    out[i] = scalar_left ? ApplyF64(op, scalar, in[i])
                         : ApplyF64(op, in[i], scalar);
  }
}

#endif  // MINIHIVE_SIMD_AVX2

}  // namespace

bool CpuHasAvx2() { return Avx2Available(); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool UsingAvx2() { return Enabled() && Avx2Available(); }

const char* DispatchName() { return UsingAvx2() ? "avx2" : "scalar"; }

void CompareMaskI64(Cmp op, const int64_t* in, int64_t scalar, int n,
                    uint8_t* mask) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    CompareMaskI64Avx2(op, in, scalar, n, mask);
    return;
  }
#endif
  CompareMaskScalar<int64_t>(op, in, scalar, n, mask);
}

void CompareMaskF64(Cmp op, const double* in, double scalar, int n,
                    uint8_t* mask) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    CompareMaskF64Avx2(op, in, scalar, n, mask);
    return;
  }
#endif
  CompareMaskScalar<double>(op, in, scalar, n, mask);
}

void BetweenMaskI64(const int64_t* in, int64_t lo, int64_t hi, int n,
                    uint8_t* mask) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    BetweenMaskI64Avx2(in, lo, hi, n, mask);
    return;
  }
#endif
  BetweenMaskScalar<int64_t>(in, lo, hi, n, mask);
}

void BetweenMaskF64(const double* in, double lo, double hi, int n,
                    uint8_t* mask) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    BetweenMaskF64Avx2(in, lo, hi, n, mask);
    return;
  }
#endif
  BetweenMaskScalar<double>(in, lo, hi, n, mask);
}

void AndMask(const uint8_t* a, int n, uint8_t* inout) {
  for (int i = 0; i < n; ++i) inout[i] &= a[i] != 0 ? 1 : 0;
}

int MaskToSelected(const uint8_t* mask, int n, int* sel) {
  int k = 0;
  for (int i = 0; i < n; ++i) {
    sel[k] = i;
    k += mask[i] != 0;
  }
  return k;
}

void ArithScalarI64(Arith op, const int64_t* in, int64_t scalar,
                    bool scalar_left, int n, int64_t* out) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    ArithScalarI64Avx2(op, in, scalar, scalar_left, n, out);
    return;
  }
#endif
  if (scalar_left) {
    for (int i = 0; i < n; ++i) out[i] = ApplyI64(op, scalar, in[i]);
  } else {
    for (int i = 0; i < n; ++i) out[i] = ApplyI64(op, in[i], scalar);
  }
}

void ArithScalarF64(Arith op, const double* in, double scalar,
                    bool scalar_left, int n, double* out) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    ArithScalarF64Avx2(op, in, scalar, scalar_left, n, out);
    return;
  }
#endif
  if (scalar_left) {
    for (int i = 0; i < n; ++i) out[i] = ApplyF64(op, scalar, in[i]);
  } else {
    for (int i = 0; i < n; ++i) out[i] = ApplyF64(op, in[i], scalar);
  }
}

void ArithColColI64(Arith op, const int64_t* a, const int64_t* b, int n,
                    int64_t* out) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    ArithColColI64Avx2(op, a, b, n, out);
    return;
  }
#endif
  for (int i = 0; i < n; ++i) out[i] = ApplyI64(op, a[i], b[i]);
}

void ArithColColF64(Arith op, const double* a, const double* b, int n,
                    double* out) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) {
    ArithColColF64Avx2(op, a, b, n, out);
    return;
  }
#endif
  for (int i = 0; i < n; ++i) out[i] = ApplyF64(op, a[i], b[i]);
}

}  // namespace minihive::simd
