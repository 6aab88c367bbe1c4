#include "vec/simd.h"

#include <atomic>
#include <cassert>
#include <functional>
#include <type_traits>

#include "common/wrap_arith.h"

#if defined(__x86_64__) && !defined(MINIHIVE_DISABLE_SIMD)
#define MINIHIVE_SIMD_AVX2 1
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
// Kernel bodies. Each is one plain loop per op, with the op switch hoisted
// out of the loop, and is force-inlined into both dispatch arms (Dispatch
// below): the default-target build is the scalar arm, the target("avx2")
// build of the same source is the AVX2 arm, and the compiler vectorizes
// each for its target where it can. Keep each element op a single
// operation: avx2 leaves FMA off, so nothing is contracted differently.
// ---------------------------------------------------------------------------

template <typename T, typename Pred>
[[gnu::always_inline]] inline void MaskLoop(const T* in, T scalar, int n,
                                            uint8_t* mask, Pred pred) {
  for (int i = 0; i < n; ++i) mask[i] = pred(in[i], scalar) ? 1 : 0;
}

template <typename T, typename Op>
[[gnu::always_inline]] inline void ScalarLoop(const T* in, T scalar,
                                              bool scalar_left, int n, T* out,
                                              Op op) {
  if (scalar_left) {
    for (int i = 0; i < n; ++i) out[i] = op(scalar, in[i]);
  } else {
    for (int i = 0; i < n; ++i) out[i] = op(in[i], scalar);
  }
}

template <typename T, typename Op>
[[gnu::always_inline]] inline void ColColLoop(const T* a, const T* b, int n,
                                              T* out, Op op) {
  for (int i = 0; i < n; ++i) out[i] = op(a[i], b[i]);
}

// The element ops. int64 wraps (Wrap*); double is plain IEEE, so a
// zero divisor gives ±inf or NaN and the caller marks the row NULL.
struct AddOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrapAdd(a, b); }
  double operator()(double a, double b) const { return a + b; }
};
struct SubOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrapSub(a, b); }
  double operator()(double a, double b) const { return a - b; }
};
struct MulOp {
  int64_t operator()(int64_t a, int64_t b) const { return WrapMul(a, b); }
  double operator()(double a, double b) const { return a * b; }
};

struct CompareMaskKernel {
  template <typename T>
  [[gnu::always_inline]] static void Run(Cmp op, const T* in, T s, int n,
                                         uint8_t* mask) {
    switch (op) {
      case Cmp::kEq: return MaskLoop(in, s, n, mask, std::equal_to<T>());
      case Cmp::kNe: return MaskLoop(in, s, n, mask, std::not_equal_to<T>());
      case Cmp::kLt: return MaskLoop(in, s, n, mask, std::less<T>());
      case Cmp::kLe: return MaskLoop(in, s, n, mask, std::less_equal<T>());
      case Cmp::kGt: return MaskLoop(in, s, n, mask, std::greater<T>());
      case Cmp::kGe: return MaskLoop(in, s, n, mask, std::greater_equal<T>());
    }
  }
};

struct BetweenMaskKernel {
  template <typename T>
  [[gnu::always_inline]] static void Run(const T* in, T lo, T hi, int n,
                                         uint8_t* mask) {
    // `&`, not `&&`: both compares always run, so the loop has no branch
    // to keep and vectorizes for doubles too.
    for (int i = 0; i < n; ++i) mask[i] = (in[i] >= lo) & (in[i] <= hi);
  }
};

struct ArithScalarKernel {
  template <typename T>
  [[gnu::always_inline]] static void Run(Arith op, const T* in, T scalar,
                                         bool scalar_left, int n, T* out) {
    switch (op) {
      case Arith::kAdd:
        return ScalarLoop(in, scalar, scalar_left, n, out, AddOp());
      case Arith::kSub:
        return ScalarLoop(in, scalar, scalar_left, n, out, SubOp());
      case Arith::kMul:
        return ScalarLoop(in, scalar, scalar_left, n, out, MulOp());
      case Arith::kDiv:
        if constexpr (std::is_floating_point_v<T>) {
          return ScalarLoop(in, scalar, scalar_left, n, out,
                            std::divides<T>());
        } else {
          assert(!"int64 division has no kernel");
        }
        return;
    }
  }
};

struct ArithColColKernel {
  template <typename T>
  [[gnu::always_inline]] static void Run(Arith op, const T* a, const T* b,
                                         int n, T* out) {
    switch (op) {
      case Arith::kAdd: return ColColLoop(a, b, n, out, AddOp());
      case Arith::kSub: return ColColLoop(a, b, n, out, SubOp());
      case Arith::kMul: return ColColLoop(a, b, n, out, MulOp());
      case Arith::kDiv:
        if constexpr (std::is_floating_point_v<T>) {
          return ColColLoop(a, b, n, out, std::divides<T>());
        } else {
          assert(!"int64 division has no kernel");
        }
        return;
    }
  }
};

#ifdef MINIHIVE_SIMD_AVX2
template <typename Kernel, typename... Args>
__attribute__((target("avx2"))) void RunAvx2(Args... args) {
  Kernel::Run(args...);
}
#endif

/// Runs one kernel body on the arm the runtime dispatch picks.
template <typename Kernel, typename... Args>
void Dispatch(Args... args) {
#ifdef MINIHIVE_SIMD_AVX2
  if (UsingAvx2()) return RunAvx2<Kernel>(args...);
#endif
  Kernel::Run(args...);
}

}  // namespace

bool CpuHasAvx2() { return Avx2Available(); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool UsingAvx2() { return Enabled() && Avx2Available(); }

const char* DispatchName() { return UsingAvx2() ? "avx2" : "scalar"; }

void CompareMask(Cmp op, const int64_t* in, int64_t scalar, int n,
                 uint8_t* mask) {
  Dispatch<CompareMaskKernel>(op, in, scalar, n, mask);
}

void CompareMask(Cmp op, const double* in, double scalar, int n,
                 uint8_t* mask) {
  Dispatch<CompareMaskKernel>(op, in, scalar, n, mask);
}

void BetweenMask(const int64_t* in, int64_t lo, int64_t hi, int n,
                 uint8_t* mask) {
  Dispatch<BetweenMaskKernel>(in, lo, hi, n, mask);
}

void BetweenMask(const double* in, double lo, double hi, int n,
                 uint8_t* mask) {
  Dispatch<BetweenMaskKernel>(in, lo, hi, n, mask);
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

void ArithScalar(Arith op, const int64_t* in, int64_t scalar, bool scalar_left,
                 int n, int64_t* out) {
  Dispatch<ArithScalarKernel>(op, in, scalar, scalar_left, n, out);
}

void ArithScalar(Arith op, const double* in, double scalar, bool scalar_left,
                 int n, double* out) {
  Dispatch<ArithScalarKernel>(op, in, scalar, scalar_left, n, out);
}

void ArithColCol(Arith op, const int64_t* a, const int64_t* b, int n,
                 int64_t* out) {
  Dispatch<ArithColColKernel>(op, a, b, n, out);
}

void ArithColCol(Arith op, const double* a, const double* b, int n,
                 double* out) {
  Dispatch<ArithColColKernel>(op, a, b, n, out);
}

}  // namespace minihive::simd
