#ifndef MINIHIVE_VEC_SIMD_H_
#define MINIHIVE_VEC_SIMD_H_

#include <cstddef>
#include <cstdint>

/// SIMD kernels for the vectorized hot paths: batch comparisons,
/// selection-mask compaction and arithmetic. Group-by keys are not hashed
/// here: the vectorized aggregator maps them to dense ids instead (see
/// vectorized_pipeline.cc). The CRC-32's PCLMULQDQ arm dispatches on its own
/// (common/crc32.cc): it follows cpuid and `MINIHIVE_DISABLE_SIMD`, not
/// `SetEnabled`.
///
/// Dispatch rules:
///  - One source, two targets: each kernel is one plain loop, built once for
///    the default target (the scalar arm) and once, on x86-64, with
///    `target("avx2")` (the AVX2 arm). The compiler vectorizes each for its
///    target; the binary runs on any CPU and upgrades itself at runtime
///    via cpuid.
///  - `SetEnabled(false)` forces the scalar arm process-wide (tests and
///    benches toggle it to diff the two arms); `MINIHIVE_DISABLE_SIMD`
///    compiles the AVX2 arm out entirely (the CI scalar-fallback leg).
///  - Both arms are BYTE-IDENTICAL by construction: they are the same
///    source, int64 ops wrap (WrapAdd/WrapSub/WrapMul), and double ops
///    are single IEEE operations. Callers may switch arms mid-query and
///    results do not change.
namespace minihive::simd {

/// True when the running CPU supports AVX2 (and it was not compiled out).
bool CpuHasAvx2();

/// Process-wide runtime toggle (default on). Scalar fallback when off.
void SetEnabled(bool on);
bool Enabled();

/// True when kernels will actually take the AVX2 arm right now.
bool UsingAvx2();

/// "avx2" or "scalar" — for logs and bench labels.
const char* DispatchName();

enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class Arith { kAdd, kSub, kMul, kDiv };

// ---- Comparison kernels: mask[i] = (in[i] op scalar) ? 1 : 0.
// Double comparisons follow IEEE semantics (NaN fails everything but kNe).
void CompareMask(Cmp op, const int64_t* in, int64_t scalar, int n,
                 uint8_t* mask);
void CompareMask(Cmp op, const double* in, double scalar, int n,
                 uint8_t* mask);
void BetweenMask(const int64_t* in, int64_t lo, int64_t hi, int n,
                 uint8_t* mask);
void BetweenMask(const double* in, double lo, double hi, int n,
                 uint8_t* mask);

/// inout[i] &= (a[i] != 0).
void AndMask(const uint8_t* a, int n, uint8_t* inout);

/// Branchless compaction: appends every i with mask[i] != 0 to sel in
/// order; returns the count. `sel` must have room for n entries.
int MaskToSelected(const uint8_t* mask, int n, int* sel);

// ---- Arithmetic kernels: out[i] = in[i] op scalar, or scalar op in[i]
// when scalar_left. kDiv is double-only and plain IEEE division: a zero
// divisor yields ±inf or NaN, and the caller marks that row NULL.
void ArithScalar(Arith op, const int64_t* in, int64_t scalar, bool scalar_left,
                 int n, int64_t* out);
void ArithScalar(Arith op, const double* in, double scalar, bool scalar_left,
                 int n, double* out);
void ArithColCol(Arith op, const int64_t* a, const int64_t* b, int n,
                 int64_t* out);
void ArithColCol(Arith op, const double* a, const double* b, int n,
                 double* out);

}  // namespace minihive::simd

#endif  // MINIHIVE_VEC_SIMD_H_
