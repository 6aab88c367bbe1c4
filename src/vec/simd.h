#ifndef MINIHIVE_VEC_SIMD_H_
#define MINIHIVE_VEC_SIMD_H_

#include <cstddef>
#include <cstdint>

/// Explicit-SIMD kernels for the vectorized hot paths: batch comparisons,
/// selection-mask compaction and arithmetic. Group-by keys are not hashed
/// here: the vectorized aggregator maps them to dense ids instead (see
/// vectorized_pipeline.cc). The CRC-32's PCLMULQDQ arm dispatches on its own
/// (common/crc32.cc): it follows cpuid and `MINIHIVE_DISABLE_SIMD`, not
/// `SetEnabled`.
///
/// Dispatch rules:
///  - Every kernel has a scalar implementation and (on x86-64) an AVX2
///    implementation compiled with a per-function target attribute, so the
///    binary runs on any CPU and upgrades itself at runtime via cpuid.
///  - `SetEnabled(false)` forces the scalar arm process-wide (tests and
///    benches toggle it to diff the two arms); `MINIHIVE_DISABLE_SIMD`
///    compiles the AVX2 arm out entirely (the CI scalar-fallback leg).
///  - Both arms are BYTE-IDENTICAL by construction: integer ops wrap the
///    same way, double ops use the same IEEE operations in the same order,
///    and division keeps the same divide-by-zero guard. Callers may switch
///    arms mid-query and results do not change.
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
void CompareMaskI64(Cmp op, const int64_t* in, int64_t scalar, int n,
                    uint8_t* mask);
void CompareMaskF64(Cmp op, const double* in, double scalar, int n,
                    uint8_t* mask);
void BetweenMaskI64(const int64_t* in, int64_t lo, int64_t hi, int n,
                    uint8_t* mask);
void BetweenMaskF64(const double* in, double lo, double hi, int n,
                    uint8_t* mask);

/// inout[i] &= (a[i] != 0).
void AndMask(const uint8_t* a, int n, uint8_t* inout);

/// Branchless compaction: appends every i with mask[i] != 0 to sel in
/// order; returns the count. `sel` must have room for n entries.
int MaskToSelected(const uint8_t* mask, int n, int* sel);

// ---- Arithmetic kernels. scalar_left selects (scalar op in[i]).
// kDiv guards b == 0 -> 0, matching the scalar DivOp kernel exactly.
void ArithScalarI64(Arith op, const int64_t* in, int64_t scalar,
                    bool scalar_left, int n, int64_t* out);
void ArithScalarF64(Arith op, const double* in, double scalar,
                    bool scalar_left, int n, double* out);
void ArithColColI64(Arith op, const int64_t* a, const int64_t* b, int n,
                    int64_t* out);
void ArithColColF64(Arith op, const double* a, const double* b, int n,
                    double* out);

}  // namespace minihive::simd

#endif  // MINIHIVE_VEC_SIMD_H_
