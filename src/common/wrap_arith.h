#ifndef MINIHIVE_COMMON_WRAP_ARITH_H_
#define MINIHIVE_COMMON_WRAP_ARITH_H_

#include <cstdint>

namespace minihive {

/// int64 `+ - *` with two's-complement wraparound (signed overflow itself
/// would be undefined). One definition for every user: SUM and arithmetic
/// in both engines and the SIMD kernels, ORC integer statistics (the sum is
/// advisory; pruning uses min/max), and the integer RLE's deltas, which
/// must wrap identically in the encoder and the decoder to round-trip.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

}  // namespace minihive

#endif  // MINIHIVE_COMMON_WRAP_ARITH_H_
