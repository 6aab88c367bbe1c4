#ifndef MINIHIVE_VEC_COLUMN_VECTOR_H_
#define MINIHIVE_VEC_COLUMN_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace minihive::vec {

/// Default number of rows per batch (paper §6.1: 1024, chosen so one batch
/// fits in the processor cache).
inline constexpr int kDefaultBatchSize = 1024;

enum class VectorKind { kLong, kDouble, kBytes };

/// Base of the column-vector hierarchy (paper Figure 7). A column vector
/// holds `capacity` slots; readers populate the first `size` slots of the
/// owning batch.
///
/// Optimization flags set by the data reader (paper §6.2):
///  - `no_nulls`: no value in the batch is NULL, so kernels skip null checks.
///  - `is_repeating`: every row has the value in slot 0, so kernels can do
///    constant-time work (extends run-length encoding benefits to execution).
class ColumnVector {
 public:
  explicit ColumnVector(VectorKind kind, int capacity)
      : not_null(capacity, true), kind_(kind) {}
  virtual ~ColumnVector() = default;

  VectorKind kind() const { return kind_; }
  int capacity() const { return static_cast<int>(not_null.size()); }

  /// Resets flags for reuse by the next batch.
  virtual void Reset() {
    no_nulls = true;
    is_repeating = false;
    std::fill(not_null.begin(), not_null.end(), true);
  }

  bool no_nulls = true;
  bool is_repeating = false;
  /// Validity per slot; meaningful only when !no_nulls.
  std::vector<uint8_t> not_null;

 private:
  VectorKind kind_;
};

/// Vector of 64-bit integers. Represents all integer widths, boolean, and
/// timestamp values (paper Figure 7).
class LongColumnVector : public ColumnVector {
 public:
  explicit LongColumnVector(int capacity = kDefaultBatchSize)
      : ColumnVector(VectorKind::kLong, capacity), vector(capacity, 0) {}

  std::vector<int64_t> vector;
};

/// Vector of doubles (represents float and double).
class DoubleColumnVector : public ColumnVector {
 public:
  explicit DoubleColumnVector(int capacity = kDefaultBatchSize)
      : ColumnVector(VectorKind::kDouble, capacity), vector(capacity, 0.0) {}

  std::vector<double> vector;
};

/// Vector of byte sequences, in one of two representations:
///  - direct: values live in a per-batch arena and are addressed by
///    (offset, length); this keeps value bytes contiguous (cache friendly, no
///    per-value allocation) and avoids dangling-pointer hazards when the
///    arena grows.
///  - dictionary: `dictionary` is set and slot i holds `codes[i]`, an index
///    into it (-1 for a NULL slot). The ORC reader hands its stripe
///    dictionary through this way instead of copying each value's bytes.
///    `dictionary_version` names one dictionary incarnation: the same
///    pointer can hold a different stripe's dictionary in a later batch, so
///    anything keyed by code must re-key when the version changes.
class BytesColumnVector : public ColumnVector {
 public:
  explicit BytesColumnVector(int capacity = kDefaultBatchSize)
      : ColumnVector(VectorKind::kBytes, capacity),
        offset(capacity, 0),
        length(capacity, 0),
        codes(capacity, 0) {}

  void Reset() override {
    ColumnVector::Reset();
    arena.clear();
    dictionary = nullptr;
  }

  /// Copies `value` into the arena and points slot i at it (direct mode).
  void SetVal(int i, std::string_view value) {
    offset[i] = arena.size();
    arena.append(value.data(), value.size());
    length[i] = static_cast<int32_t>(value.size());
  }

  std::string_view GetView(int i) const {
    if (dictionary != nullptr) {
      int32_t code = codes[i];
      return code < 0 ? std::string_view()
                      : std::string_view((*dictionary)[code]);
    }
    return std::string_view(arena.data() + offset[i],
                            static_cast<size_t>(length[i]));
  }

  std::vector<size_t> offset;
  std::vector<int32_t> length;
  /// Backing storage for the batch's values (direct mode).
  std::string arena;
  /// Dictionary mode: entries the codes index; not owned, valid until the
  /// producer's next fill of this vector.
  const std::vector<std::string>* dictionary = nullptr;
  uint64_t dictionary_version = 0;
  std::vector<int32_t> codes;
};

using ColumnVectorPtr = std::unique_ptr<ColumnVector>;

/// Process-wide source of dictionary versions (see
/// BytesColumnVector::dictionary_version): unique across every producer of
/// dictionaries, so a consumer never mistakes one dictionary's codes for
/// another's.
inline uint64_t NextDictionaryVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace minihive::vec

#endif  // MINIHIVE_VEC_COLUMN_VECTOR_H_
