#ifndef MINIHIVE_VEC_VECTOR_EXPRESSIONS_H_
#define MINIHIVE_VEC_VECTOR_EXPRESSIONS_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/expr.h"
#include "vec/vectorized_row_batch.h"

namespace minihive::vec {

/// A compiled vectorized scalar expression (paper §6.2): evaluates over a
/// whole column vector in a tight loop, writing its result into a scratch
/// column of the batch. Children are evaluated first.
class VectorExpression {
 public:
  virtual ~VectorExpression() = default;
  /// Evaluates for the batch's surviving rows.
  virtual void Evaluate(VectorizedRowBatch* batch) = 0;
  /// Index of the column holding this expression's result.
  int output_column() const { return output_column_; }

 protected:
  int output_column_ = -1;
};

/// A compiled vectorized predicate: narrows batch->selected in place
/// instead of producing a boolean column (paper §6.2's second flavour of
/// comparison expressions; Figure 8's selected[] loop shape).
class VectorFilter {
 public:
  virtual ~VectorFilter() = default;
  virtual void Filter(VectorizedRowBatch* batch) = 0;
};

/// Tracks the batch's column layout while compiling: the first
/// `input_types.size()` columns are the scan's columns; compilation appends
/// scratch columns for intermediate results.
class BatchCompiler {
 public:
  explicit BatchCompiler(std::vector<TypeKind> input_types)
      : column_types_(std::move(input_types)) {}

  /// Compiles a row-mode expression tree into a vector expression whose
  /// result lands in output_column(). Column references must already be in
  /// batch positions. Returns NotImplemented for unsupported shapes — the
  /// caller falls back to row mode (the §6.4 validation step).
  Result<std::unique_ptr<VectorExpression>> CompileProjection(
      const exec::Expr& expr, int* output_column);

  /// Compiles a conjunction into in-place filters, applied in order.
  Result<std::vector<std::unique_ptr<VectorFilter>>> CompileFilter(
      const exec::ExprPtr& predicate);

  /// All column types (inputs + scratch) — the batch must be created with
  /// matching columns.
  const std::vector<TypeKind>& column_types() const { return column_types_; }

  /// Appends a scratch column of `kind`; returns its batch position.
  int AddScratch(TypeKind kind) {
    column_types_.push_back(kind);
    return static_cast<int>(column_types_.size()) - 1;
  }

 private:
  std::vector<TypeKind> column_types_;
};

/// Builds a batch whose columns match the compiler's final layout.
std::unique_ptr<VectorizedRowBatch> MakeBatchFor(
    const std::vector<TypeKind>& column_types, int capacity);

}  // namespace minihive::vec

#endif  // MINIHIVE_VEC_VECTOR_EXPRESSIONS_H_
