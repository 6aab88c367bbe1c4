#ifndef MINIHIVE_EXEC_EXPR_H_
#define MINIHIVE_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "common/value.h"

namespace minihive::exec {

enum class ExprKind {
  kColumn,
  kLiteral,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kIsNull,
  kIsNotNull,
  kBetween,  // child0 BETWEEN child1 AND child2
  kIn,       // child0 IN (child1..childN literals)
  kCastDouble,  // child0 widened to double (planner-inserted key coercion)
};

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// An interpreted scalar expression over a row. This is the one-row-at-a-
/// time evaluation path whose per-row dispatch overhead §6 of the paper
/// measures; the vectorized engine compiles the same trees into kernels.
///
/// NULL semantics follow SQL three-valued logic: comparisons and arithmetic
/// on NULL yield NULL; AND/OR use Kleene logic; FilterOperator forwards a
/// row only when its predicate is exactly TRUE.
class Expr {
 public:
  static ExprPtr Column(int index, TypeKind type);
  static ExprPtr Literal(Value value, TypeKind type);
  static ExprPtr Binary(ExprKind kind, ExprPtr left, ExprPtr right);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr IsNull(ExprPtr child, bool negated);
  static ExprPtr Between(ExprPtr value, ExprPtr low, ExprPtr high);
  static ExprPtr In(ExprPtr value, std::vector<ExprPtr> list);
  /// A numeric value as a double; NULL stays NULL.
  static ExprPtr CastDouble(ExprPtr value);

  ExprKind kind() const { return kind_; }
  TypeKind result_type() const { return result_type_; }
  int column_index() const { return column_index_; }
  const Value& literal() const { return literal_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates against a row (column refs index into `row`).
  Value Eval(const Row& row) const;

  /// Rewrites column references through `mapping` (old index -> new index);
  /// returns a structurally shared copy. A mapping of -1 is an error
  /// surfaced at Eval time; callers validate beforehand.
  ExprPtr RemapColumns(const std::vector<int>& mapping) const;

  /// Collects all referenced column indexes (deduplicated, sorted).
  void CollectColumns(std::vector<int>* columns) const;

  std::string ToString() const;

 private:
  Expr(ExprKind kind, TypeKind result_type)
      : kind_(kind), result_type_(result_type) {}

  ExprKind kind_;
  TypeKind result_type_;
  int column_index_ = -1;
  Value literal_;
  std::vector<ExprPtr> children_;
};

/// Aggregation functions supported by GroupByOperator.
enum class AggKind { kSum, kCount, kCountStar, kAvg, kMin, kMax };

const char* AggKindName(AggKind kind);

struct AggDesc {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // Null for kCountStar.

  /// Number of columns the partial (map-side) result occupies: AVG carries
  /// (sum, count); everything else carries one column.
  int PartialArity() const { return kind == AggKind::kAvg ? 2 : 1; }
  /// Result type of the final aggregate.
  TypeKind ResultType() const;
};

/// Streaming aggregation state for one group and one aggregate.
class AggBuffer {
 public:
  explicit AggBuffer(const AggDesc* desc) : desc_(desc) {}

  /// Folds one input row (full-input mode, map side or complete).
  void Update(const Row& row);
  /// Folds a partial result (reduce side); `row[offset..]` holds the
  /// partial columns.
  void Merge(const Row& row, int offset);
  /// Appends the partial representation to *out (map-side emit).
  void EmitPartial(Row* out) const;
  /// Appends the final value to *out.
  void EmitFinal(Row* out) const;
  void Reset();

 private:
  const AggDesc* desc_;
  bool has_value_ = false;
  int64_t count_ = 0;
  int64_t int_acc_ = 0;
  double double_acc_ = 0;
  Value extreme_;  // Min/max.
  bool use_double_ = false;
};

}  // namespace minihive::exec

#endif  // MINIHIVE_EXEC_EXPR_H_
