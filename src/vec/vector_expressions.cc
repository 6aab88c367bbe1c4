#include "vec/vector_expressions.h"

#include <string>

#include "common/wrap_arith.h"
#include "vec/simd.h"

namespace minihive::vec {

namespace {

using exec::Expr;
using exec::ExprKind;

// --------------------------------------------------------------------
// Arithmetic kernel templates (paper §6.3: vectorized expressions are
// generated from pre-defined templates by type substitution; here the
// substitution is done by the C++ compiler). Each op carries its simd::
// tag so the batch kernels below can hand dense, non-repeating spans to the
// SIMD layer. int64 ops wrap exactly like the row engine's Expr::Eval.

struct AddOp {
  static constexpr simd::Arith kArith = simd::Arith::kAdd;
  int64_t operator()(int64_t a, int64_t b) const { return WrapAdd(a, b); }
  double operator()(double a, double b) const { return a + b; }
};
struct SubOp {
  static constexpr simd::Arith kArith = simd::Arith::kSub;
  int64_t operator()(int64_t a, int64_t b) const { return WrapSub(a, b); }
  double operator()(double a, double b) const { return a - b; }
};
struct MulOp {
  static constexpr simd::Arith kArith = simd::Arith::kMul;
  int64_t operator()(int64_t a, int64_t b) const { return WrapMul(a, b); }
  double operator()(double a, double b) const { return a * b; }
};
/// Plain IEEE division; a zero divisor's row is marked NULL afterwards, as
/// the row engine returns NULL for it.
struct DivOp {
  static constexpr simd::Arith kArith = simd::Arith::kDiv;
  double operator()(double a, double b) const { return a / b; }
};

/// True when the column physically stores T (no long->double conversion
/// needed), the precondition for handing its span to a SIMD kernel.
template <typename T>
bool IsNativeKind(const ColumnVector* col);
template <>
bool IsNativeKind<int64_t>(const ColumnVector* col) {
  return col->kind() == VectorKind::kLong;
}
template <>
bool IsNativeKind<double>(const ColumnVector* col) {
  return col->kind() == VectorKind::kDouble;
}

simd::Cmp ToSimdCmp(ExprKind op) {
  switch (op) {
    case ExprKind::kEq: return simd::Cmp::kEq;
    case ExprKind::kNe: return simd::Cmp::kNe;
    case ExprKind::kLt: return simd::Cmp::kLt;
    case ExprKind::kLe: return simd::Cmp::kLe;
    case ExprKind::kGt: return simd::Cmp::kGt;
    default: return simd::Cmp::kGe;
  }
}

/// Reads column values as T regardless of the underlying vector kind.
template <typename T>
const T* TypedData(const ColumnVector* col);
template <>
const int64_t* TypedData<int64_t>(const ColumnVector* col) {
  return static_cast<const LongColumnVector*>(col)->vector.data();
}
template <>
const double* TypedData<double>(const ColumnVector* col) {
  return static_cast<const DoubleColumnVector*>(col)->vector.data();
}

/// OutT(col) accessor that converts long->double when needed.
template <typename OutT>
class ColReader {
 public:
  explicit ColReader(const ColumnVector* col) : col_(col) {
    is_long_ = col->kind() == VectorKind::kLong;
    longs_ = is_long_ ? TypedData<int64_t>(col) : nullptr;
    doubles_ = is_long_ ? nullptr : TypedData<double>(col);
    repeating_ = col->is_repeating;
  }
  OutT operator[](int i) const {
    if (repeating_) i = 0;  // Paper §6.2: slot 0 holds the whole column.
    return is_long_ ? static_cast<OutT>(longs_[i])
                    : static_cast<OutT>(doubles_[i]);
  }
  bool NotNull(int i) const {
    if (repeating_) i = 0;
    return col_->no_nulls || col_->not_null[i] != 0;
  }
  bool no_nulls() const { return col_->no_nulls; }
  bool repeating() const { return repeating_; }

 private:
  const ColumnVector* col_;
  bool is_long_;
  bool repeating_;
  const int64_t* longs_;
  const double* doubles_;
};

template <typename OutT>
OutT* MutableTypedData(ColumnVector* col);
template <>
int64_t* MutableTypedData<int64_t>(ColumnVector* col) {
  return static_cast<LongColumnVector*>(col)->vector.data();
}
template <>
double* MutableTypedData<double>(ColumnVector* col) {
  return static_cast<DoubleColumnVector*>(col)->vector.data();
}

/// Writes the output's null flags: row i is NULL unless valid(i). Visits
/// the active rows only (slot 0 of a repeating output, else selected[] or
/// 0..size) and sets no_nulls when all of them are valid.
template <typename Valid>
void SetNullFlags(const VectorizedRowBatch& batch, ColumnVector* out_col,
                  Valid valid) {
  bool all_valid = true;
  auto mark = [&](int i) {
    bool ok = valid(i);
    out_col->not_null[i] = ok;
    all_valid = all_valid && ok;
  };
  if (out_col->is_repeating) {
    mark(0);
  } else if (batch.selected_in_use) {
    for (int j = 0; j < batch.selected_size; ++j) mark(batch.selected[j]);
  } else {
    for (int i = 0; i < batch.size; ++i) mark(i);
  }
  out_col->no_nulls = all_valid;
}

/// A division's row is also NULL when its divisor is 0 (or -0.0), as in the
/// row engine, so division always writes null flags.
template <typename Op>
constexpr bool kDivides = Op::kArith == simd::Arith::kDiv;

/// column OP column. The inner loops are branch-free over values; null
/// handling short-circuits entirely when both inputs carry no nulls and the
/// op is not a division.
template <typename OutT, typename Op>
class ArithColCol : public VectorExpression {
 public:
  ArithColCol(int left, int right, int output,
              std::unique_ptr<VectorExpression> left_child,
              std::unique_ptr<VectorExpression> right_child)
      : left_(left),
        right_(right),
        left_child_(std::move(left_child)),
        right_child_(std::move(right_child)) {
    output_column_ = output;
  }

  void Evaluate(VectorizedRowBatch* batch) override {
    if (left_child_) left_child_->Evaluate(batch);
    if (right_child_) right_child_->Evaluate(batch);
    ColReader<OutT> l(batch->columns[left_].get());
    ColReader<OutT> r(batch->columns[right_].get());
    ColumnVector* out_col = batch->columns[output_column_].get();
    OutT* out = MutableTypedData<OutT>(out_col);
    Op op;
    out_col->is_repeating = l.repeating() && r.repeating();
    if (out_col->is_repeating) {
      out[0] = op(l[0], r[0]);
    } else if (batch->selected_in_use) {
      const int* sel = batch->selected.data();
      for (int j = 0; j < batch->selected_size; ++j) {
        int i = sel[j];
        out[i] = op(l[i], r[i]);
      }
    } else if (!l.repeating() && !r.repeating() &&
               IsNativeKind<OutT>(batch->columns[left_].get()) &&
               IsNativeKind<OutT>(batch->columns[right_].get())) {
      // SIMD fast path over the dense spans. Like the scalar loop it computes
      // a value for every row; null rows are overruled by the flags below.
      simd::ArithColCol(Op::kArith,
                        TypedData<OutT>(batch->columns[left_].get()),
                        TypedData<OutT>(batch->columns[right_].get()),
                        batch->size, out);
    } else {
      int n = batch->size;
      for (int i = 0; i < n; ++i) out[i] = op(l[i], r[i]);
    }
    if (l.no_nulls() && r.no_nulls() && !kDivides<Op>) {
      out_col->no_nulls = true;
      return;
    }
    SetNullFlags(*batch, out_col, [&](int i) {
      return l.NotNull(i) && r.NotNull(i) && !(kDivides<Op> && r[i] == 0);
    });
  }

 private:
  int left_, right_;
  std::unique_ptr<VectorExpression> left_child_, right_child_;
};

/// column OP scalar (and scalar OP column via `scalar_left`). This is the
/// paper's Figure 8 expression shape.
template <typename OutT, typename Op>
class ArithColScalar : public VectorExpression {
 public:
  ArithColScalar(int input, OutT scalar, bool scalar_left, int output,
                 std::unique_ptr<VectorExpression> child)
      : input_(input),
        scalar_(scalar),
        scalar_left_(scalar_left),
        child_(std::move(child)) {
    output_column_ = output;
  }

  void Evaluate(VectorizedRowBatch* batch) override {
    if (child_) child_->Evaluate(batch);
    ColReader<OutT> in(batch->columns[input_].get());
    ColumnVector* out_col = batch->columns[output_column_].get();
    OutT* out = MutableTypedData<OutT>(out_col);
    Op op;
    // is-repeating fast path (paper §6.2): constant time for the whole
    // column vector, extending run-length encoding into execution.
    out_col->is_repeating = in.repeating();
    if (in.repeating()) {
      out[0] = scalar_left_ ? op(scalar_, in[0]) : op(in[0], scalar_);
    } else if (batch->selected_in_use) {
      // The iterations are completely independent and free of branches and
      // method calls, so they pipeline in superscalar CPUs (paper §6.2).
      const int* sel = batch->selected.data();
      if (scalar_left_) {
        for (int j = 0; j < batch->selected_size; ++j) {
          int i = sel[j];
          out[i] = op(scalar_, in[i]);
        }
      } else {
        for (int j = 0; j < batch->selected_size; ++j) {
          int i = sel[j];
          out[i] = op(in[i], scalar_);
        }
      }
    } else if (IsNativeKind<OutT>(batch->columns[input_].get())) {
      // SIMD fast path over the dense span (no long->double conversion
      // needed). Values at null rows are computed just like the scalar
      // loops; the flags below mark them null.
      simd::ArithScalar(Op::kArith,
                        TypedData<OutT>(batch->columns[input_].get()), scalar_,
                        scalar_left_, batch->size, out);
    } else {
      int n = batch->size;
      if (scalar_left_) {
        for (int i = 0; i < n; ++i) out[i] = op(scalar_, in[i]);
      } else {
        for (int i = 0; i < n; ++i) out[i] = op(in[i], scalar_);
      }
    }
    if (in.no_nulls() && !kDivides<Op>) {
      out_col->no_nulls = true;
      return;
    }
    SetNullFlags(*batch, out_col, [&](int i) {
      return in.NotNull(i) &&
             !(kDivides<Op> && (scalar_left_ ? in[i] : scalar_) == 0);
    });
  }

 private:
  int input_;
  OutT scalar_;
  bool scalar_left_;
  std::unique_ptr<VectorExpression> child_;
};

/// Identity: the expression is a plain column reference.
class ColumnRefExpression : public VectorExpression {
 public:
  explicit ColumnRefExpression(int column) { output_column_ = column; }
  void Evaluate(VectorizedRowBatch*) override {}
};

/// A literal: fills slot 0 once and marks the column is-repeating, so
/// downstream kernels run in constant time over it (paper §6.2).
template <typename T>
class ConstantExpression : public VectorExpression {
 public:
  ConstantExpression(T value, int output) : value_(value) {
    output_column_ = output;
  }
  void Evaluate(VectorizedRowBatch* batch) override {
    ColumnVector* out = batch->columns[output_column_].get();
    MutableTypedData<T>(out)[0] = value_;
    out->is_repeating = true;
    out->no_nulls = true;
  }

 private:
  T value_;
};

// --------------------------------------------------------------------
// Filters: narrow `selected` in place (Figure 8's selected[] loop).

template <typename T, typename Pred>
void FilterLoop(VectorizedRowBatch* batch, const ColReader<T>& in,
                const Pred& pred) {
  int* sel = batch->selected.data();
  int new_size = 0;
  if (batch->selected_in_use) {
    for (int j = 0; j < batch->selected_size; ++j) {
      int i = sel[j];
      if (in.NotNull(i) && pred(in[i])) sel[new_size++] = i;
    }
  } else {
    for (int i = 0; i < batch->size; ++i) {
      if (in.NotNull(i) && pred(in[i])) sel[new_size++] = i;
    }
    batch->selected_in_use = true;
  }
  batch->selected_size = new_size;
}

template <typename T>
class CompareScalarFilter : public VectorFilter {
 public:
  CompareScalarFilter(int column, ExprKind op, T scalar,
                      std::unique_ptr<VectorExpression> child)
      : column_(column), op_(op), scalar_(scalar), child_(std::move(child)) {}

  void Filter(VectorizedRowBatch* batch) override {
    if (child_) child_->Evaluate(batch);
    const ColumnVector* col = batch->columns[column_].get();
    // SIMD fast path: a dense (no selection yet), null-free, non-repeating
    // column stored natively as T. Compare the whole span into a byte mask,
    // then compress the mask into selected[]. Falls back to FilterLoop for
    // every other shape; both paths keep indexes strictly increasing.
    if (!batch->selected_in_use && col->no_nulls && !col->is_repeating &&
        IsNativeKind<T>(col)) {
      mask_.resize(static_cast<size_t>(batch->size));
      simd::CompareMask(ToSimdCmp(op_), TypedData<T>(col), scalar_,
                        batch->size, mask_.data());
      batch->selected_size = simd::MaskToSelected(mask_.data(), batch->size,
                                                  batch->selected.data());
      batch->selected_in_use = true;
      return;
    }
    ColReader<T> in(col);
    T s = scalar_;
    switch (op_) {
      case ExprKind::kEq:
        FilterLoop<T>(batch, in, [s](T v) { return v == s; });
        break;
      case ExprKind::kNe:
        FilterLoop<T>(batch, in, [s](T v) { return v != s; });
        break;
      case ExprKind::kLt:
        FilterLoop<T>(batch, in, [s](T v) { return v < s; });
        break;
      case ExprKind::kLe:
        FilterLoop<T>(batch, in, [s](T v) { return v <= s; });
        break;
      case ExprKind::kGt:
        FilterLoop<T>(batch, in, [s](T v) { return v > s; });
        break;
      default:
        FilterLoop<T>(batch, in, [s](T v) { return v >= s; });
        break;
    }
  }

 private:
  int column_;
  ExprKind op_;
  T scalar_;
  std::unique_ptr<VectorExpression> child_;
  std::vector<uint8_t> mask_;
};

template <typename T>
class BetweenFilter : public VectorFilter {
 public:
  BetweenFilter(int column, T low, T high,
                std::unique_ptr<VectorExpression> child)
      : column_(column), low_(low), high_(high), child_(std::move(child)) {}

  void Filter(VectorizedRowBatch* batch) override {
    if (child_) child_->Evaluate(batch);
    const ColumnVector* col = batch->columns[column_].get();
    if (!batch->selected_in_use && col->no_nulls && !col->is_repeating &&
        IsNativeKind<T>(col)) {
      mask_.resize(static_cast<size_t>(batch->size));
      simd::BetweenMask(TypedData<T>(col), low_, high_, batch->size,
                        mask_.data());
      batch->selected_size = simd::MaskToSelected(mask_.data(), batch->size,
                                                  batch->selected.data());
      batch->selected_in_use = true;
      return;
    }
    ColReader<T> in(col);
    T lo = low_, hi = high_;
    FilterLoop<T>(batch, in, [lo, hi](T v) { return v >= lo && v <= hi; });
  }

 private:
  int column_;
  T low_, high_;
  std::unique_ptr<VectorExpression> child_;
  std::vector<uint8_t> mask_;
};

class BytesCompareScalarFilter : public VectorFilter {
 public:
  BytesCompareScalarFilter(int column, ExprKind op, std::string scalar)
      : column_(column), op_(op), scalar_(std::move(scalar)) {}

  void Filter(VectorizedRowBatch* batch) override {
    auto* col = static_cast<BytesColumnVector*>(batch->columns[column_].get());
    int* sel = batch->selected.data();
    int new_size = 0;
    auto pass = [&](int i) {
      if (col->is_repeating) i = 0;
      if (!col->no_nulls && !col->not_null[i]) return false;
      int c = col->GetView(i).compare(scalar_);
      switch (op_) {
        case ExprKind::kEq: return c == 0;
        case ExprKind::kNe: return c != 0;
        case ExprKind::kLt: return c < 0;
        case ExprKind::kLe: return c <= 0;
        case ExprKind::kGt: return c > 0;
        default: return c >= 0;
      }
    };
    if (batch->selected_in_use) {
      for (int j = 0; j < batch->selected_size; ++j) {
        int i = sel[j];
        if (pass(i)) sel[new_size++] = i;
      }
    } else {
      for (int i = 0; i < batch->size; ++i) {
        if (pass(i)) sel[new_size++] = i;
      }
      batch->selected_in_use = true;
    }
    batch->selected_size = new_size;
  }

 private:
  int column_;
  ExprKind op_;
  std::string scalar_;
};

class IsNullFilter : public VectorFilter {
 public:
  IsNullFilter(int column, bool want_null,
               std::unique_ptr<VectorExpression> child)
      : column_(column), want_null_(want_null), child_(std::move(child)) {}

  void Filter(VectorizedRowBatch* batch) override {
    if (child_ != nullptr) child_->Evaluate(batch);
    ColumnVector* col = batch->columns[column_].get();
    int* sel = batch->selected.data();
    int new_size = 0;
    auto pass = [&](int i) {
      if (col->is_repeating) i = 0;
      bool is_null = !col->no_nulls && !col->not_null[i];
      return is_null == want_null_;
    };
    if (batch->selected_in_use) {
      for (int j = 0; j < batch->selected_size; ++j) {
        int i = sel[j];
        if (pass(i)) sel[new_size++] = i;
      }
    } else {
      for (int i = 0; i < batch->size; ++i) {
        if (pass(i)) sel[new_size++] = i;
      }
      batch->selected_in_use = true;
    }
    batch->selected_size = new_size;
  }

 private:
  int column_;
  bool want_null_;
  std::unique_ptr<VectorExpression> child_;
};

bool IsLongType(TypeKind kind) { return IsIntegerFamily(kind); }
bool IsDoubleType(TypeKind kind) { return IsFloatingFamily(kind); }

}  // namespace

Result<std::unique_ptr<VectorExpression>> BatchCompiler::CompileProjection(
    const Expr& expr, int* output_column) {
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      int col = expr.column_index();
      if (col < 0 || col >= static_cast<int>(column_types_.size())) {
        return Status::NotImplemented("column out of batch range");
      }
      *output_column = col;
      return std::unique_ptr<VectorExpression>(new ColumnRefExpression(col));
    }
    case ExprKind::kLiteral: {
      const Value& lit = expr.literal();
      if (lit.is_int()) {
        int out = AddScratch(TypeKind::kBigInt);
        *output_column = out;
        return std::unique_ptr<VectorExpression>(
            new ConstantExpression<int64_t>(lit.AsInt(), out));
      }
      if (lit.is_double()) {
        int out = AddScratch(TypeKind::kDouble);
        *output_column = out;
        return std::unique_ptr<VectorExpression>(
            new ConstantExpression<double>(lit.AsDouble(), out));
      }
      return Status::NotImplemented("unsupported literal kind");
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv: {
      const Expr& l = *expr.children()[0];
      const Expr& r = *expr.children()[1];
      bool out_double = expr.result_type() == TypeKind::kDouble;
      // Literal operand -> scalar kernel. The literal keeps its own type, so
      // an int64 kernel gets the exact integer, not a rounded double.
      auto literal_scalar = [](const Expr& e) -> const Value* {
        if (e.kind() != ExprKind::kLiteral) return nullptr;
        const Value& v = e.literal();
        return v.is_int() || v.is_double() ? &v : nullptr;
      };
      auto make_scalar_kernel =
          [&](const Expr& col_side, const Value& literal,
              bool scalar_left) -> Result<std::unique_ptr<VectorExpression>> {
        int input;
        MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> child,
                                  CompileProjection(col_side, &input));
        if (!IsLongType(column_types_[input]) &&
            !IsDoubleType(column_types_[input])) {
          return Status::NotImplemented("arith over non-numeric column");
        }
        std::unique_ptr<VectorExpression> keep =
            child->output_column() == input &&
                    dynamic_cast<ColumnRefExpression*>(child.get()) != nullptr
                ? nullptr
                : std::move(child);
        if (out_double) {
          int out = AddScratch(TypeKind::kDouble);
          *output_column = out;
          double scalar = literal.AsDouble();
          switch (expr.kind()) {
            case ExprKind::kAdd:
              return std::unique_ptr<VectorExpression>(
                  new ArithColScalar<double, AddOp>(input, scalar, scalar_left,
                                                    out, std::move(keep)));
            case ExprKind::kSub:
              return std::unique_ptr<VectorExpression>(
                  new ArithColScalar<double, SubOp>(input, scalar, scalar_left,
                                                    out, std::move(keep)));
            case ExprKind::kMul:
              return std::unique_ptr<VectorExpression>(
                  new ArithColScalar<double, MulOp>(input, scalar, scalar_left,
                                                    out, std::move(keep)));
            default:
              return std::unique_ptr<VectorExpression>(
                  new ArithColScalar<double, DivOp>(input, scalar, scalar_left,
                                                    out, std::move(keep)));
          }
        }
        int out = AddScratch(TypeKind::kBigInt);
        *output_column = out;
        int64_t s = literal.AsInt();
        switch (expr.kind()) {
          case ExprKind::kAdd:
            return std::unique_ptr<VectorExpression>(
                new ArithColScalar<int64_t, AddOp>(input, s, scalar_left, out,
                                                   std::move(keep)));
          case ExprKind::kSub:
            return std::unique_ptr<VectorExpression>(
                new ArithColScalar<int64_t, SubOp>(input, s, scalar_left, out,
                                                   std::move(keep)));
          default:
            return std::unique_ptr<VectorExpression>(
                new ArithColScalar<int64_t, MulOp>(input, s, scalar_left, out,
                                                   std::move(keep)));
        }
      };
      if (const Value* lit = literal_scalar(r)) {
        return make_scalar_kernel(l, *lit, /*scalar_left=*/false);
      }
      if (const Value* lit = literal_scalar(l)) {
        return make_scalar_kernel(r, *lit, /*scalar_left=*/true);
      }
      int left, right;
      MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> lchild,
                                CompileProjection(l, &left));
      MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> rchild,
                                CompileProjection(r, &right));
      for (int c : {left, right}) {
        if (!IsLongType(column_types_[c]) && !IsDoubleType(column_types_[c])) {
          return Status::NotImplemented("arith over non-numeric column");
        }
      }
      auto strip = [](std::unique_ptr<VectorExpression> e)
          -> std::unique_ptr<VectorExpression> {
        if (dynamic_cast<ColumnRefExpression*>(e.get()) != nullptr) {
          return nullptr;
        }
        return e;
      };
      if (out_double) {
        int out = AddScratch(TypeKind::kDouble);
        *output_column = out;
        switch (expr.kind()) {
          case ExprKind::kAdd:
            return std::unique_ptr<VectorExpression>(
                new ArithColCol<double, AddOp>(left, right, out,
                                               strip(std::move(lchild)),
                                               strip(std::move(rchild))));
          case ExprKind::kSub:
            return std::unique_ptr<VectorExpression>(
                new ArithColCol<double, SubOp>(left, right, out,
                                               strip(std::move(lchild)),
                                               strip(std::move(rchild))));
          case ExprKind::kMul:
            return std::unique_ptr<VectorExpression>(
                new ArithColCol<double, MulOp>(left, right, out,
                                               strip(std::move(lchild)),
                                               strip(std::move(rchild))));
          default:
            return std::unique_ptr<VectorExpression>(
                new ArithColCol<double, DivOp>(left, right, out,
                                               strip(std::move(lchild)),
                                               strip(std::move(rchild))));
        }
      }
      int out = AddScratch(TypeKind::kBigInt);
      *output_column = out;
      switch (expr.kind()) {
        case ExprKind::kAdd:
          return std::unique_ptr<VectorExpression>(
              new ArithColCol<int64_t, AddOp>(left, right, out,
                                              strip(std::move(lchild)),
                                              strip(std::move(rchild))));
        case ExprKind::kSub:
          return std::unique_ptr<VectorExpression>(
              new ArithColCol<int64_t, SubOp>(left, right, out,
                                              strip(std::move(lchild)),
                                              strip(std::move(rchild))));
        default:
          return std::unique_ptr<VectorExpression>(
              new ArithColCol<int64_t, MulOp>(left, right, out,
                                              strip(std::move(lchild)),
                                              strip(std::move(rchild))));
      }
    }
    case ExprKind::kCastDouble: {
      int input;
      MINIHIVE_ASSIGN_OR_RETURN(
          std::unique_ptr<VectorExpression> child,
          CompileProjection(*expr.children()[0], &input));
      if (IsDoubleType(column_types_[input])) {
        *output_column = input;
        return child;
      }
      if (!IsLongType(column_types_[input])) {
        return Status::NotImplemented("cast of a non-numeric column");
      }
      if (dynamic_cast<ColumnRefExpression*>(child.get()) != nullptr) {
        child = nullptr;
      }
      // x * 1.0 in double arithmetic is exactly the widened x.
      int out = AddScratch(TypeKind::kDouble);
      *output_column = out;
      return std::unique_ptr<VectorExpression>(new ArithColScalar<double, MulOp>(
          input, 1.0, /*scalar_left=*/false, out, std::move(child)));
    }
    default:
      return Status::NotImplemented("unsupported vectorized projection: " +
                                    expr.ToString());
  }
}

Result<std::vector<std::unique_ptr<VectorFilter>>> BatchCompiler::CompileFilter(
    const exec::ExprPtr& predicate) {
  std::vector<std::unique_ptr<VectorFilter>> filters;
  // Flatten the conjunction; each conjunct becomes one in-place filter, and
  // subsequent filters only visit rows selected by earlier ones (§6.2).
  std::vector<const Expr*> conjuncts;
  std::vector<const Expr*> stack = {predicate.get()};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind() == ExprKind::kAnd) {
      stack.push_back(e->children()[0].get());
      stack.push_back(e->children()[1].get());
    } else {
      conjuncts.push_back(e);
    }
  }
  for (const Expr* e : conjuncts) {
    switch (e->kind()) {
      case ExprKind::kEq:
      case ExprKind::kNe:
      case ExprKind::kLt:
      case ExprKind::kLe:
      case ExprKind::kGt:
      case ExprKind::kGe: {
        const Expr* col_side = e->children()[0].get();
        const Expr* lit_side = e->children()[1].get();
        ExprKind op = e->kind();
        if (col_side->kind() == ExprKind::kLiteral) {
          std::swap(col_side, lit_side);
          // Mirror the comparison.
          switch (op) {
            case ExprKind::kLt: op = ExprKind::kGt; break;
            case ExprKind::kLe: op = ExprKind::kGe; break;
            case ExprKind::kGt: op = ExprKind::kLt; break;
            case ExprKind::kGe: op = ExprKind::kLe; break;
            default: break;
          }
        }
        if (lit_side->kind() != ExprKind::kLiteral ||
            lit_side->literal().is_null()) {
          return Status::NotImplemented("filter needs a literal operand");
        }
        int column;
        MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> child,
                                  CompileProjection(*col_side, &column));
        std::unique_ptr<VectorExpression> keep =
            col_side->kind() == ExprKind::kColumn ? nullptr : std::move(child);
        TypeKind col_type = column_types_[column];
        const Value& lit = lit_side->literal();
        if (IsLongType(col_type) && lit.is_int()) {
          filters.push_back(std::make_unique<CompareScalarFilter<int64_t>>(
              column, op, lit.AsInt(), std::move(keep)));
        } else if (IsLongType(col_type) || IsDoubleType(col_type)) {
          filters.push_back(std::make_unique<CompareScalarFilter<double>>(
              column, op, lit.AsDouble(), std::move(keep)));
        } else if (col_type == TypeKind::kString && lit.is_string()) {
          if (keep != nullptr) {
            return Status::NotImplemented("computed string filter");
          }
          filters.push_back(std::make_unique<BytesCompareScalarFilter>(
              column, op, lit.AsString()));
        } else {
          return Status::NotImplemented("unsupported filter types");
        }
        break;
      }
      case ExprKind::kBetween: {
        const Expr& v = *e->children()[0];
        const Expr& lo = *e->children()[1];
        const Expr& hi = *e->children()[2];
        if (lo.kind() != ExprKind::kLiteral || hi.kind() != ExprKind::kLiteral ||
            lo.literal().is_null() || hi.literal().is_null()) {
          return Status::NotImplemented("BETWEEN needs literal bounds");
        }
        int column;
        MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> child,
                                  CompileProjection(v, &column));
        std::unique_ptr<VectorExpression> keep =
            v.kind() == ExprKind::kColumn ? nullptr : std::move(child);
        TypeKind col_type = column_types_[column];
        if (IsLongType(col_type) && lo.literal().is_int() &&
            hi.literal().is_int()) {
          filters.push_back(std::make_unique<BetweenFilter<int64_t>>(
              column, lo.literal().AsInt(), hi.literal().AsInt(),
              std::move(keep)));
        } else if (IsLongType(col_type) || IsDoubleType(col_type)) {
          filters.push_back(std::make_unique<BetweenFilter<double>>(
              column, lo.literal().AsDouble(), hi.literal().AsDouble(),
              std::move(keep)));
        } else {
          return Status::NotImplemented("BETWEEN over non-numeric column");
        }
        break;
      }
      case ExprKind::kIsNull:
      case ExprKind::kIsNotNull: {
        const Expr& v = *e->children()[0];
        int column;
        MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<VectorExpression> child,
                                  CompileProjection(v, &column));
        std::unique_ptr<VectorExpression> keep =
            v.kind() == ExprKind::kColumn ? nullptr : std::move(child);
        filters.push_back(std::make_unique<IsNullFilter>(
            column, e->kind() == ExprKind::kIsNull, std::move(keep)));
        break;
      }
      default:
        return Status::NotImplemented("unsupported vectorized filter: " +
                                      e->ToString());
    }
  }
  return filters;
}

std::unique_ptr<VectorizedRowBatch> MakeBatchFor(
    const std::vector<TypeKind>& column_types, int capacity) {
  auto batch = std::make_unique<VectorizedRowBatch>(capacity);
  for (TypeKind kind : column_types) {
    batch->AddColumn(kind);
  }
  return batch;
}

}  // namespace minihive::vec
