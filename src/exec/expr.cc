#include "exec/expr.h"

#include <algorithm>

#include "common/wrap_arith.h"

namespace minihive::exec {

namespace {

bool IsArith(ExprKind kind) {
  return kind == ExprKind::kAdd || kind == ExprKind::kSub ||
         kind == ExprKind::kMul || kind == ExprKind::kDiv;
}

/// Kleene AND/OR over {0 = false, 1 = null, 2 = true}: with NULL ordered
/// between FALSE and TRUE, AND is min() and OR is max().
int ToTri(const Value& v) { return v.is_null() ? 1 : (v.AsBool() ? 2 : 0); }

Value FromTri(int t) {
  return t == 1 ? Value::Null() : Value::Bool(t == 2);
}

}  // namespace

ExprPtr Expr::Column(int index, TypeKind type) {
  ExprPtr e(new Expr(ExprKind::kColumn, type));
  e->column_index_ = index;
  return e;
}

ExprPtr Expr::Literal(Value value, TypeKind type) {
  ExprPtr e(new Expr(ExprKind::kLiteral, type));
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Binary(ExprKind kind, ExprPtr left, ExprPtr right) {
  TypeKind result;
  if (IsArith(kind)) {
    bool any_double = IsFloatingFamily(left->result_type()) ||
                      IsFloatingFamily(right->result_type()) ||
                      kind == ExprKind::kDiv;
    result = any_double ? TypeKind::kDouble : TypeKind::kBigInt;
  } else {
    result = TypeKind::kBoolean;
  }
  ExprPtr e(new Expr(kind, result));
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  ExprPtr e(new Expr(ExprKind::kNot, TypeKind::kBoolean));
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr child, bool negated) {
  ExprPtr e(new Expr(negated ? ExprKind::kIsNotNull : ExprKind::kIsNull,
                     TypeKind::kBoolean));
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::Between(ExprPtr value, ExprPtr low, ExprPtr high) {
  ExprPtr e(new Expr(ExprKind::kBetween, TypeKind::kBoolean));
  e->children_ = {std::move(value), std::move(low), std::move(high)};
  return e;
}

ExprPtr Expr::In(ExprPtr value, std::vector<ExprPtr> list) {
  ExprPtr e(new Expr(ExprKind::kIn, TypeKind::kBoolean));
  e->children_.push_back(std::move(value));
  for (ExprPtr& item : list) e->children_.push_back(std::move(item));
  return e;
}

ExprPtr Expr::CastDouble(ExprPtr value) {
  ExprPtr e(new Expr(ExprKind::kCastDouble, TypeKind::kDouble));
  e->children_ = {std::move(value)};
  return e;
}

Value Expr::Eval(const Row& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return row[column_index_];
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv: {
      Value a = children_[0]->Eval(row);
      Value b = children_[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      if (result_type_ == TypeKind::kDouble) {
        double x = a.AsDouble(), y = b.AsDouble();
        switch (kind_) {
          case ExprKind::kAdd: return Value::Double(x + y);
          case ExprKind::kSub: return Value::Double(x - y);
          case ExprKind::kMul: return Value::Double(x * y);
          default:
            return y == 0 ? Value::Null() : Value::Double(x / y);
        }
      }
      int64_t x = a.AsInt(), y = b.AsInt();
      switch (kind_) {
        case ExprKind::kAdd: return Value::Int(WrapAdd(x, y));
        case ExprKind::kSub: return Value::Int(WrapSub(x, y));
        default: return Value::Int(WrapMul(x, y));
      }
    }
    case ExprKind::kEq:
    case ExprKind::kNe:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe: {
      Value a = children_[0]->Eval(row);
      Value b = children_[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      int c = a.Compare(b);
      switch (kind_) {
        case ExprKind::kEq: return Value::Bool(c == 0);
        case ExprKind::kNe: return Value::Bool(c != 0);
        case ExprKind::kLt: return Value::Bool(c < 0);
        case ExprKind::kLe: return Value::Bool(c <= 0);
        case ExprKind::kGt: return Value::Bool(c > 0);
        default: return Value::Bool(c >= 0);
      }
    }
    case ExprKind::kAnd: {
      int a = ToTri(children_[0]->Eval(row));
      if (a == 0) return Value::Bool(false);
      int b = ToTri(children_[1]->Eval(row));
      if (b == 0) return Value::Bool(false);
      return FromTri(std::min(a, b));
    }
    case ExprKind::kOr: {
      int a = ToTri(children_[0]->Eval(row));
      if (a == 2) return Value::Bool(true);
      int b = ToTri(children_[1]->Eval(row));
      return FromTri(std::max(a, b));
    }
    case ExprKind::kNot: {
      Value v = children_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.AsBool());
    }
    case ExprKind::kIsNull:
      return Value::Bool(children_[0]->Eval(row).is_null());
    case ExprKind::kIsNotNull:
      return Value::Bool(!children_[0]->Eval(row).is_null());
    case ExprKind::kBetween: {
      Value v = children_[0]->Eval(row);
      Value lo = children_[1]->Eval(row);
      Value hi = children_[2]->Eval(row);
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kIn: {
      Value v = children_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < children_.size(); ++i) {
        Value item = children_[i]->Eval(row);
        if (item.is_null()) {
          saw_null = true;
        } else if (v.Compare(item) == 0) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case ExprKind::kCastDouble: {
      Value v = children_[0]->Eval(row);
      return v.is_int() ? Value::Double(v.AsDouble()) : v;
    }
  }
  return Value::Null();
}

ExprPtr Expr::RemapColumns(const std::vector<int>& mapping) const {
  if (kind_ == ExprKind::kColumn) {
    int new_index = column_index_ >= 0 &&
                            static_cast<size_t>(column_index_) < mapping.size()
                        ? mapping[column_index_]
                        : -1;
    return Column(new_index, result_type_);
  }
  if (kind_ == ExprKind::kLiteral) {
    return Literal(literal_, result_type_);
  }
  ExprPtr copy(new Expr(kind_, result_type_));
  copy->column_index_ = column_index_;
  copy->literal_ = literal_;
  for (const ExprPtr& child : children_) {
    copy->children_.push_back(child->RemapColumns(mapping));
  }
  return copy;
}

void Expr::CollectColumns(std::vector<int>* columns) const {
  if (kind_ == ExprKind::kColumn) {
    columns->push_back(column_index_);
  }
  for (const ExprPtr& child : children_) {
    child->CollectColumns(columns);
  }
  std::sort(columns->begin(), columns->end());
  columns->erase(std::unique(columns->begin(), columns->end()),
                 columns->end());
}

std::string Expr::ToString() const {
  const char* infix = nullptr;  // A binary operator prints as "(a op b)".
  switch (kind_) {
    case ExprKind::kColumn:
      return std::string("c").append(std::to_string(column_index_));
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kAdd: infix = " + "; break;
    case ExprKind::kSub: infix = " - "; break;
    case ExprKind::kMul: infix = " * "; break;
    case ExprKind::kDiv: infix = " / "; break;
    case ExprKind::kEq: infix = " = "; break;
    case ExprKind::kNe: infix = " != "; break;
    case ExprKind::kLt: infix = " < "; break;
    case ExprKind::kLe: infix = " <= "; break;
    case ExprKind::kGt: infix = " > "; break;
    case ExprKind::kGe: infix = " >= "; break;
    case ExprKind::kAnd: infix = " AND "; break;
    case ExprKind::kOr: infix = " OR "; break;
    case ExprKind::kNot:
      return "NOT " + children_[0]->ToString();
    case ExprKind::kIsNull:
      return children_[0]->ToString() + " IS NULL";
    case ExprKind::kIsNotNull:
      return children_[0]->ToString() + " IS NOT NULL";
    case ExprKind::kBetween:
      return children_[0]->ToString() + " BETWEEN " +
             children_[1]->ToString() + " AND " + children_[2]->ToString();
    case ExprKind::kIn: {
      std::string s = children_[0]->ToString() + " IN (";
      for (size_t i = 1; i < children_.size(); ++i) {
        if (i > 1) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    case ExprKind::kCastDouble:
      return "CAST(" + children_[0]->ToString() + " AS DOUBLE)";
  }
  if (infix == nullptr) return "?";
  return std::string("(")
      .append(children_[0]->ToString())
      .append(infix)
      .append(children_[1]->ToString())
      .append(")");
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum: return "sum";
    case AggKind::kCount: return "count";
    case AggKind::kCountStar: return "count(*)";
    case AggKind::kAvg: return "avg";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
  }
  return "?";
}

TypeKind AggDesc::ResultType() const {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return TypeKind::kBigInt;
    case AggKind::kAvg:
      return TypeKind::kDouble;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      return arg != nullptr && IsFloatingFamily(arg->result_type())
                 ? TypeKind::kDouble
                 : (arg != nullptr && arg->result_type() == TypeKind::kString
                        ? TypeKind::kString
                        : TypeKind::kBigInt);
  }
  return TypeKind::kBigInt;
}

void AggBuffer::Update(const Row& row) {
  if (desc_->kind == AggKind::kCountStar) {
    ++count_;
    return;
  }
  Value v = desc_->arg->Eval(row);
  if (v.is_null()) return;
  switch (desc_->kind) {
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (IsFloatingFamily(desc_->arg->result_type()) ||
          desc_->kind == AggKind::kAvg) {
        double_acc_ += v.AsDouble();
        use_double_ = true;
      } else {
        int_acc_ = WrapAdd(int_acc_, v.AsInt());
      }
      ++count_;
      has_value_ = true;
      break;
    case AggKind::kMin:
      if (!has_value_ || v.Compare(extreme_) < 0) extreme_ = v;
      has_value_ = true;
      break;
    case AggKind::kMax:
      if (!has_value_ || v.Compare(extreme_) > 0) extreme_ = v;
      has_value_ = true;
      break;
    default:
      break;
  }
}

void AggBuffer::Merge(const Row& row, int offset) {
  switch (desc_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      if (!row[offset].is_null()) count_ += row[offset].AsInt();
      break;
    case AggKind::kSum:
      if (!row[offset].is_null()) {
        if (row[offset].is_double()) {
          double_acc_ += row[offset].AsDouble();
          use_double_ = true;
        } else {
          int_acc_ = WrapAdd(int_acc_, row[offset].AsInt());
        }
        has_value_ = true;
      }
      break;
    case AggKind::kAvg:
      if (!row[offset].is_null()) {
        double_acc_ += row[offset].AsDouble();
        use_double_ = true;
        has_value_ = true;
      }
      if (!row[offset + 1].is_null()) count_ += row[offset + 1].AsInt();
      break;
    case AggKind::kMin:
      if (!row[offset].is_null() &&
          (!has_value_ || row[offset].Compare(extreme_) < 0)) {
        extreme_ = row[offset];
        has_value_ = true;
      }
      break;
    case AggKind::kMax:
      if (!row[offset].is_null() &&
          (!has_value_ || row[offset].Compare(extreme_) > 0)) {
        extreme_ = row[offset];
        has_value_ = true;
      }
      break;
  }
}

void AggBuffer::EmitPartial(Row* out) const {
  switch (desc_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      out->push_back(Value::Int(count_));
      break;
    case AggKind::kSum:
      if (!has_value_) {
        out->push_back(Value::Null());
      } else if (use_double_) {
        out->push_back(Value::Double(double_acc_));
      } else {
        out->push_back(Value::Int(int_acc_));
      }
      break;
    case AggKind::kAvg:
      out->push_back(has_value_ ? Value::Double(double_acc_) : Value::Null());
      out->push_back(Value::Int(count_));
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      out->push_back(has_value_ ? extreme_ : Value::Null());
      break;
  }
}

void AggBuffer::EmitFinal(Row* out) const {
  switch (desc_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      out->push_back(Value::Int(count_));
      break;
    case AggKind::kSum:
      if (!has_value_) {
        out->push_back(Value::Null());
      } else if (use_double_) {
        out->push_back(Value::Double(double_acc_));
      } else {
        out->push_back(Value::Int(int_acc_));
      }
      break;
    case AggKind::kAvg:
      out->push_back(count_ == 0 ? Value::Null()
                                 : Value::Double(double_acc_ / count_));
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      out->push_back(has_value_ ? extreme_ : Value::Null());
      break;
  }
}

void AggBuffer::Reset() {
  has_value_ = false;
  count_ = 0;
  int_acc_ = 0;
  double_acc_ = 0;
  extreme_ = Value::Null();
  use_double_ = false;
}

}  // namespace minihive::exec
