#include "orc/sarg.h"

#include <type_traits>

#include "vec/simd.h"

namespace minihive::orc {

namespace {

/// Extracts a comparable [min, max] pair for the literal's family from the
/// statistics. Returns false if the statistics carry no usable range.
bool GetRange(const ColumnStatistics& stats, const Value& literal, Value* min,
              Value* max) {
  if (literal.is_int() || literal.is_double()) {
    if (stats.has_int_stats()) {
      *min = Value::Int(stats.int_min());
      *max = Value::Int(stats.int_max());
      return true;
    }
    if (stats.has_double_stats()) {
      *min = Value::Double(stats.double_min());
      *max = Value::Double(stats.double_max());
      return true;
    }
    return false;
  }
  if (literal.is_string() && stats.has_string_stats()) {
    *min = Value::String(stats.string_min());
    *max = Value::String(stats.string_max());
    return true;
  }
  return false;
}

TruthValue CompareAgainstRange(PredicateOp op, const Value& lit,
                               const Value& lit2, const Value& min,
                               const Value& max) {
  switch (op) {
    case PredicateOp::kEquals:
      if (lit.Compare(min) < 0 || lit.Compare(max) > 0) return TruthValue::kNo;
      return TruthValue::kMaybe;
    case PredicateOp::kNotEquals:
      // Definitely false only when every value equals the literal.
      if (min.Compare(max) == 0 && lit.Compare(min) == 0) {
        return TruthValue::kNo;
      }
      return TruthValue::kMaybe;
    case PredicateOp::kLessThan:
      if (min.Compare(lit) >= 0) return TruthValue::kNo;
      return TruthValue::kMaybe;
    case PredicateOp::kLessThanEquals:
      if (min.Compare(lit) > 0) return TruthValue::kNo;
      return TruthValue::kMaybe;
    case PredicateOp::kGreaterThan:
      if (max.Compare(lit) <= 0) return TruthValue::kNo;
      return TruthValue::kMaybe;
    case PredicateOp::kGreaterThanEquals:
      if (max.Compare(lit) < 0) return TruthValue::kNo;
      return TruthValue::kMaybe;
    case PredicateOp::kBetween:
      if (max.Compare(lit) < 0 || min.Compare(lit2) > 0) {
        return TruthValue::kNo;
      }
      return TruthValue::kMaybe;
    default:
      return TruthValue::kMaybe;
  }
}

}  // namespace

TruthValue SearchArgument::EvaluateLeaf(const LeafPredicate& leaf,
                                        const ColumnStatistics& stats) {
  if (leaf.op == PredicateOp::kIsNull) {
    return stats.has_null() ? TruthValue::kMaybe : TruthValue::kNo;
  }
  if (leaf.op == PredicateOp::kIsNotNull) {
    return stats.num_values() > 0 ? TruthValue::kMaybe : TruthValue::kNo;
  }
  // Comparisons never match a unit that is entirely NULL.
  if (stats.num_values() == 0) return TruthValue::kNo;
  // IN () matches nothing; without this, the range probe below would fail
  // on the null probe value and leak a kMaybe for a predicate that is
  // definitely false.
  if (leaf.op == PredicateOp::kIn && leaf.in_list.empty()) {
    return TruthValue::kNo;
  }
  // BETWEEN with inverted bounds is an empty range.
  if (leaf.op == PredicateOp::kBetween &&
      leaf.literal.Compare(leaf.literal2) > 0) {
    return TruthValue::kNo;
  }
  Value min, max;
  if (!GetRange(stats, leaf.op == PredicateOp::kIn && !leaf.in_list.empty()
                           ? leaf.in_list.front()
                           : leaf.literal,
                &min, &max)) {
    return TruthValue::kMaybe;
  }
  if (leaf.op == PredicateOp::kIn) {
    for (const Value& v : leaf.in_list) {
      if (CompareAgainstRange(PredicateOp::kEquals, v, v, min, max) ==
          TruthValue::kMaybe) {
        return TruthValue::kMaybe;
      }
    }
    return TruthValue::kNo;
  }
  return CompareAgainstRange(leaf.op, leaf.literal, leaf.literal2, min, max);
}

namespace {

bool IsIntKind(TypeKind kind) {
  return kind == TypeKind::kBoolean || kind == TypeKind::kTinyInt ||
         kind == TypeKind::kSmallInt || kind == TypeKind::kInt ||
         kind == TypeKind::kBigInt;
}

bool IsDoubleKind(TypeKind kind) {
  return kind == TypeKind::kFloat || kind == TypeKind::kDouble;
}

bool IsNumericValue(const Value& v) { return v.is_int() || v.is_double(); }

bool IsComparisonOp(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEquals:
    case PredicateOp::kNotEquals:
    case PredicateOp::kLessThan:
    case PredicateOp::kLessThanEquals:
    case PredicateOp::kGreaterThan:
    case PredicateOp::kGreaterThanEquals:
      return true;
    default:
      return false;
  }
}

simd::Cmp ToSimdCmp(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEquals: return simd::Cmp::kEq;
    case PredicateOp::kNotEquals: return simd::Cmp::kNe;
    case PredicateOp::kLessThan: return simd::Cmp::kLt;
    case PredicateOp::kLessThanEquals: return simd::Cmp::kLe;
    case PredicateOp::kGreaterThan: return simd::Cmp::kGt;
    default: return simd::Cmp::kGe;
  }
}

/// ANDs pred's verdict into mask for each row. pred receives the PACKED
/// value index for non-null rows; NULL rows are dropped (SQL: a comparison
/// against NULL is not true).
template <typename Pred>
void AndNonNullRows(const ColumnSlice& slice, uint8_t* mask, Pred pred) {
  if (!slice.present) {
    for (int i = 0; i < slice.rows; ++i) mask[i] &= pred(i) ? 1 : 0;
    return;
  }
  int nn = 0;
  for (int i = 0; i < slice.rows; ++i) {
    uint8_t keep = 0;
    if (slice.present[i]) {
      keep = pred(nn) ? 1 : 0;
      ++nn;
    }
    mask[i] &= keep;
  }
}

template <typename T>
bool CompareRow(PredicateOp op, T value, T literal) {
  switch (op) {
    case PredicateOp::kEquals: return value == literal;
    case PredicateOp::kNotEquals: return value != literal;
    case PredicateOp::kLessThan: return value < literal;
    case PredicateOp::kLessThanEquals: return value <= literal;
    case PredicateOp::kGreaterThan: return value > literal;
    default: return value >= literal;
  }
}

/// The literal as the column's value type: int64 columns compare as
/// integers, double columns as doubles (see LeafRowEvaluable).
template <typename T>
T LiteralAs(const Value& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.AsInt();
  } else {
    return v.AsDouble();
  }
}

/// Phase-1 evaluation of a comparison, BETWEEN or IN leaf over one numeric
/// column. Null-free slices take the SIMD mask kernels.
template <typename T>
void EvaluateNumericRows(const LeafPredicate& leaf, const T* vals,
                         const ColumnSlice& slice, uint8_t* mask,
                         std::vector<uint8_t>* scratch) {
  const int n = slice.rows;
  if (IsComparisonOp(leaf.op)) {
    const T lit = LiteralAs<T>(leaf.literal);
    if (!slice.present) {
      scratch->resize(static_cast<size_t>(n));
      simd::CompareMask(ToSimdCmp(leaf.op), vals, lit, n, scratch->data());
      simd::AndMask(scratch->data(), n, mask);
    } else {
      AndNonNullRows(slice, mask, [&](int nn) {
        return CompareRow<T>(leaf.op, vals[nn], lit);
      });
    }
    return;
  }
  if (leaf.op == PredicateOp::kBetween) {
    const T lo = LiteralAs<T>(leaf.literal);
    const T hi = LiteralAs<T>(leaf.literal2);
    if (!slice.present) {
      scratch->resize(static_cast<size_t>(n));
      simd::BetweenMask(vals, lo, hi, n, scratch->data());
      simd::AndMask(scratch->data(), n, mask);
    } else {
      AndNonNullRows(slice, mask, [&](int nn) {
        return vals[nn] >= lo && vals[nn] <= hi;
      });
    }
    return;
  }
  // kIn: linear probe — pushed-down lists are short.
  AndNonNullRows(slice, mask, [&](int nn) {
    for (const Value& v : leaf.in_list) {
      if (vals[nn] == LiteralAs<T>(v)) return true;
    }
    return false;
  });
}

}  // namespace

bool SearchArgument::LeafRowEvaluable(const LeafPredicate& leaf,
                                      TypeKind kind) {
  const bool int_col = IsIntKind(kind);
  const bool double_col = IsDoubleKind(kind);
  const bool string_col = kind == TypeKind::kString;
  if (!int_col && !double_col && !string_col) return false;
  switch (leaf.op) {
    case PredicateOp::kIsNull:
    case PredicateOp::kIsNotNull:
      return true;
    case PredicateOp::kBetween:
      // The engine evaluates int-column BETWEEN with int64 comparisons only
      // when both bounds are ints; everything numeric otherwise runs in
      // double. Mirror that exactly.
      if (int_col) return leaf.literal.is_int() && leaf.literal2.is_int();
      if (double_col) {
        return IsNumericValue(leaf.literal) && IsNumericValue(leaf.literal2);
      }
      return false;
    case PredicateOp::kIn:
      for (const Value& v : leaf.in_list) {
        if (int_col && !v.is_int()) return false;
        if (double_col && !IsNumericValue(v)) return false;
        if (string_col && !v.is_string()) return false;
      }
      return true;
    default:
      if (!IsComparisonOp(leaf.op)) return false;
      if (int_col) return leaf.literal.is_int();
      if (double_col) return IsNumericValue(leaf.literal);
      return leaf.literal.is_string();
  }
}

void SearchArgument::EvaluateLeafRows(const LeafPredicate& leaf,
                                      TypeKind kind, const ColumnSlice& slice,
                                      uint8_t* mask,
                                      std::vector<uint8_t>* scratch) {
  const int n = slice.rows;
  if (leaf.op == PredicateOp::kIsNull) {
    for (int i = 0; i < n; ++i) {
      mask[i] &= slice.present ? (slice.present[i] ? 0 : 1) : 0;
    }
    return;
  }
  if (leaf.op == PredicateOp::kIsNotNull) {
    if (!slice.present) return;  // Nothing is null: every row passes.
    for (int i = 0; i < n; ++i) mask[i] &= slice.present[i] ? 1 : 0;
    return;
  }

  if (IsIntKind(kind)) {
    EvaluateNumericRows(leaf, slice.longs, slice, mask, scratch);
    return;
  }
  if (IsDoubleKind(kind)) {
    EvaluateNumericRows(leaf, slice.doubles, slice, mask, scratch);
    return;
  }

  // Strings.
  const std::string_view* vals = slice.strings;
  if (IsComparisonOp(leaf.op)) {
    const std::string& lit = leaf.literal.AsString();
    const PredicateOp op = leaf.op;
    AndNonNullRows(slice, mask, [&](int nn) {
      int c = vals[nn].compare(lit);
      switch (op) {
        case PredicateOp::kEquals: return c == 0;
        case PredicateOp::kNotEquals: return c != 0;
        case PredicateOp::kLessThan: return c < 0;
        case PredicateOp::kLessThanEquals: return c <= 0;
        case PredicateOp::kGreaterThan: return c > 0;
        default: return c >= 0;
      }
    });
    return;
  }
  AndNonNullRows(slice, mask, [&](int nn) {
    for (const Value& v : leaf.in_list) {
      if (vals[nn] == v.AsString()) return true;
    }
    return false;
  });
}

bool SearchArgument::CanSkip(
    const std::vector<ColumnStatistics>& stats) const {
  for (const LeafPredicate& leaf : leaves_) {
    if (leaf.column < 0 || static_cast<size_t>(leaf.column) >= stats.size()) {
      continue;
    }
    if (EvaluateLeaf(leaf, stats[leaf.column]) == TruthValue::kNo) {
      return true;  // AND semantics: one impossible conjunct kills the unit.
    }
  }
  return false;
}

std::string SearchArgument::ToString() const {
  std::string s;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    if (i > 0) s += " AND ";
    const LeafPredicate& leaf = leaves_[i];
    s += "col" + std::to_string(leaf.column);
    switch (leaf.op) {
      case PredicateOp::kEquals: s += " = "; break;
      case PredicateOp::kNotEquals: s += " != "; break;
      case PredicateOp::kLessThan: s += " < "; break;
      case PredicateOp::kLessThanEquals: s += " <= "; break;
      case PredicateOp::kGreaterThan: s += " > "; break;
      case PredicateOp::kGreaterThanEquals: s += " >= "; break;
      case PredicateOp::kBetween:
        s += " BETWEEN " + leaf.literal.ToString() + " AND " +
             leaf.literal2.ToString();
        continue;
      case PredicateOp::kIn: {
        s += " IN (";
        for (size_t j = 0; j < leaf.in_list.size(); ++j) {
          if (j > 0) s += ",";
          s += leaf.in_list[j].ToString();
        }
        s += ")";
        continue;
      }
      case PredicateOp::kIsNull: s += " IS NULL"; continue;
      case PredicateOp::kIsNotNull: s += " IS NOT NULL"; continue;
    }
    s += leaf.literal.ToString();
  }
  return s;
}

}  // namespace minihive::orc
