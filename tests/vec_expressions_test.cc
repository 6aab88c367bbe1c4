#include "vec/vector_expressions.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.h"
#include "vec/simd.h"

namespace minihive::vec {
namespace {

using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;

/// Builds a batch with one long column (0) and one double column (1).
std::unique_ptr<VectorizedRowBatch> TwoColumnBatch(int n) {
  auto batch = std::make_unique<VectorizedRowBatch>(n);
  batch->AddColumn(TypeKind::kBigInt);
  batch->AddColumn(TypeKind::kDouble);
  auto* longs = batch->LongCol(0);
  auto* doubles = batch->DoubleCol(1);
  for (int i = 0; i < n; ++i) {
    longs->vector[i] = i;
    doubles->vector[i] = i * 0.5;
  }
  batch->size = n;
  return batch;
}

TEST(VectorExpressionTest, LongColumnPlusScalar) {
  // The paper's Figure 8 expression: long column + constant.
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr e = Expr::Binary(ExprKind::kAdd,
                           Expr::Column(0, TypeKind::kBigInt),
                           Expr::Literal(Value::Int(100), TypeKind::kBigInt));
  int out = -1;
  auto compiled = compiler.CompileProjection(*e, &out);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto batch = MakeBatchFor(compiler.column_types(), 64);
  auto* longs = batch->LongCol(0);
  for (int i = 0; i < 64; ++i) longs->vector[i] = i;
  batch->size = 64;
  (*compiled)->Evaluate(batch.get());
  auto* result = batch->LongCol(out);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(result->vector[i], i + 100);
  }
}

TEST(VectorExpressionTest, ScalarMinusColumnAndColTimesCol) {
  // (1 - discount) * price with double columns.
  BatchCompiler compiler({TypeKind::kDouble, TypeKind::kDouble});
  ExprPtr discount = Expr::Column(0, TypeKind::kDouble);
  ExprPtr price = Expr::Column(1, TypeKind::kDouble);
  ExprPtr e = Expr::Binary(
      ExprKind::kMul,
      Expr::Binary(ExprKind::kSub,
                   Expr::Literal(Value::Double(1.0), TypeKind::kDouble),
                   discount),
      price);
  int out = -1;
  auto compiled = compiler.CompileProjection(*e, &out);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto batch = MakeBatchFor(compiler.column_types(), 128);
  auto* d = batch->DoubleCol(0);
  auto* p = batch->DoubleCol(1);
  Random rng(1);
  for (int i = 0; i < 128; ++i) {
    d->vector[i] = rng.NextDouble() * 0.1;
    p->vector[i] = rng.NextDouble() * 1000;
  }
  batch->size = 128;
  (*compiled)->Evaluate(batch.get());
  auto* result = batch->DoubleCol(out);
  for (int i = 0; i < 128; ++i) {
    EXPECT_DOUBLE_EQ(result->vector[i], (1.0 - d->vector[i]) * p->vector[i]);
  }
}

TEST(VectorExpressionTest, MixedLongDoubleArithmetic) {
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr e = Expr::Binary(ExprKind::kAdd,
                           Expr::Column(0, TypeKind::kBigInt),
                           Expr::Column(1, TypeKind::kDouble));
  int out = -1;
  auto compiled = compiler.CompileProjection(*e, &out);
  ASSERT_TRUE(compiled.ok());
  auto batch = MakeBatchFor(compiler.column_types(), 32);
  auto* longs = batch->LongCol(0);
  auto* doubles = batch->DoubleCol(1);
  for (int i = 0; i < 32; ++i) {
    longs->vector[i] = i;
    doubles->vector[i] = 0.25;
  }
  batch->size = 32;
  (*compiled)->Evaluate(batch.get());
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(batch->DoubleCol(out)->vector[i], i + 0.25);
  }
}

TEST(VectorExpressionTest, NullPropagation) {
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr e = Expr::Binary(ExprKind::kMul,
                           Expr::Column(0, TypeKind::kBigInt),
                           Expr::Literal(Value::Int(2), TypeKind::kBigInt));
  int out = -1;
  auto compiled = compiler.CompileProjection(*e, &out);
  ASSERT_TRUE(compiled.ok());
  auto batch = MakeBatchFor(compiler.column_types(), 8);
  auto* longs = batch->LongCol(0);
  longs->no_nulls = false;
  for (int i = 0; i < 8; ++i) {
    longs->vector[i] = i;
    longs->not_null[i] = i % 2 == 0;
  }
  batch->size = 8;
  (*compiled)->Evaluate(batch.get());
  auto* result = batch->LongCol(out);
  EXPECT_FALSE(result->no_nulls);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(result->not_null[i] != 0, i % 2 == 0);
  }
}

TEST(VectorFilterTest, SelectedArrayNarrowing) {
  // Successive filters narrow `selected` in place (paper §6.2).
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr pred = Expr::Binary(
      ExprKind::kAnd,
      Expr::Binary(ExprKind::kGe, Expr::Column(0, TypeKind::kBigInt),
                   Expr::Literal(Value::Int(10), TypeKind::kBigInt)),
      Expr::Binary(ExprKind::kLt, Expr::Column(1, TypeKind::kDouble),
                   Expr::Literal(Value::Double(20.0), TypeKind::kDouble)));
  auto filters = compiler.CompileFilter(pred);
  ASSERT_TRUE(filters.ok()) << filters.status().ToString();

  auto batch = TwoColumnBatch(100);
  for (auto& f : *filters) f->Filter(batch.get());
  // Survivors: i >= 10 and i*0.5 < 20 => 10..39.
  EXPECT_TRUE(batch->selected_in_use);
  EXPECT_EQ(batch->selected_size, 30);
  for (int j = 0; j < batch->selected_size; ++j) {
    int i = batch->selected[j];
    EXPECT_GE(i, 10);
    EXPECT_LT(i, 40);
  }
}

TEST(VectorFilterTest, BetweenFilter) {
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr pred = Expr::Between(
      Expr::Column(1, TypeKind::kDouble),
      Expr::Literal(Value::Double(5.0), TypeKind::kDouble),
      Expr::Literal(Value::Double(10.0), TypeKind::kDouble));
  auto filters = compiler.CompileFilter(pred);
  ASSERT_TRUE(filters.ok());
  auto batch = TwoColumnBatch(100);
  for (auto& f : *filters) f->Filter(batch.get());
  EXPECT_EQ(batch->selected_size, 11);  // 10..20 (i*0.5 in [5,10]).
}

TEST(VectorFilterTest, NullsNeverPassComparisons) {
  BatchCompiler compiler({TypeKind::kBigInt});
  ExprPtr pred = Expr::Binary(ExprKind::kGe,
                              Expr::Column(0, TypeKind::kBigInt),
                              Expr::Literal(Value::Int(0), TypeKind::kBigInt));
  auto filters = compiler.CompileFilter(pred);
  ASSERT_TRUE(filters.ok());
  auto batch = MakeBatchFor(compiler.column_types(), 10);
  auto* longs = batch->LongCol(0);
  longs->no_nulls = false;
  for (int i = 0; i < 10; ++i) {
    longs->vector[i] = i;
    longs->not_null[i] = i != 3 && i != 7;
  }
  batch->size = 10;
  for (auto& f : *filters) f->Filter(batch.get());
  EXPECT_EQ(batch->selected_size, 8);
}

TEST(VectorFilterTest, StringEqualityFilter) {
  BatchCompiler compiler({TypeKind::kString});
  ExprPtr pred = Expr::Binary(
      ExprKind::kEq, Expr::Column(0, TypeKind::kString),
      Expr::Literal(Value::String("hit"), TypeKind::kString));
  auto filters = compiler.CompileFilter(pred);
  ASSERT_TRUE(filters.ok());
  auto batch = MakeBatchFor(compiler.column_types(), 6);
  auto* strs = batch->BytesCol(0);
  const char* values[] = {"hit", "miss", "hit", "x", "hit", ""};
  for (int i = 0; i < 6; ++i) strs->SetVal(i, values[i]);
  batch->size = 6;
  for (auto& f : *filters) f->Filter(batch.get());
  EXPECT_EQ(batch->selected_size, 3);
}

TEST(VectorCompilerTest, RejectsUnsupportedShapes) {
  BatchCompiler compiler({TypeKind::kString});
  // Arithmetic over a string column must fail validation (row fallback).
  ExprPtr e = Expr::Binary(ExprKind::kAdd,
                           Expr::Column(0, TypeKind::kString),
                           Expr::Literal(Value::Int(1), TypeKind::kBigInt));
  int out;
  EXPECT_TRUE(compiler.CompileProjection(*e, &out)
                  .status()
                  .IsNotImplemented());
  // OR is not supported by the in-place filter set.
  ExprPtr pred = Expr::Binary(
      ExprKind::kOr,
      Expr::Binary(ExprKind::kEq, Expr::Column(0, TypeKind::kString),
                   Expr::Literal(Value::String("a"), TypeKind::kString)),
      Expr::Binary(ExprKind::kEq, Expr::Column(0, TypeKind::kString),
                   Expr::Literal(Value::String("b"), TypeKind::kString)));
  EXPECT_TRUE(compiler.CompileFilter(pred).status().IsNotImplemented());
}

// ------------------------------------------------------------------
// SIMD dispatch: both arms (AVX2 when compiled in and present, scalar
// otherwise) must be byte-identical on every kernel, including the nasty
// cases — int64 wraparound, NaN comparisons, division by zero, ragged tails.

class SimdIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::SetEnabled(true); }

  /// Runs `fn` with SIMD off then on and returns both results.
  template <typename Fn>
  static auto BothArms(Fn fn) {
    simd::SetEnabled(false);
    auto scalar = fn();
    simd::SetEnabled(true);
    auto vector = fn();
    return std::pair(std::move(scalar), std::move(vector));
  }
};

TEST_F(SimdIdentityTest, CompareAndBetweenMasks) {
  Random rng(41);
  const double kInf = std::numeric_limits<double>::infinity();
  for (int n : {0, 1, 3, 4, 7, 31, 64, 100, 1027}) {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    for (int i = 0; i < n; ++i) {
      ints.push_back(static_cast<int64_t>(rng.Uniform(1000)) - 500);
      doubles.push_back(static_cast<double>(ints.back()) * 0.25);
    }
    if (n > 2) doubles[n / 2] = std::numeric_limits<double>::quiet_NaN();
    if (n > 6) {  // Signed zero and infinities.
      doubles[0] = -0.0;
      doubles[1] = kInf;
      doubles[2] = -kInf;
    }
    for (simd::Cmp cmp : {simd::Cmp::kEq, simd::Cmp::kNe, simd::Cmp::kLt,
                          simd::Cmp::kLe, simd::Cmp::kGt, simd::Cmp::kGe}) {
      auto [s, v] = BothArms([&] {
        std::vector<uint8_t> mask(n);
        simd::CompareMask(cmp, ints.data(), int64_t{17}, n, mask.data());
        for (double scalar : {4.25, 0.0, -0.0, kInf, -kInf}) {
          std::vector<uint8_t> dmask(n);
          simd::CompareMask(cmp, doubles.data(), scalar, n, dmask.data());
          mask.insert(mask.end(), dmask.begin(), dmask.end());
        }
        return mask;
      });
      EXPECT_EQ(s, v) << "cmp " << static_cast<int>(cmp) << " n " << n;
    }
    auto [s, v] = BothArms([&] {
      std::vector<uint8_t> mask(n);
      simd::BetweenMask(ints.data(), int64_t{-100}, int64_t{100}, n,
                        mask.data());
      for (auto [lo, hi] : {std::pair(-25.0, 25.0), std::pair(-0.0, kInf),
                            std::pair(-kInf, 0.0)}) {
        std::vector<uint8_t> dmask(n);
        simd::BetweenMask(doubles.data(), lo, hi, n, dmask.data());
        mask.insert(mask.end(), dmask.begin(), dmask.end());
      }
      return mask;
    });
    EXPECT_EQ(s, v) << "between n " << n;
  }
}

TEST_F(SimdIdentityTest, ArithmeticIncludingWraparoundAndDivZero) {
  Random rng(43);
  for (int n : {1, 7, 100, 1027}) {
    std::vector<int64_t> a, b;
    std::vector<double> da, db;
    for (int i = 0; i < n; ++i) {
      a.push_back(static_cast<int64_t>(rng.Next()));  // Wraps on mul/add.
      b.push_back(static_cast<int64_t>(rng.Next()));
      da.push_back(static_cast<double>(rng.Uniform(100)) - 50);
      // Division by zero, by both signed zeros.
      db.push_back(i % 5 == 0 ? (i % 10 == 0 ? 0.0 : -0.0) : da.back() + 1);
    }
    for (simd::Arith op : {simd::Arith::kAdd, simd::Arith::kSub,
                           simd::Arith::kMul}) {
      auto [s, v] = BothArms([&] {
        std::vector<int64_t> out(n);
        simd::ArithColCol(op, a.data(), b.data(), n, out.data());
        std::vector<int64_t> out2(n);
        simd::ArithScalar(op, a.data(), int64_t{7919}, /*scalar_left=*/false,
                          n, out2.data());
        std::vector<int64_t> out3(n);
        simd::ArithScalar(op, a.data(), int64_t{7919}, /*scalar_left=*/true,
                          n, out3.data());
        out.insert(out.end(), out2.begin(), out2.end());
        out.insert(out.end(), out3.begin(), out3.end());
        return out;
      });
      EXPECT_EQ(s, v) << "i64 op " << static_cast<int>(op) << " n " << n;
    }
    for (simd::Arith op : {simd::Arith::kAdd, simd::Arith::kSub,
                           simd::Arith::kMul, simd::Arith::kDiv}) {
      auto [s, v] = BothArms([&] {
        std::vector<double> out(n);
        simd::ArithColCol(op, da.data(), db.data(), n, out.data());
        for (double scalar : {0.0, -0.0, 2.5}) {
          for (bool scalar_left : {true, false}) {
            std::vector<double> out2(n);
            simd::ArithScalar(op, db.data(), scalar, scalar_left, n,
                              out2.data());
            out.insert(out.end(), out2.begin(), out2.end());
          }
        }
        return out;
      });
      // Compare bit patterns so -0.0 vs 0.0 or NaN payloads can't hide.
      ASSERT_EQ(s.size(), v.size());
      for (size_t i = 0; i < s.size(); ++i) {
        uint64_t sb, vb;
        std::memcpy(&sb, &s[i], 8);
        std::memcpy(&vb, &v[i], 8);
        EXPECT_EQ(sb, vb) << "f64 op " << static_cast<int>(op) << " idx " << i;
      }
    }
  }
}

TEST_F(SimdIdentityTest, MaskToSelected) {
  std::vector<uint8_t> mask = {1, 0, 0, 1, 1, 0, 1};
  std::vector<int> sel(mask.size());
  int count = simd::MaskToSelected(mask.data(), static_cast<int>(mask.size()),
                                   sel.data());
  ASSERT_EQ(count, 4);
  EXPECT_EQ(sel[0], 0);
  EXPECT_EQ(sel[1], 3);
  EXPECT_EQ(sel[2], 4);
  EXPECT_EQ(sel[3], 6);
}

TEST_F(SimdIdentityTest, FilterKernelsAgreeAcrossDispatchArms) {
  // End-to-end: the compiled filter's SIMD fast path and the scalar
  // FilterLoop must produce the same selection vector.
  BatchCompiler compiler({TypeKind::kBigInt, TypeKind::kDouble});
  ExprPtr pred = Expr::Binary(
      ExprKind::kAnd,
      Expr::Binary(ExprKind::kGt, Expr::Column(0, TypeKind::kBigInt),
                   Expr::Literal(Value::Int(20), TypeKind::kBigInt)),
      Expr::Binary(ExprKind::kLe, Expr::Column(1, TypeKind::kDouble),
                   Expr::Literal(Value::Double(28.0), TypeKind::kDouble)));
  auto filters = std::move(compiler.CompileFilter(pred)).ValueOrDie();
  auto run = [&] {
    auto batch = TwoColumnBatch(100);
    for (auto& f : filters) f->Filter(batch.get());
    std::vector<int> sel(batch->selected.begin(),
                         batch->selected.begin() + batch->selected_size);
    return sel;
  };
  simd::SetEnabled(false);
  auto scalar_sel = run();
  simd::SetEnabled(true);
  auto simd_sel = run();
  EXPECT_EQ(scalar_sel, simd_sel);
  // ids 21..56 survive (0.5 * id <= 28).
  ASSERT_FALSE(simd_sel.empty());
  EXPECT_EQ(simd_sel.front(), 21);
  EXPECT_EQ(simd_sel.back(), 56);
}

}  // namespace
}  // namespace minihive::vec
