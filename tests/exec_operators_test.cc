#include "exec/operators.h"

#include <gtest/gtest.h>

#include "exec/expr.h"

namespace minihive::exec {
namespace {

/// Terminal operator capturing everything pushed into it.
class SinkOperator : public Operator {
 public:
  SinkOperator() : Operator(&desc_) { desc_.kind = OpKind::kSelect; }
  Status DoProcess(const Row& row, int tag) override {
    rows.push_back(row);
    tags.push_back(tag);
    return Status::OK();
  }
  std::vector<Row> rows;
  std::vector<int> tags;

 private:
  OpDesc desc_;
};

/// Builds a runtime tree from a single-root plan and attaches a sink to the
/// given leaf desc by constructing the tree manually.
struct Harness {
  OperatorArena arena;
  TaskContext ctx;
  SinkOperator sink;

  Operator* Build(const OpDescPtr& root) {
    auto result = BuildOperatorTree(root.get(), &arena);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Operator* op = *result;
    AttachSink(op);
    EXPECT_TRUE(op->Init(&ctx).ok());
    return op;
  }

  /// Attaches the sink below the deepest operator chain (runtime trees here
  /// are all chains or end at ops with no children).
  void AttachSink(Operator* op) { op->AddChild(&sink); }
};

TEST(FilterOperatorTest, SqlTernaryLogic) {
  OpDescPtr filter = MakeOp(OpKind::kFilter);
  // predicate: c0 > 10 (NULL rows must NOT pass).
  filter->predicate =
      Expr::Binary(ExprKind::kGt, Expr::Column(0, TypeKind::kBigInt),
                   Expr::Literal(Value::Int(10), TypeKind::kBigInt));
  Harness h;
  Operator* op = h.Build(filter);
  ASSERT_TRUE(op->Process({Value::Int(11)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(10)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Null()}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(99)}, 0).ok());
  ASSERT_EQ(h.sink.rows.size(), 2u);
  EXPECT_EQ(h.sink.rows[0][0].AsInt(), 11);
  EXPECT_EQ(h.sink.rows[1][0].AsInt(), 99);
}

TEST(SelectOperatorTest, ComputesProjections) {
  OpDescPtr select = MakeOp(OpKind::kSelect);
  select->projections = {
      Expr::Binary(ExprKind::kMul, Expr::Column(0, TypeKind::kBigInt),
                   Expr::Literal(Value::Int(2), TypeKind::kBigInt)),
      Expr::Column(1, TypeKind::kString),
  };
  Harness h;
  Operator* op = h.Build(select);
  ASSERT_TRUE(op->Process({Value::Int(21), Value::String("x")}, 0).ok());
  ASSERT_EQ(h.sink.rows.size(), 1u);
  EXPECT_EQ(h.sink.rows[0][0].AsInt(), 42);
  EXPECT_EQ(h.sink.rows[0][1].AsString(), "x");
}

TEST(LimitOperatorTest, StopsForwarding) {
  OpDescPtr limit = MakeOp(OpKind::kLimit);
  limit->limit = 2;
  Harness h;
  Operator* op = h.Build(limit);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(op->Process({Value::Int(i)}, 0).ok());
  }
  EXPECT_EQ(h.sink.rows.size(), 2u);
}

TEST(GroupByOperatorTest, HashModePartials) {
  OpDescPtr gby = MakeOp(OpKind::kGroupBy);
  gby->group_by_mode = GroupByMode::kHash;
  gby->group_keys = {Expr::Column(0, TypeKind::kString)};
  gby->aggs.push_back({AggKind::kCountStar, nullptr});
  gby->aggs.push_back({AggKind::kSum, Expr::Column(1, TypeKind::kBigInt)});
  gby->aggs.push_back({AggKind::kAvg, Expr::Column(1, TypeKind::kBigInt)});
  Harness h;
  Operator* op = h.Build(gby);
  ASSERT_TRUE(op->Process({Value::String("a"), Value::Int(1)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::String("b"), Value::Int(10)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::String("a"), Value::Int(2)}, 0).ok());
  ASSERT_TRUE(op->Finish().ok());
  ASSERT_EQ(h.sink.rows.size(), 2u);
  for (const Row& row : h.sink.rows) {
    // Layout: key, count, sum, avg-sum, avg-count (partial arity 2).
    ASSERT_EQ(row.size(), 5u);
    if (row[0].AsString() == "a") {
      EXPECT_EQ(row[1].AsInt(), 2);
      EXPECT_EQ(row[2].AsInt(), 3);
      EXPECT_DOUBLE_EQ(row[3].AsDouble(), 3.0);
      EXPECT_EQ(row[4].AsInt(), 2);
    } else {
      EXPECT_EQ(row[1].AsInt(), 1);
      EXPECT_EQ(row[2].AsInt(), 10);
    }
  }
}

TEST(GroupByOperatorTest, MergePartialFinalizesAvg) {
  OpDescPtr gby = MakeOp(OpKind::kGroupBy);
  gby->group_by_mode = GroupByMode::kMergePartial;
  gby->partial_offset = 1;
  gby->aggs.push_back({AggKind::kCountStar, nullptr});
  gby->aggs.push_back({AggKind::kAvg, nullptr});
  Harness h;
  Operator* op = h.Build(gby);
  // Two partials for the same group: counts 2 & 3, avg partial (sum,count).
  ASSERT_TRUE(op->StartGroup().ok());
  ASSERT_TRUE(op->Process({Value::String("k"), Value::Int(2),
                           Value::Double(10.0), Value::Int(2)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::String("k"), Value::Int(3),
                           Value::Double(20.0), Value::Int(3)}, 0).ok());
  ASSERT_TRUE(op->EndGroup().ok());
  ASSERT_EQ(h.sink.rows.size(), 1u);
  const Row& row = h.sink.rows[0];
  EXPECT_EQ(row[0].AsString(), "k");
  EXPECT_EQ(row[1].AsInt(), 5);
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 6.0);  // (10+20)/(2+3).
}

TEST(JoinOperatorTest, InnerJoinCrossProduct) {
  OpDescPtr join = MakeOp(OpKind::kJoin);
  join->join_num_inputs = 2;
  join->join_key_width = 1;
  join->join_value_widths = {1, 1};
  join->join_sides = {JoinSideKind::kInner, JoinSideKind::kInner};
  Harness h;
  Operator* op = h.Build(join);
  ASSERT_TRUE(op->StartGroup().ok());
  // Rows are key-prefixed: [key, value].
  ASSERT_TRUE(op->Process({Value::Int(7), Value::String("l1")}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(7), Value::String("l2")}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(7), Value::String("r1")}, 1).ok());
  ASSERT_TRUE(op->EndGroup().ok());
  ASSERT_EQ(h.sink.rows.size(), 2u);  // 2 x 1 combinations.
  for (const Row& row : h.sink.rows) {
    EXPECT_EQ(row[0].AsInt(), 7);
    EXPECT_EQ(row[2].AsString(), "r1");
  }
}

TEST(JoinOperatorTest, InnerJoinEmptySideEmitsNothing) {
  OpDescPtr join = MakeOp(OpKind::kJoin);
  join->join_num_inputs = 2;
  join->join_key_width = 1;
  join->join_value_widths = {1, 1};
  join->join_sides = {JoinSideKind::kInner, JoinSideKind::kInner};
  Harness h;
  Operator* op = h.Build(join);
  ASSERT_TRUE(op->StartGroup().ok());
  ASSERT_TRUE(op->Process({Value::Int(7), Value::String("l1")}, 0).ok());
  ASSERT_TRUE(op->EndGroup().ok());
  EXPECT_TRUE(h.sink.rows.empty());
}

TEST(JoinOperatorTest, LeftOuterPadsNulls) {
  OpDescPtr join = MakeOp(OpKind::kJoin);
  join->join_num_inputs = 2;
  join->join_key_width = 1;
  join->join_value_widths = {1, 2};
  join->join_sides = {JoinSideKind::kInner, JoinSideKind::kLeftOuter};
  Harness h;
  Operator* op = h.Build(join);
  ASSERT_TRUE(op->StartGroup().ok());
  ASSERT_TRUE(op->Process({Value::Int(1), Value::String("left")}, 0).ok());
  ASSERT_TRUE(op->EndGroup().ok());
  ASSERT_EQ(h.sink.rows.size(), 1u);
  const Row& row = h.sink.rows[0];
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1].AsString(), "left");
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[3].is_null());
}

TEST(JoinOperatorTest, ResidualFilterApplies) {
  OpDescPtr join = MakeOp(OpKind::kJoin);
  join->join_num_inputs = 2;
  join->join_key_width = 1;
  join->join_value_widths = {1, 1};
  join->join_sides = {JoinSideKind::kInner, JoinSideKind::kInner};
  // Residual over the joined layout [key, lv, rv]: lv < rv.
  join->join_residual =
      Expr::Binary(ExprKind::kLt, Expr::Column(1, TypeKind::kBigInt),
                   Expr::Column(2, TypeKind::kBigInt));
  Harness h;
  Operator* op = h.Build(join);
  ASSERT_TRUE(op->StartGroup().ok());
  ASSERT_TRUE(op->Process({Value::Int(1), Value::Int(5)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(1), Value::Int(3)}, 1).ok());
  ASSERT_TRUE(op->Process({Value::Int(1), Value::Int(9)}, 1).ok());
  ASSERT_TRUE(op->EndGroup().ok());
  ASSERT_EQ(h.sink.rows.size(), 1u);
  EXPECT_EQ(h.sink.rows[0][2].AsInt(), 9);
}

}  // namespace
}  // namespace minihive::exec
