// Unit tests for the Demux/Mux operator-coordination protocol of the
// Correlation Optimizer (paper §5.2.2): tag restoration, multi-destination
// routing (input correlation), and group-signal counting that makes a
// downstream operator see each signal exactly once, after every parent
// delivered it.

#include <gtest/gtest.h>

#include "exec/operators.h"

namespace minihive::exec {
namespace {

/// Records every event that reaches it, in order.
class EventSink : public Operator {
 public:
  EventSink() : Operator(&desc_) { desc_.kind = OpKind::kSelect; }
  Status DoProcess(const Row& row, int tag) override {
    events.push_back("row(tag=" + std::to_string(tag) +
                     ",v=" + row[0].ToString() + ")");
    return Status::OK();
  }
  Status DoStartGroup() override {
    events.push_back("start");
    return Status::OK();
  }
  Status DoEndGroup() override {
    events.push_back("end");
    return Status::OK();
  }
  Status DoFinish() override {
    events.push_back("finish");
    return Status::OK();
  }
  std::vector<std::string> events;

 private:
  OpDesc desc_;
};

TEST(DemuxOperatorTest, RestoresTagsAndFansOut) {
  // Routes (paper Figure 5): new tag 0 -> child0 with old tag 2;
  // new tag 1 -> BOTH children (input correlation fan-out).
  OpDescPtr demux = MakeOp(OpKind::kDemux);
  demux->demux_routes = {{{2, 0}}, {{0, 0}, {7, 1}}};
  OperatorArena arena;
  Operator* op = *BuildOperatorTree(demux.get(), &arena);
  EventSink sink0, sink1;
  op->AddChild(&sink0);
  op->AddChild(&sink1);
  TaskContext ctx;
  ASSERT_TRUE(op->Init(&ctx).ok());

  ASSERT_TRUE(op->StartGroup().ok());
  ASSERT_TRUE(op->Process({Value::Int(10)}, 0).ok());
  ASSERT_TRUE(op->Process({Value::Int(20)}, 1).ok());
  ASSERT_TRUE(op->EndGroup().ok());

  EXPECT_EQ(sink0.events,
            (std::vector<std::string>{"start", "row(tag=2,v=10)",
                                      "row(tag=0,v=20)", "end"}));
  EXPECT_EQ(sink1.events,
            (std::vector<std::string>{"start", "row(tag=7,v=20)", "end"}));
  EXPECT_FALSE(op->Process({Value::Int(1)}, 5).ok()) << "unknown new tag";
}

class MuxFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    parent_a_ = MakeOp(OpKind::kSelect);
    parent_a_->projections = {Expr::Column(0, TypeKind::kBigInt)};
    parent_b_ = MakeOp(OpKind::kSelect);
    parent_b_->projections = {Expr::Column(0, TypeKind::kBigInt)};
    mux_ = MakeOp(OpKind::kMux);
    mux_->mux_parent_tags = {4, 9};
    OpDesc::Connect(parent_a_, mux_);
    OpDesc::Connect(parent_b_, mux_);

    // Build from a synthetic shared root so one build covers both parents
    // (mirrors a Demux feeding several pipelines).
    root_ = MakeOp(OpKind::kDemux);
    root_->demux_routes = {{{0, 0}}, {{0, 1}}};
    OpDesc::Connect(root_, parent_a_);
    OpDesc::Connect(root_, parent_b_);

    std::unordered_map<const OpDesc*, Operator*> built;
    auto result = BuildOperatorTree(root_.get(), &arena_, &built);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    a_ = built[parent_a_.get()];
    b_ = built[parent_b_.get()];
    Operator* mux_core = built[mux_.get()];
    ASSERT_NE(mux_core, nullptr);
    mux_core->AddChild(&sink_);
    ASSERT_TRUE((*result)->Init(&ctx_).ok());
  }

  OpDescPtr parent_a_, parent_b_, mux_, root_;
  OperatorArena arena_;
  TaskContext ctx_;
  EventSink sink_;
  Operator* a_ = nullptr;
  Operator* b_ = nullptr;
};

TEST_F(MuxFixture, SignalsForwardedOnceAfterAllParents) {
  // Parent A starts; the child must not see the group yet.
  ASSERT_TRUE(a_->StartGroup().ok());
  EXPECT_TRUE(sink_.events.empty());
  ASSERT_TRUE(b_->StartGroup().ok());
  ASSERT_EQ(sink_.events, (std::vector<std::string>{"start"}));

  // Rows flow immediately, tagged by parent slot.
  ASSERT_TRUE(a_->Process({Value::Int(1)}, 0).ok());
  ASSERT_TRUE(b_->Process({Value::Int(2)}, 0).ok());

  // End from one parent is held; from both, forwarded once.
  ASSERT_TRUE(a_->EndGroup().ok());
  EXPECT_EQ(sink_.events.back(), "row(tag=9,v=2)");
  ASSERT_TRUE(b_->EndGroup().ok());
  EXPECT_EQ(sink_.events,
            (std::vector<std::string>{"start", "row(tag=4,v=1)",
                                      "row(tag=9,v=2)", "end"}));

  // A second group works identically (counters reset).
  ASSERT_TRUE(a_->StartGroup().ok());
  ASSERT_TRUE(b_->StartGroup().ok());
  ASSERT_TRUE(b_->EndGroup().ok());
  ASSERT_TRUE(a_->EndGroup().ok());
  EXPECT_EQ(sink_.events.size(), 6u);  // +start +end.
  EXPECT_EQ(sink_.events.back(), "end");
}

TEST_F(MuxFixture, FinishForwardedOnce) {
  ASSERT_TRUE(a_->Finish().ok());
  EXPECT_TRUE(sink_.events.empty());
  ASSERT_TRUE(b_->Finish().ok());
  EXPECT_EQ(sink_.events, (std::vector<std::string>{"finish"}));
}

}  // namespace
}  // namespace minihive::exec
