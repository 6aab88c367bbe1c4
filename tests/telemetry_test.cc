// Tests for the telemetry subsystem: trace spans (nesting, ordering,
// timing), the stable JSON serialization they ride on (golden strings), and
// the JobCounters field tables, including the exact concurrent merge of
// task-attempt counters into a job's.

#include "common/telemetry.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "mr/engine.h"

namespace minihive {
namespace {

using telemetry::Span;

// ---- JSON writer goldens.

TEST(JsonWriterTest, GoldenDocument) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("q\"uote");
  w.Key("count").Int(-3);
  w.Key("big").UInt(18446744073709551615ull);
  w.Key("ratio").Double(0.5);
  w.Key("flag").Bool(true);
  w.Key("missing").Null();
  w.Key("items").BeginArray().Int(1).Int(2).EndArray();
  w.Key("nested").BeginObject().Key("k").String("v").EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"q\\\"uote\",\n"
            "  \"count\": -3,\n"
            "  \"big\": 18446744073709551615,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"missing\": null,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    2\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"k\": \"v\"\n"
            "  }\n"
            "}");
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(json::Escape("a\tb\nc\\d"), "a\\tb\\nc\\\\d");
  EXPECT_EQ(json::Escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, EmptyContainers) {
  json::Writer w;
  w.BeginObject();
  w.Key("a").BeginArray().EndArray();
  w.Key("o").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"a\": [],\n  \"o\": {}\n}");
}

// ---- Spans.

TEST(SpanTest, NestingAndOrdering) {
  Span root("root");
  Span* a = root.StartChild("a");
  Span* b = root.StartChild("b");
  Span* a1 = a->StartChild("a1");
  a1->End();
  a->End();
  b->End();
  root.End();

  auto kids = root.children();
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0]->name(), "a");
  EXPECT_EQ(kids[1]->name(), "b");
  EXPECT_EQ(kids[1], b);
  EXPECT_EQ(root.FindDescendant("a1"), a1);
  EXPECT_EQ(root.FindDescendant("nope"), nullptr);
}

TEST(SpanTest, EndIsIdempotentAndDurationsNest) {
  Span root("root");
  Span* child = root.StartChild("child");
  child->End();
  int64_t first_end = child->end_nanos();
  child->End();  // No-op.
  EXPECT_EQ(child->end_nanos(), first_end);
  root.End();
  EXPECT_GE(child->duration_nanos(), 0);
  EXPECT_GE(root.duration_nanos(), child->duration_nanos());
  EXPECT_GE(child->start_nanos(), root.start_nanos());
}

TEST(SpanTest, ConcurrentStartChildIsSafe) {
  Span root("root");
  constexpr int kThreads = 8;
  constexpr int kChildrenPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root] {
      for (int i = 0; i < kChildrenPerThread; ++i) {
        root.StartChild("c")->End();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(root.children().size(),
            static_cast<size_t>(kThreads) * kChildrenPerThread);
}

TEST(SpanTest, ForcedDurationOverridesWallTime) {
  Span span("op");
  span.set_duration_nanos(5000000);  // 5 ms.
  span.End();
  EXPECT_EQ(span.duration_nanos(), 5000000);
}

TEST(SpanTest, JsonGoldenWithoutTiming) {
  Span root("query:test");
  root.SetAttr("num_jobs", static_cast<int64_t>(2));
  Span* child = root.StartChild("execute");
  child->SetAttr("kind", "mapreduce");
  child->End();
  root.End();

  json::Writer w;
  root.WriteJson(&w, /*include_timing=*/false);
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"query:test\",\n"
            "  \"attrs\": {\n"
            "    \"num_jobs\": 2\n"
            "  },\n"
            "  \"children\": [\n"
            "    {\n"
            "      \"name\": \"execute\",\n"
            "      \"attrs\": {\n"
            "        \"kind\": \"mapreduce\"\n"
            "      }\n"
            "    }\n"
            "  ]\n"
            "}");
}

TEST(SpanTest, JsonGoldenWithPinnedTiming) {
  Span span("job");
  span.SetTimesForTest(0, 2500000);  // 2.5 ms.
  json::Writer w;
  span.WriteJson(&w, /*include_timing=*/true);
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"job\",\n"
            "  \"duration_ms\": 2.5\n"
            "}");
}

TEST(SpanTest, RenderShowsTreeAndAttrs) {
  Span root("root");
  root.SetAttr("rows", static_cast<uint64_t>(10));
  Span* child = root.StartChild("child");
  child->End();
  root.End();
  std::string rendered = root.Render();
  EXPECT_NE(rendered.find("root"), std::string::npos);
  EXPECT_NE(rendered.find("rows"), std::string::npos);
  EXPECT_NE(rendered.find("  child"), std::string::npos);
}

// ---- JobCounters field tables (copy / accumulate / span export).

TEST(JobCountersTest, CopyTakesSnapshotOfEveryField) {
  mr::JobCounters counters;
  counters.map_input_records = 11;
  counters.shuffled_bytes = 22;
  counters.cpu_nanos = 33;
  counters.map_tasks = 4;
  counters.map_phase_millis = 5.5;
  counters.map_task_failures = 6;

  mr::JobCounters copy(counters);
  EXPECT_EQ(copy.map_input_records.load(), 11u);
  EXPECT_EQ(copy.shuffled_bytes.load(), 22u);
  EXPECT_EQ(copy.cpu_nanos.load(), 33);
  EXPECT_EQ(copy.map_tasks, 4);
  EXPECT_DOUBLE_EQ(copy.map_phase_millis, 5.5);
  EXPECT_EQ(copy.map_task_failures.load(), 6u);

  // The copy is independent.
  counters.map_input_records = 99;
  EXPECT_EQ(copy.map_input_records.load(), 11u);
}

TEST(JobCountersTest, AccumulateCoversEveryField) {
  mr::JobCounters a;
  a.map_output_records = 7;
  a.reduce_tasks = 2;
  a.reduce_phase_millis = 1.5;
  a.retried_task_nanos = 100;
  mr::JobCounters total;
  a.AccumulateInto(&total);
  a.AccumulateInto(&total);
  EXPECT_EQ(total.map_output_records.load(), 14u);
  EXPECT_EQ(total.reduce_tasks, 4);
  EXPECT_DOUBLE_EQ(total.reduce_phase_millis, 3.0);
  EXPECT_EQ(total.retried_task_nanos.load(), 200);
}

TEST(JobCountersTest, ConcurrentTaskLocalMergeSumsExactly) {
  // Winning attempts publish from worker threads into one job total; no
  // update may be lost. Each field gets its own value, so a merge that
  // crossed two fields would show too.
  constexpr int kThreads = 8;
  constexpr int kMergesPerThread = 2000;
  mr::JobCounters attempt;
  uint64_t next = 1;
  for (const auto& f : mr::JobCounters::atomic_u64_fields()) {
    attempt.*f.member = next++;
  }
  for (const auto& f : mr::JobCounters::atomic_i64_fields()) {
    attempt.*f.member = static_cast<int64_t>(next++);
  }
  // Coordinator-owned: a task-local merge must leave them alone.
  for (const auto& f : mr::JobCounters::int_fields()) attempt.*f.member = 3;
  for (const auto& f : mr::JobCounters::double_fields()) {
    attempt.*f.member = 1.5;
  }
  attempt.operators.enabled = true;
  attempt.operators.stats[0] = {"TS", 10, 8, 2, 100};
  attempt.operators.stats[4] = {"GBY", 8, 1, 0, 7};

  mr::JobCounters total;
  total.operators.enabled = true;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&attempt, &total] {
      mr::JobCounters mine(attempt);  // Each attempt owns its counters.
      for (int i = 0; i < kMergesPerThread; ++i) {
        mine.AccumulateTaskLocalInto(&total);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const uint64_t merges = static_cast<uint64_t>(kThreads) * kMergesPerThread;
  for (const auto& f : mr::JobCounters::atomic_u64_fields()) {
    EXPECT_EQ((total.*f.member).load(), (attempt.*f.member).load() * merges)
        << f.name;
  }
  for (const auto& f : mr::JobCounters::atomic_i64_fields()) {
    EXPECT_EQ((total.*f.member).load(),
              (attempt.*f.member).load() * static_cast<int64_t>(merges))
        << f.name;
  }
  for (const auto& f : mr::JobCounters::int_fields()) {
    EXPECT_EQ(total.*f.member, 0) << f.name;
  }
  for (const auto& f : mr::JobCounters::double_fields()) {
    EXPECT_EQ(total.*f.member, 0.0) << f.name;
  }
  ASSERT_EQ(total.operators.stats.size(), 2u);
  for (const auto& [id, want] : attempt.operators.stats) {
    const mr::OperatorStats& got = total.operators.stats.at(id);
    EXPECT_STREQ(got.kind, want.kind) << id;
    EXPECT_EQ(got.rows_in, want.rows_in * merges) << id;
    EXPECT_EQ(got.rows_out, want.rows_out * merges) << id;
    EXPECT_EQ(got.batches, want.batches * merges) << id;
    EXPECT_EQ(got.nanos, want.nanos * static_cast<int64_t>(merges)) << id;
  }
}

TEST(JobCountersTest, ExportToSpanWritesEveryTableEntry) {
  mr::JobCounters counters;
  counters.map_input_records = 42;
  Span span("job");
  counters.ExportToSpan(&span);
  span.SetTimesForTest(0, 1000000);
  json::Writer w;
  span.WriteJson(&w, /*include_timing=*/false);
  const std::string& out = w.str();
  // Every table name must appear as an attribute.
  for (const auto& f : mr::JobCounters::atomic_u64_fields()) {
    EXPECT_NE(out.find(f.name), std::string::npos) << f.name;
  }
  for (const auto& f : mr::JobCounters::atomic_i64_fields()) {
    EXPECT_NE(out.find(f.name), std::string::npos) << f.name;
  }
  for (const auto& f : mr::JobCounters::int_fields()) {
    EXPECT_NE(out.find(f.name), std::string::npos) << f.name;
  }
  for (const auto& f : mr::JobCounters::double_fields()) {
    EXPECT_NE(out.find(f.name), std::string::npos) << f.name;
  }
  EXPECT_NE(out.find("\"map_input_records\": 42"), std::string::npos);
  // Null span is a no-op, not a crash.
  counters.ExportToSpan(nullptr);
}

}  // namespace
}  // namespace minihive
