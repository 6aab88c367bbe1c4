// Tests for the telemetry subsystem: the process-wide metrics registry
// (exact concurrent counting), trace spans (nesting, ordering, timing) and
// the stable JSON serialization both ride on (golden strings).

#include "common/telemetry.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "mr/engine.h"

namespace minihive {
namespace {

using telemetry::MetricsRegistry;
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

// ---- Metrics registry.

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  auto& registry = MetricsRegistry::Global();
  auto* a = registry.GetCounter("test.same_name");
  auto* b = registry.GetCounter("test.same_name");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("test.other_name"), a);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100000;
  auto* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter->Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter->Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(MetricsRegistryTest, ConcurrentLookupAndUpdateMixed) {
  // Lookups race with updates through already-held pointers; the total must
  // still be exact and all lookups must agree on one instance.
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  MetricsRegistry::Global().GetCounter("test.mixed_counter")->Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kOps; ++i) {
        MetricsRegistry::Global().GetCounter("test.mixed_counter")->Add(2);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.mixed_counter")->value(),
            static_cast<uint64_t>(kThreads) * kOps * 2);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  auto* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Reset();
  EXPECT_EQ(gauge->value(), 0);
}

TEST(MetricsRegistryTest, HistogramBucketsAndStats) {
  auto* h = MetricsRegistry::Global().GetHistogram("test.histogram");
  h->Reset();
  h->Record(0);
  h->Record(1);
  h->Record(7);
  h->Record(1024);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 1032u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 1024u);
  EXPECT_DOUBLE_EQ(h->mean(), 1032.0 / 4);
  EXPECT_EQ(h->bucket(0), 1u);   // zero
  EXPECT_EQ(h->bucket(1), 1u);   // [1, 2)
  EXPECT_EQ(h->bucket(3), 1u);   // [4, 8)
  EXPECT_EQ(h->bucket(11), 1u);  // [1024, 2048)
}

TEST(MetricsRegistryTest, SnapshotContainsRegisteredMetrics) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot_counter")->Reset();
  registry.GetCounter("test.snapshot_counter")->Add(5);
  auto snapshot = registry.Snapshot();
  bool found = false;
  for (const auto& [name, value] : snapshot) {
    if (name == "test.snapshot_counter") {
      found = true;
      EXPECT_DOUBLE_EQ(value, 5.0);
    }
  }
  EXPECT_TRUE(found);
  // Sorted by name.
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
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
