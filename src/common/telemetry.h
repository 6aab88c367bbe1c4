#ifndef MINIHIVE_COMMON_TELEMETRY_H_
#define MINIHIVE_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace minihive::telemetry {

/// Monotonic nanoseconds (CLOCK_MONOTONIC); the time base for all spans.
int64_t MonotonicNanos();

// ---------------------------------------------------------------------------
// Metrics: named atomic counters / gauges / histograms.
//
// The registry hands out stable pointers; hot loops look a metric up once
// and then pay one relaxed atomic RMW per update. This is the uniform
// measurement surface the paper's evaluation counters (bytes read, rows
// skipped, per-phase times) flow through, replacing per-module ad-hoc
// fields.
// ---------------------------------------------------------------------------

/// Monotonically increasing count (rows, bytes, stripes, ...).
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins signed level (queue depth, bytes buffered, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Lock-free power-of-two bucket histogram: bucket i counts values in
/// [2^(i-1), 2^i) with bucket 0 counting zero. Tracks count/sum/min/max.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Process-wide registry of named metrics. Lookup takes a mutex (do it once,
/// outside hot loops); updates through the returned pointers are wait-free.
/// Pointers stay valid for the life of the process — metrics are never
/// removed, only Reset().
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Zeroes every registered metric (bench/test isolation between phases).
  void ResetAll();

  /// One flat snapshot: metric name -> value, sorted by name. Histograms
  /// expand to <name>.count/.sum/.mean/.min/.max entries.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  /// Serializes the registry as one JSON object value:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Keys are sorted, so output is stable for goldens and diffs.
  void WriteJson(json::Writer* writer) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Trace spans: a hierarchical profile of one query / job / task attempt /
// operator, with monotonic timing and span-local attributes.
// ---------------------------------------------------------------------------

/// One attribute value; spans keep attributes in insertion order.
struct AttrValue {
  enum class Kind { kInt, kUInt, kDouble, kString };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  std::string s;

  std::string ToDisplayString() const;
};

/// A node in the trace tree. Created via Span::StartChild (thread-safe: task
/// attempts open their spans from worker threads); ended explicitly with
/// End() (idempotent — an unended span takes its parent's end time at
/// serialization). Children are owned by their parent; the root is owned by
/// whoever started the trace (the ql::Driver keeps the last query's root).
class Span {
 public:
  explicit Span(std::string name);

  /// Opens (and returns) a child span starting now. Thread-safe.
  Span* StartChild(std::string name);

  /// Records the end time; further calls are no-ops.
  void End();
  bool ended() const { return end_nanos_.load(std::memory_order_acquire) != 0; }

  void SetAttr(std::string_view key, int64_t value);
  void SetAttr(std::string_view key, uint64_t value);
  void SetAttr(std::string_view key, double value);
  void SetAttr(std::string_view key, std::string_view value);
  /// The value last set for `key`, or nullopt if it was never set.
  std::optional<AttrValue> FindAttr(std::string_view key) const;

  const std::string& name() const { return name_; }
  int64_t start_nanos() const { return start_nanos_; }
  int64_t end_nanos() const {
    return end_nanos_.load(std::memory_order_acquire);
  }
  /// End minus start; 0 if the span has not ended.
  int64_t duration_nanos() const;
  /// Overrides the measured duration (operator spans report accumulated
  /// per-operator nanos rather than wall time between Start and End).
  void set_duration_nanos(int64_t nanos);

  /// Stable serialization: {"name", "duration_ms", "attrs", "children"}.
  /// Start/end offsets are relative to this span (machine-independent);
  /// set include_timing=false for timing-free golden output.
  void WriteJson(json::Writer* writer, bool include_timing = true) const;

  /// Human-readable indented tree with durations and attributes.
  std::string Render(int indent = 0) const;

  /// Snapshot of child pointers, in start order.
  std::vector<const Span*> children() const;

  /// Finds the first descendant (depth-first) with this name; null if none.
  const Span* FindDescendant(std::string_view name) const;

  /// Test hook: pins start/end so serialized output is deterministic.
  void SetTimesForTest(int64_t start_nanos, int64_t end_nanos);

 private:
  std::string name_;
  int64_t start_nanos_;
  std::atomic<int64_t> end_nanos_{0};
  std::atomic<int64_t> forced_duration_{-1};

  mutable std::mutex mu_;  // Guards children_ and attrs_.
  std::vector<std::unique_ptr<Span>> children_;
  std::vector<std::pair<std::string, AttrValue>> attrs_;
};

}  // namespace minihive::telemetry

#endif  // MINIHIVE_COMMON_TELEMETRY_H_
