#ifndef MINIHIVE_COMMON_TELEMETRY_H_
#define MINIHIVE_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
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
