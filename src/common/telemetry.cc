#include "common/telemetry.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>

namespace minihive::telemetry {

int64_t MonotonicNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------- Histogram

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // min/max via CAS loops; contention is rare (updates are monotone).
  uint64_t observed = min_.load(std::memory_order_relaxed);
  while (value < observed &&
         !min_.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
  observed = max_.load(std::memory_order_relaxed);
  while (value > observed &&
         !max_.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
  int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
  buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t Histogram::min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Registry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never dies.
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, static_cast<double>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name + ".count",
                     static_cast<double>(histogram->count()));
    out.emplace_back(name + ".sum", static_cast<double>(histogram->sum()));
    out.emplace_back(name + ".mean", histogram->mean());
    out.emplace_back(name + ".min", static_cast<double>(histogram->min()));
    out.emplace_back(name + ".max", static_cast<double>(histogram->max()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsRegistry::WriteJson(json::Writer* writer) const {
  std::lock_guard<std::mutex> lock(mu_);
  writer->BeginObject();
  writer->Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    writer->Key(name).UInt(counter->value());
  }
  writer->EndObject();
  writer->Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    writer->Key(name).Int(gauge->value());
  }
  writer->EndObject();
  writer->Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    writer->Key(name).BeginObject();
    writer->Key("count").UInt(histogram->count());
    writer->Key("sum").UInt(histogram->sum());
    writer->Key("mean").Double(histogram->mean());
    writer->Key("min").UInt(histogram->min());
    writer->Key("max").UInt(histogram->max());
    writer->EndObject();
  }
  writer->EndObject();
  writer->EndObject();
}

// ---------------------------------------------------------------- AttrValue

std::string AttrValue::ToDisplayString() const {
  char buf[48];
  switch (kind) {
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kUInt:
      return std::to_string(u);
    case Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.3f", d);
      return buf;
    case Kind::kString:
      return s;
  }
  return "";
}

// ---------------------------------------------------------------- Span

Span::Span(std::string name)
    : name_(std::move(name)), start_nanos_(MonotonicNanos()) {}

Span* Span::StartChild(std::string name) {
  auto child = std::make_unique<Span>(std::move(name));
  Span* raw = child.get();
  std::lock_guard<std::mutex> lock(mu_);
  children_.push_back(std::move(child));
  return raw;
}

void Span::End() {
  int64_t expected = 0;
  end_nanos_.compare_exchange_strong(expected, MonotonicNanos(),
                                     std::memory_order_acq_rel);
}

int64_t Span::duration_nanos() const {
  int64_t forced = forced_duration_.load(std::memory_order_relaxed);
  if (forced >= 0) return forced;
  int64_t end = end_nanos();
  return end == 0 ? 0 : end - start_nanos_;
}

void Span::set_duration_nanos(int64_t nanos) {
  forced_duration_.store(nanos, std::memory_order_relaxed);
  End();
}

void Span::SetAttr(std::string_view key, int64_t value) {
  AttrValue v;
  v.kind = AttrValue::Kind::kInt;
  v.i = value;
  std::lock_guard<std::mutex> lock(mu_);
  attrs_.emplace_back(std::string(key), std::move(v));
}

void Span::SetAttr(std::string_view key, uint64_t value) {
  AttrValue v;
  v.kind = AttrValue::Kind::kUInt;
  v.u = value;
  std::lock_guard<std::mutex> lock(mu_);
  attrs_.emplace_back(std::string(key), std::move(v));
}

void Span::SetAttr(std::string_view key, double value) {
  AttrValue v;
  v.kind = AttrValue::Kind::kDouble;
  v.d = value;
  std::lock_guard<std::mutex> lock(mu_);
  attrs_.emplace_back(std::string(key), std::move(v));
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  AttrValue v;
  v.kind = AttrValue::Kind::kString;
  v.s = std::string(value);
  std::lock_guard<std::mutex> lock(mu_);
  attrs_.emplace_back(std::string(key), std::move(v));
}

std::optional<AttrValue> Span::FindAttr(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = attrs_.rbegin(); it != attrs_.rend(); ++it) {
    if (it->first == key) return it->second;
  }
  return std::nullopt;
}

std::vector<const Span*> Span::children() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Span*> out;
  out.reserve(children_.size());
  for (const auto& child : children_) out.push_back(child.get());
  return out;
}

const Span* Span::FindDescendant(std::string_view name) const {
  for (const Span* child : children()) {
    if (child->name() == name) return child;
    if (const Span* found = child->FindDescendant(name)) return found;
  }
  return nullptr;
}

void Span::SetTimesForTest(int64_t start_nanos, int64_t end_nanos) {
  start_nanos_ = start_nanos;
  end_nanos_.store(end_nanos, std::memory_order_release);
}

void Span::WriteJson(json::Writer* writer, bool include_timing) const {
  writer->BeginObject();
  writer->Key("name").String(name_);
  if (include_timing) {
    writer->Key("duration_ms").Double(duration_nanos() / 1e6);
  }
  std::vector<std::pair<std::string, AttrValue>> attrs;
  std::vector<const Span*> kids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attrs = attrs_;
    for (const auto& child : children_) kids.push_back(child.get());
  }
  if (!attrs.empty()) {
    writer->Key("attrs").BeginObject();
    for (const auto& [key, value] : attrs) {
      writer->Key(key);
      switch (value.kind) {
        case AttrValue::Kind::kInt:
          writer->Int(value.i);
          break;
        case AttrValue::Kind::kUInt:
          writer->UInt(value.u);
          break;
        case AttrValue::Kind::kDouble:
          writer->Double(value.d);
          break;
        case AttrValue::Kind::kString:
          writer->String(value.s);
          break;
      }
    }
    writer->EndObject();
  }
  if (!kids.empty()) {
    writer->Key("children").BeginArray();
    for (const Span* child : kids) child->WriteJson(writer, include_timing);
    writer->EndArray();
  }
  writer->EndObject();
}

std::string Span::Render(int indent) const {
  std::string out(indent * 2, ' ');
  out += name_;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "  (%.3f ms)", duration_nanos() / 1e6);
  out += buf;
  std::vector<std::pair<std::string, AttrValue>> attrs;
  std::vector<const Span*> kids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attrs = attrs_;
    for (const auto& child : children_) kids.push_back(child.get());
  }
  if (!attrs.empty()) {
    out += "  [";
    bool first = true;
    for (const auto& [key, value] : attrs) {
      if (!first) out += ", ";
      first = false;
      out += key;
      out += "=";
      out += value.ToDisplayString();
    }
    out += "]";
  }
  out += "\n";
  for (const Span* child : kids) out += child->Render(indent + 1);
  return out;
}

}  // namespace minihive::telemetry
