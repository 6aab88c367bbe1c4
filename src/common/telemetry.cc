#include "common/telemetry.h"

#include <time.h>

#include <cstdio>

namespace minihive::telemetry {

int64_t MonotonicNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
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
