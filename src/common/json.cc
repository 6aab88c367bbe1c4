#include "common/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace minihive::json {

std::string Escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (unsigned char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

Writer& Writer::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  needs_comma_ = false;
  return *this;
}

Writer& Writer::EndObject() {
  assert(!stack_.empty() && stack_.back() == Frame::kObject);
  stack_.pop_back();
  if (needs_comma_) {  // The object had at least one member.
    out_ += '\n';
    Indent();
  }
  out_ += '}';
  needs_comma_ = true;
  return *this;
}

Writer& Writer::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  needs_comma_ = false;
  return *this;
}

Writer& Writer::EndArray() {
  assert(!stack_.empty() && stack_.back() == Frame::kArray);
  stack_.pop_back();
  if (needs_comma_) {
    out_ += '\n';
    Indent();
  }
  out_ += ']';
  needs_comma_ = true;
  return *this;
}

Writer& Writer::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back() == Frame::kObject);
  if (needs_comma_) out_ += ',';
  out_ += '\n';
  Indent();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\": ";
  needs_comma_ = false;
  after_key_ = true;
  return *this;
}

Writer& Writer::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  return *this;
}

Writer& Writer::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

Writer& Writer::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

Writer& Writer::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  out_ += buf;
  // Keep the value visibly floating-point ("3" -> "3.0").
  if (std::string_view(buf).find_first_of(".eE") == std::string_view::npos) {
    out_ += ".0";
  }
  return *this;
}

Writer& Writer::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

Writer& Writer::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

const std::string& Writer::str() const {
  assert(stack_.empty());
  return out_;
}

void Writer::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    needs_comma_ = true;  // The enclosing object member is now complete.
    return;
  }
  if (!stack_.empty() && stack_.back() == Frame::kArray) {
    if (needs_comma_) out_ += ',';
    out_ += '\n';
    Indent();
  }
  needs_comma_ = true;
}

void Writer::Indent() {
  out_.append(stack_.size() * 2, ' ');
}

}  // namespace minihive::json
