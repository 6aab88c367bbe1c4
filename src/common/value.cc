#include "common/value.h"

#include <cstdlib>

namespace minihive {

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

Value Value::MakeArray(Array elements) {
  return Value(Rep(std::make_shared<Array>(std::move(elements))));
}

Value Value::MakeMap(MapEntries entries) {
  return Value(Rep(std::make_shared<MapEntries>(std::move(entries))));
}

Value Value::MakeStruct(StructFields fields) {
  return Value(Rep(std::make_shared<StructData>(StructData{std::move(fields)})));
}

Value Value::MakeUnion(int tag, Value value) {
  return Value(
      Rep(std::make_shared<UnionValue>(UnionValue{tag, std::move(value)})));
}

int64_t Value::AsInt() const {
  if (is_int()) return std::get<int64_t>(data_);
  if (is_double()) return static_cast<int64_t>(std::get<double>(data_));
  std::abort();
}

double Value::AsDouble() const {
  if (is_double()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
  std::abort();
}

int Value::Compare(const Value& other) const {
  // NULL sorts first, as in Hive's default ordering.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Numeric cross-family comparison.
  bool numeric = is_int() || is_double();
  bool other_numeric = other.is_int() || other.is_double();
  if (numeric && other_numeric) {
    if (is_int() && other.is_int()) {
      int64_t a = std::get<int64_t>(data_);
      int64_t b = std::get<int64_t>(other.data_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  size_t index = data_.index();
  size_t other_index = other.data_.index();
  if (index != other_index) return index < other_index ? -1 : 1;
  if (is_string()) return AsString().compare(other.AsString());
  if (is_array()) {
    const Array& a = AsArray();
    const Array& b = other.AsArray();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_map()) {
    const MapEntries& a = AsMap();
    const MapEntries& b = other.AsMap();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].first.Compare(b[i].first);
      if (c != 0) return c;
      c = a[i].second.Compare(b[i].second);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_struct()) {
    const StructFields& a = AsStruct();
    const StructFields& b = other.AsStruct();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  if (is_union()) {
    const UnionValue& a = AsUnion();
    const UnionValue& b = other.AsUnion();
    if (a.tag != b.tag) return a.tag < b.tag ? -1 : 1;
    return a.value.Compare(b.value);
  }
  return 0;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<int64_t>(data_));
  if (is_double()) {
    std::string s = std::to_string(std::get<double>(data_));
    return s;
  }
  if (is_string()) return AsString();
  std::string result;
  if (is_array()) {
    result = "[";
    const Array& a = AsArray();
    for (size_t i = 0; i < a.size(); ++i) {
      if (i > 0) result += ",";
      result += a[i].ToString();
    }
    result += "]";
  } else if (is_map()) {
    result = "{";
    const MapEntries& m = AsMap();
    for (size_t i = 0; i < m.size(); ++i) {
      if (i > 0) result += ",";
      result += m[i].first.ToString() + ":" + m[i].second.ToString();
    }
    result += "}";
  } else if (is_struct()) {
    result = "(";
    const StructFields& f = AsStruct();
    for (size_t i = 0; i < f.size(); ++i) {
      if (i > 0) result += ",";
      result += f[i].ToString();
    }
    result += ")";
  } else if (is_union()) {
    result = "<" + std::to_string(AsUnion().tag) + ":" +
             AsUnion().value.ToString() + ">";
  }
  return result;
}

}  // namespace minihive
