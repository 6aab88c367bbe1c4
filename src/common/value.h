#ifndef MINIHIVE_COMMON_VALUE_H_
#define MINIHIVE_COMMON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace minihive {

class Value;

/// Row is the unit of data in the one-row-at-a-time execution model:
/// one Value per top-level column.
using Row = std::vector<Value>;

/// A dynamically typed value used by the row-mode engine, SerDes, and the
/// catalog. Supports NULL, the primitive families (integers collapse to
/// int64, floats to double), strings, and the complex types of Table 1.
///
/// The row-mode engine's per-value boxing and virtual-ish dispatch is
/// deliberately preserved: it is the baseline whose CPU overhead the
/// vectorized engine (src/vec) eliminates.
class Value {
 public:
  struct UnionValue;
  using Array = std::vector<Value>;
  using MapEntries = std::vector<std::pair<Value, Value>>;
  using StructFields = std::vector<Value>;
  /// Distinct wrapper so the variant can tell a struct from an array (both
  /// are vectors of Value).
  struct StructData {
    StructFields fields;
  };

  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    return Value(std::in_place_type<int64_t>, static_cast<int64_t>(v));
  }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Double(double v) {
    return Value(std::in_place_type<double>, v);
  }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value MakeArray(Array elements);
  static Value MakeMap(MapEntries entries);
  static Value MakeStruct(StructFields fields);
  static Value MakeUnion(int tag, Value value);

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<Array>>(data_);
  }
  bool is_map() const {
    return std::holds_alternative<std::shared_ptr<MapEntries>>(data_);
  }
  bool is_struct() const {
    return std::holds_alternative<std::shared_ptr<StructData>>(data_);
  }
  bool is_union() const {
    return std::holds_alternative<std::shared_ptr<UnionValue>>(data_);
  }

  /// Numeric accessors; AsInt/AsDouble coerce between the two numeric
  /// families, mirroring Hive's implicit numeric conversions.
  int64_t AsInt() const;
  double AsDouble() const;
  bool AsBool() const { return AsInt() != 0; }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  const Array& AsArray() const {
    return *std::get<std::shared_ptr<Array>>(data_);
  }
  const MapEntries& AsMap() const {
    return *std::get<std::shared_ptr<MapEntries>>(data_);
  }
  const StructFields& AsStruct() const {
    return std::get<std::shared_ptr<StructData>>(data_)->fields;
  }
  const UnionValue& AsUnion() const {
    return *std::get<std::shared_ptr<UnionValue>>(data_);
  }

  /// Total ordering: NULL first, then by value. Numeric kinds compare
  /// numerically across int/double. The shuffle's key bytes
  /// (mr/shuffle_record.h) sort the same way.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hive-CLI-style rendering ("NULL", "3", "1.5", "abc", "[1,2]", ...).
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string,
                           std::shared_ptr<Array>, std::shared_ptr<MapEntries>,
                           std::shared_ptr<StructData>,
                           std::shared_ptr<UnionValue>>;
  explicit Value(Rep data) : data_(std::move(data)) {}
  // Builds the alternative in place: going through a temporary Rep makes
  // GCC's -Wmaybe-uninitialized misread the moved-from variant's string.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : data_(type, std::forward<Arg>(arg)) {}

  Rep data_;
};

/// A union value: the active variant index plus its value. Defined outside
/// Value because it embeds a Value by value.
struct Value::UnionValue {
  int tag;
  Value value;
};


}  // namespace minihive

#endif  // MINIHIVE_COMMON_VALUE_H_
