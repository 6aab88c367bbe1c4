#ifndef MINIHIVE_COMMON_TYPES_H_
#define MINIHIVE_COMMON_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace minihive {

/// Logical data types supported by MiniHive. Primitive kinds mirror Hive's
/// common types; complex kinds are decomposed into child columns exactly as
/// the paper's Table 1 describes.
enum class TypeKind {
  kBoolean,
  kTinyInt,
  kSmallInt,
  kInt,
  kBigInt,
  kFloat,
  kDouble,
  kString,
  kTimestamp,
  kArray,
  kMap,
  kStruct,
  kUnion,
};

/// Returns the lowercase Hive-style spelling of `kind` ("bigint", "map", ...).
const char* TypeKindName(TypeKind kind);

/// True for the integer-family kinds that a vectorized LongColumnVector can
/// represent (all integer widths, boolean, and timestamp).
bool IsIntegerFamily(TypeKind kind);

/// True for float/double.
bool IsFloatingFamily(TypeKind kind);

/// True for any primitive (non-complex) kind.
bool IsPrimitive(TypeKind kind);

class TypeDescription;
using TypePtr = std::shared_ptr<TypeDescription>;

/// A node in the column tree of a schema.
///
/// A table schema is a Struct root column (column id 0 in the paper's
/// Figure 3). Complex types own child columns:
///   Array  -> one child (the element column)
///   Map    -> two children (key column, value column)
///   Struct -> one child per field
///   Union  -> one child per variant
/// Only leaf columns carry data values; internal columns carry metadata
/// (lengths, tags, presence), mirroring ORC File's decomposition.
///
/// Column ids are assigned in pre-order by AssignColumnIds(), which matches
/// the paper's example numbering.
class TypeDescription : public std::enable_shared_from_this<TypeDescription> {
 public:
  static TypePtr CreateBoolean() { return Create(TypeKind::kBoolean); }
  static TypePtr CreateTinyInt() { return Create(TypeKind::kTinyInt); }
  static TypePtr CreateSmallInt() { return Create(TypeKind::kSmallInt); }
  static TypePtr CreateInt() { return Create(TypeKind::kInt); }
  static TypePtr CreateBigInt() { return Create(TypeKind::kBigInt); }
  static TypePtr CreateFloat() { return Create(TypeKind::kFloat); }
  static TypePtr CreateDouble() { return Create(TypeKind::kDouble); }
  static TypePtr CreateString() { return Create(TypeKind::kString); }
  static TypePtr CreateTimestamp() { return Create(TypeKind::kTimestamp); }
  static TypePtr CreateArray(TypePtr element);
  static TypePtr CreateMap(TypePtr key, TypePtr value);
  static TypePtr CreateStruct();
  static TypePtr CreateUnion();

  /// Parses a Hive-style type string, e.g.
  ///   "struct<col1:int,col2:array<int>,col9:string>".
  static Result<TypePtr> Parse(std::string_view text);

  /// Appends a field to a Struct or a variant to a Union. Returns *this for
  /// chaining. Aborts if called on a non-struct/union type.
  TypeDescription* AddField(const std::string& name, TypePtr child);

  TypeKind kind() const { return kind_; }
  const std::vector<TypePtr>& children() const { return children_; }
  const std::vector<std::string>& field_names() const { return field_names_; }

  /// Pre-order column id; valid after AssignColumnIds() on the root.
  int column_id() const { return column_id_; }

  /// Assigns pre-order column ids to this subtree starting at `first_id`.
  /// Returns the next unused id.
  int AssignColumnIds(int first_id = 0);

  /// Total number of columns in this subtree (internal + leaf).
  int ColumnCount() const;

  /// Collects all nodes of this subtree in pre-order (column-id order).
  void Flatten(std::vector<const TypeDescription*>* out) const;

  /// Hive-style type string: e.g. "map<string,struct<a:int>>".
  std::string ToString() const;

  /// Structural equality (kinds, arity, and field names).
  bool Equals(const TypeDescription& other) const;

 private:
  explicit TypeDescription(TypeKind kind) : kind_(kind) {}
  static TypePtr Create(TypeKind kind) {
    return TypePtr(new TypeDescription(kind));
  }

  TypeKind kind_;
  std::vector<TypePtr> children_;
  std::vector<std::string> field_names_;  // Struct/Union only.
  int column_id_ = -1;
};

/// Convenience: builds a flat table schema (a Struct root) from parallel
/// name/type lists.
TypePtr MakeTableSchema(const std::vector<std::string>& names,
                        const std::vector<TypePtr>& types);

}  // namespace minihive

#endif  // MINIHIVE_COMMON_TYPES_H_
