#ifndef MINIHIVE_SERDE_SERDE_H_
#define MINIHIVE_SERDE_SERDE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace minihive::serde {

/// Encodes one value in the Hive text representation at nesting `depth`
/// (top-level column values use depth 1). NULL encodes as "\N". Used by the
/// text SerDe and by RCFile's type-agnostic column buffers.
Status TextEncodeValue(const Value& value, const TypeDescription& type,
                       int depth, std::string* out);

/// Inverse of TextEncodeValue.
Status TextDecodeValue(std::string_view text, const TypeDescription& type,
                       int depth, Value* value);

/// Text SerDe compatible in spirit with Hive's LazySimpleSerDe: one row per
/// line, fields separated by control characters whose code point increases
/// with nesting depth (\x01 fields, \x02 collection items, \x03 map
/// key/value, ...). NULLs render as "\N".
///
/// Deserialization is *lazy at projection granularity*: only the requested
/// top-level columns are parsed into Values; the others are skipped as raw
/// bytes. This reproduces the row-mode engine's lazy-deserialization
/// behaviour that §6 of the paper identifies as a per-row virtual-call cost.
class TextSerDe {
 public:
  explicit TextSerDe(TypePtr schema);

  /// Appends the encoded row (without trailing newline) to *out.
  Status Serialize(const Row& row, std::string* out) const;

  /// Parses `line`. `projected` lists top-level column indexes to
  /// materialize (empty = all); non-projected columns become NULL in *row.
  Status Deserialize(std::string_view line, const std::vector<int>& projected,
                     Row* row) const;

  const TypePtr& schema() const { return schema_; }

 private:
  TypePtr schema_;
};

/// Binary SerDe for SequenceFile values: length-delimited, varint-based,
/// schema-driven encoding of one row. Each value is a null byte followed by
/// the type-specific payload; complex types nest recursively.
class BinarySerDe {
 public:
  explicit BinarySerDe(TypePtr schema);

  Status Serialize(const Row& row, std::string* out) const;
  Status Deserialize(std::string_view data, const std::vector<int>& projected,
                     Row* row) const;

  const TypePtr& schema() const { return schema_; }

 private:
  Status SerializeValue(const Value& value, const TypeDescription& type,
                        std::string* out) const;
  Status DeserializeValue(ByteReader* reader, const TypeDescription& type,
                          bool materialize, Value* value) const;

  TypePtr schema_;
};

/// Self-describing ("variant") value codec: a type tag byte (0 NULL, 1 int,
/// 2 double, 3 string, 4 array, 5 map, 6 struct, 7 union), then a zigzag
/// varint, the 8 double bytes, a length-prefixed string, or a varint count
/// (union: tag) and the nested values. The typed writers let a caller
/// encode a slot without boxing it.
void VariantEncodeValue(const Value& v, std::string* out);
void VariantEncodeNull(std::string* out);
void VariantEncodeInt(int64_t v, std::string* out);
void VariantEncodeDouble(double v, std::string* out);
void VariantEncodeString(std::string_view v, std::string* out);
Status VariantDecodeValue(ByteReader* reader, Value* v);

/// Row form of the variant codec, used for intermediate files between
/// MapReduce jobs, where no table schema exists: a varint column count,
/// then each value.
void VariantEncodeRow(const Row& row, std::string* out);
Status VariantDecodeRow(std::string_view data, Row* row);

}  // namespace minihive::serde

#endif  // MINIHIVE_SERDE_SERDE_H_
