#ifndef MINIHIVE_MR_SHUFFLE_RECORD_H_
#define MINIHIVE_MR_SHUFFLE_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace minihive::mr {

/// The shuffle record's two byte strings (Hive's BinarySortableSerDe plus a
/// compact value codec). A ReduceSink writes both once; the engine sorts,
/// merges, groups and partitions on the key bytes alone and never looks
/// inside the value bytes.
///
/// Key bytes are order-preserving: memcmp order of two keys equals the
/// column-by-column order of their values, each column ascending or
/// descending. Every column is one marker byte, which is the null byte and
/// names the encoding, then the encoding:
///   0 NULL    (nothing follows)
///   1 int64   8 bytes, big-endian, sign bit flipped
///   2 double  8 bytes, big-endian IEEE bits with the sign bit flipped for
///             positives and every bit flipped for negatives; -0.0 is
///             written as 0.0 and every NaN as one NaN that sorts after
///             +inf
///   3 string  the bytes with 0x00 -> 01 01 and 0x01 -> 01 02, then 00
///   4 array / 5 map / 6 struct: each element (map: key then value) as
///             01 + its column encoding, then 00
///   7 union   the tag as an int64, then the value's column encoding
/// A descending column has every byte of it inverted, marker included, so
/// NULL sorts first ascending and last descending. A column's encoding is
/// chosen by its declared type: under a floating-point type an int value
/// is written as a double, so every writer of one key column (row-mode and
/// vectorized ReduceSinks alike) writes one encoding for it. Markers follow
/// Value::Compare's kind order, so keys that never mix int and double in a
/// column sort exactly as Value::Compare orders them (NaN aside: Compare
/// calls it equal to everything).
void AppendKeyNull(std::string* out, bool ascending);
void AppendKeyInt(std::string* out, int64_t v, bool ascending);
void AppendKeyDouble(std::string* out, double v, bool ascending);
void AppendKeyString(std::string* out, std::string_view v, bool ascending);
/// One column from a Value, encoded by `declared` (see above).
void AppendKeyValue(std::string* out, const Value& v, TypeKind declared,
                    bool ascending);
/// Every column of `key` by its value's own kind; `ascending` per column
/// (missing entries are ascending).
std::string EncodeKey(const Row& key, const std::vector<bool>& ascending = {});
/// Appends the columns of `key` to `out`. A descending column decodes by
/// its inverted marker, so no schema is needed.
Status DecodeKey(std::string_view key, Row* out);

/// Value bytes: the values back to back in the self-describing variant
/// codec of intermediate files (serde::VariantEncodeValue): a type byte,
/// then a zigzag varint, 8 double bytes or a length-prefixed string.
std::string EncodeValues(const Row& values);
/// Appends the values of `bytes` to `out`.
Status DecodeValues(std::string_view bytes, Row* out);

/// The reduce partition of a key: a hash of its bytes.
int KeyPartition(std::string_view key, int num_partitions);

}  // namespace minihive::mr

#endif  // MINIHIVE_MR_SHUFFLE_RECORD_H_
