#include "orc/layout.h"

#include <algorithm>

namespace minihive::orc {

namespace {

/// Reads a count of entries that take at least `min_bytes` each, bounded
/// by the bytes left: a damaged count never sizes an allocation.
Status GetCount(ByteReader* reader, uint64_t min_bytes, uint64_t* count) {
  MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(count));
  if (*count > reader->remaining() / min_bytes) {
    return Status::Corruption("ORC entry count exceeds its section");
  }
  return Status::OK();
}

}  // namespace

void StripeFooter::Serialize(std::string* out) const {
  PutVarint64(out, streams.size());
  for (const StreamInfo& s : streams) {
    PutVarint64(out, s.column);
    out->push_back(static_cast<char>(s.kind));
    PutVarint64(out, s.length);
    PutFixed32(out, s.crc);
  }
  PutVarint64(out, encodings.size());
  for (size_t c = 0; c < encodings.size(); ++c) {
    out->push_back(static_cast<char>(encodings[c]));
    PutVarint64(out, dictionary_sizes[c]);
  }
  PutVarint64(out, num_groups);
  for (size_t c = 0; c < encodings.size(); ++c) {
    for (uint32_t g = 0; g < num_groups; ++g) {
      PutVarint64(out, instance_counts[c][g]);
      PutVarint64(out, nonnull_counts[c][g]);
    }
  }
}

Status StripeFooter::Deserialize(std::string_view data, StripeFooter* footer) {
  *footer = StripeFooter();
  ByteReader reader(data);
  uint64_t num_streams;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 7, &num_streams));
  footer->streams.resize(num_streams);
  for (StreamInfo& s : footer->streams) {
    uint64_t column;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&column));
    s.column = static_cast<uint32_t>(column);
    uint8_t kind;
    MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&kind));
    s.kind = static_cast<StreamKind>(kind);
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&s.length));
    MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(&s.crc));
  }
  uint64_t num_columns;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 2, &num_columns));
  footer->encodings.resize(num_columns);
  footer->dictionary_sizes.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    uint8_t encoding;
    MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&encoding));
    footer->encodings[c] = static_cast<ColumnEncoding>(encoding);
    uint64_t dict_size;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&dict_size));
    footer->dictionary_sizes[c] = static_cast<uint32_t>(dict_size);
  }
  uint64_t num_groups;
  MINIHIVE_RETURN_IF_ERROR(
      GetCount(&reader, std::max<uint64_t>(1, 2 * num_columns), &num_groups));
  footer->num_groups = static_cast<uint32_t>(num_groups);
  footer->instance_counts.assign(num_columns,
                                 std::vector<uint64_t>(num_groups, 0));
  footer->nonnull_counts.assign(num_columns,
                                std::vector<uint64_t>(num_groups, 0));
  for (size_t c = 0; c < num_columns; ++c) {
    for (uint64_t g = 0; g < num_groups; ++g) {
      MINIHIVE_RETURN_IF_ERROR(
          reader.GetVarint64(&footer->instance_counts[c][g]));
      MINIHIVE_RETURN_IF_ERROR(
          reader.GetVarint64(&footer->nonnull_counts[c][g]));
    }
  }
  return Status::OK();
}

void StripeIndex::Serialize(std::string* out) const {
  PutVarint64(out, segment_ends.size());
  for (const std::vector<uint64_t>& ends : segment_ends) {
    PutVarint64(out, ends.size());
    uint64_t prev = 0;
    for (uint64_t end : ends) {
      PutVarint64(out, end - prev);  // Delta-encode the offsets.
      prev = end;
    }
  }
  PutVarint64(out, segment_crcs.size());
  for (const std::vector<uint32_t>& crcs : segment_crcs) {
    PutVarint64(out, crcs.size());
    for (uint32_t crc : crcs) {
      PutFixed32(out, crc);
    }
  }
  PutVarint64(out, group_stats.size());
  for (const std::vector<ColumnStatistics>& column : group_stats) {
    PutVarint64(out, column.size());
    for (const ColumnStatistics& stats : column) {
      stats.Serialize(out);
    }
  }
}

Status StripeIndex::Deserialize(std::string_view data, StripeIndex* index) {
  *index = StripeIndex();
  ByteReader reader(data);
  uint64_t num_streams;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 1, &num_streams));
  index->segment_ends.resize(num_streams);
  for (std::vector<uint64_t>& ends : index->segment_ends) {
    uint64_t n;
    MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 1, &n));
    ends.resize(n);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t delta;
      MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&delta));
      prev += delta;
      ends[i] = prev;
    }
  }
  uint64_t num_crc_streams;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 1, &num_crc_streams));
  index->segment_crcs.resize(num_crc_streams);
  for (std::vector<uint32_t>& crcs : index->segment_crcs) {
    uint64_t n;
    MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 4, &n));
    crcs.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(&crcs[i]));
    }
  }
  uint64_t num_columns;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 1, &num_columns));
  index->group_stats.resize(num_columns);
  for (std::vector<ColumnStatistics>& column : index->group_stats) {
    uint64_t n;
    MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 2, &n));
    column.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      MINIHIVE_RETURN_IF_ERROR(
          ColumnStatistics::Deserialize(&reader, &column[i]));
    }
  }
  return Status::OK();
}

void SerializeFileFooter(const FileTail& tail, std::string* out) {
  PutLengthPrefixed(out, tail.schema->ToString());
  PutVarint64(out, tail.num_rows);
  PutVarint64(out, tail.stripes.size());
  for (const StripeInformation& stripe : tail.stripes) {
    PutVarint64(out, stripe.offset);
    PutVarint64(out, stripe.index_length);
    PutVarint64(out, stripe.data_length);
    PutVarint64(out, stripe.footer_length);
    PutVarint64(out, stripe.num_rows);
    PutFixed32(out, stripe.index_crc);
    PutFixed32(out, stripe.footer_crc);
  }
  PutVarint64(out, tail.file_stats.size());
  for (const ColumnStatistics& stats : tail.file_stats) {
    stats.Serialize(out);
  }
}

Status DeserializeFileFooter(std::string_view data, FileTail* tail) {
  ByteReader reader(data);
  std::string_view schema_text;
  MINIHIVE_RETURN_IF_ERROR(reader.GetLengthPrefixed(&schema_text));
  Result<TypePtr> schema = TypeDescription::Parse(schema_text);
  if (!schema.ok()) return Status::Corruption(schema.status().message());
  tail->schema = *std::move(schema);
  tail->schema->AssignColumnIds(0);
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&tail->num_rows));
  uint64_t num_stripes;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 13, &num_stripes));
  tail->stripes.resize(num_stripes);
  for (StripeInformation& stripe : tail->stripes) {
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stripe.offset));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stripe.index_length));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stripe.data_length));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stripe.footer_length));
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stripe.num_rows));
    MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(&stripe.index_crc));
    MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(&stripe.footer_crc));
  }
  uint64_t num_columns;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 2, &num_columns));
  tail->file_stats.resize(num_columns);
  for (ColumnStatistics& stats : tail->file_stats) {
    MINIHIVE_RETURN_IF_ERROR(ColumnStatistics::Deserialize(&reader, &stats));
  }
  return Status::OK();
}

void SerializeFileMetadata(const FileTail& tail, std::string* out) {
  PutVarint64(out, tail.stripe_stats.size());
  for (const std::vector<ColumnStatistics>& stripe : tail.stripe_stats) {
    PutVarint64(out, stripe.size());
    for (const ColumnStatistics& stats : stripe) {
      stats.Serialize(out);
    }
  }
}

Status DeserializeFileMetadata(std::string_view data, FileTail* tail) {
  ByteReader reader(data);
  uint64_t num_stripes;
  MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 1, &num_stripes));
  tail->stripe_stats.resize(num_stripes);
  for (std::vector<ColumnStatistics>& stripe : tail->stripe_stats) {
    uint64_t n;
    MINIHIVE_RETURN_IF_ERROR(GetCount(&reader, 2, &n));
    stripe.resize(n);
    for (ColumnStatistics& stats : stripe) {
      MINIHIVE_RETURN_IF_ERROR(ColumnStatistics::Deserialize(&reader, &stats));
    }
  }
  return Status::OK();
}

std::vector<StreamKind> StreamsForColumn(TypeKind kind, bool has_nulls,
                                         ColumnEncoding encoding) {
  std::vector<StreamKind> result;
  if (has_nulls) result.push_back(StreamKind::kPresent);
  switch (kind) {
    case TypeKind::kBoolean:
    case TypeKind::kTinyInt:
    case TypeKind::kSmallInt:
    case TypeKind::kInt:
    case TypeKind::kBigInt:
    case TypeKind::kTimestamp:
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      result.push_back(StreamKind::kData);
      break;
    case TypeKind::kString:
      if (encoding == ColumnEncoding::kDictionary) {
        result.push_back(StreamKind::kData);  // Dictionary ids.
        result.push_back(StreamKind::kDictionaryData);
        result.push_back(StreamKind::kDictionaryLength);
      } else {
        result.push_back(StreamKind::kData);    // Concatenated bytes.
        result.push_back(StreamKind::kLength);  // Value lengths.
      }
      break;
    case TypeKind::kArray:
    case TypeKind::kMap:
      result.push_back(StreamKind::kLength);
      break;
    case TypeKind::kStruct:
      break;  // Present only.
    case TypeKind::kUnion:
      result.push_back(StreamKind::kData);  // Tags.
      break;
  }
  return result;
}

}  // namespace minihive::orc
