#include "serde/serde.h"

#include <charconv>
#include <cstdlib>

#include "common/bytes.h"

namespace minihive::serde {

namespace {

constexpr std::string_view kNullText = "\\N";

/// Separator for a nesting depth: depth 0 separates top-level fields.
char Separator(int depth) { return static_cast<char>(1 + depth); }

/// Splits `text` on `sep`, invoking fn(piece) for each piece.
template <typename Fn>
void Split(std::string_view text, char sep, Fn fn) {
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      fn(text.substr(start));
      return;
    }
    fn(text.substr(start, pos - start));
    start = pos + 1;
  }
}

Status ParsePrimitive(std::string_view text, TypeKind kind, Value* value) {
  switch (kind) {
    case TypeKind::kBoolean: {
      *value = Value::Bool(text == "true" || text == "1");
      return Status::OK();
    }
    case TypeKind::kTinyInt:
    case TypeKind::kSmallInt:
    case TypeKind::kInt:
    case TypeKind::kBigInt:
    case TypeKind::kTimestamp: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::Corruption("bad integer literal: '" + std::string(text) +
                                  "'");
      }
      *value = Value::Int(v);
      return Status::OK();
    }
    case TypeKind::kFloat:
    case TypeKind::kDouble: {
      // std::from_chars for double is available in libstdc++ >= 11.
      double v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::Corruption("bad double literal: '" + std::string(text) +
                                  "'");
      }
      *value = Value::Double(v);
      return Status::OK();
    }
    case TypeKind::kString: {
      *value = Value::String(std::string(text));
      return Status::OK();
    }
    default:
      return Status::Internal("ParsePrimitive on complex type");
  }
}

void FormatPrimitive(const Value& value, TypeKind kind, std::string* out) {
  switch (kind) {
    case TypeKind::kBoolean:
      out->append(value.AsBool() ? "true" : "false");
      return;
    case TypeKind::kFloat:
    case TypeKind::kDouble: {
      char buf[32];
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value.AsDouble());
      (void)ec;
      out->append(buf, ptr - buf);
      return;
    }
    case TypeKind::kString:
      out->append(value.AsString());
      return;
    default:
      out->append(std::to_string(value.AsInt()));
      return;
  }
}

}  // namespace

TextSerDe::TextSerDe(TypePtr schema) : schema_(std::move(schema)) {}

Status TextSerDe::Serialize(const Row& row, std::string* out) const {
  const auto& fields = schema_->children();
  if (row.size() != fields.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out->push_back(Separator(0));
    MINIHIVE_RETURN_IF_ERROR(TextEncodeValue(row[i], *fields[i], 1, out));
  }
  return Status::OK();
}

Status TextEncodeValue(const Value& value, const TypeDescription& type,
                       int depth, std::string* out) {
  if (value.is_null()) {
    out->append(kNullText);
    return Status::OK();
  }
  switch (type.kind()) {
    case TypeKind::kArray: {
      const Value::Array& elements = value.AsArray();
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out->push_back(Separator(depth));
        MINIHIVE_RETURN_IF_ERROR(
            TextEncodeValue(elements[i], *type.children()[0], depth + 1, out));
      }
      return Status::OK();
    }
    case TypeKind::kMap: {
      const Value::MapEntries& entries = value.AsMap();
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i > 0) out->push_back(Separator(depth));
        MINIHIVE_RETURN_IF_ERROR(TextEncodeValue(entries[i].first,
                                                *type.children()[0], depth + 2,
                                                out));
        out->push_back(Separator(depth + 1));
        MINIHIVE_RETURN_IF_ERROR(TextEncodeValue(entries[i].second,
                                                *type.children()[1], depth + 2,
                                                out));
      }
      return Status::OK();
    }
    case TypeKind::kStruct: {
      const Value::StructFields& fields = value.AsStruct();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out->push_back(Separator(depth));
        MINIHIVE_RETURN_IF_ERROR(
            TextEncodeValue(fields[i], *type.children()[i], depth + 1, out));
      }
      return Status::OK();
    }
    case TypeKind::kUnion: {
      const Value::UnionValue& u = value.AsUnion();
      out->append(std::to_string(u.tag));
      out->push_back(Separator(depth));
      return TextEncodeValue(u.value, *type.children()[u.tag], depth + 1, out);
    }
    default:
      FormatPrimitive(value, type.kind(), out);
      return Status::OK();
  }
}

Status TextSerDe::Deserialize(std::string_view line,
                              const std::vector<int>& projected,
                              Row* row) const {
  const auto& fields = schema_->children();
  row->assign(fields.size(), Value::Null());
  std::vector<uint8_t> wanted(fields.size(), projected.empty() ? 1 : 0);
  for (int col : projected) {
    if (col < 0 || static_cast<size_t>(col) >= fields.size()) {
      return Status::InvalidArgument("projected column out of range");
    }
    wanted[col] = 1;
  }
  size_t index = 0;
  Status status;
  Split(line, Separator(0), [&](std::string_view piece) {
    if (!status.ok() || index >= fields.size()) {
      ++index;
      return;
    }
    if (wanted[index]) {
      // Lazy: only projected fields pay the parse cost.
      Status s = TextDecodeValue(piece, *fields[index], 1, &(*row)[index]);
      if (!s.ok()) status = s;
    }
    ++index;
  });
  return status;
}

Status TextDecodeValue(std::string_view text, const TypeDescription& type,
                       int depth, Value* value) {
  if (text == kNullText) {
    *value = Value::Null();
    return Status::OK();
  }
  switch (type.kind()) {
    case TypeKind::kArray: {
      Value::Array elements;
      Status status;
      if (!text.empty()) {
        Split(text, Separator(depth), [&](std::string_view piece) {
          if (!status.ok()) return;
          Value element;
          Status s =
              TextDecodeValue(piece, *type.children()[0], depth + 1, &element);
          if (!s.ok()) {
            status = s;
            return;
          }
          elements.push_back(std::move(element));
        });
      }
      MINIHIVE_RETURN_IF_ERROR(status);
      *value = Value::MakeArray(std::move(elements));
      return Status::OK();
    }
    case TypeKind::kMap: {
      Value::MapEntries entries;
      Status status;
      if (!text.empty()) {
        Split(text, Separator(depth), [&](std::string_view piece) {
          if (!status.ok()) return;
          size_t sep = piece.find(Separator(depth + 1));
          if (sep == std::string_view::npos) {
            status = Status::Corruption("map entry missing key separator");
            return;
          }
          Value key, val;
          Status s = TextDecodeValue(piece.substr(0, sep), *type.children()[0],
                                      depth + 2, &key);
          if (s.ok()) {
            s = TextDecodeValue(piece.substr(sep + 1), *type.children()[1],
                                 depth + 2, &val);
          }
          if (!s.ok()) {
            status = s;
            return;
          }
          entries.emplace_back(std::move(key), std::move(val));
        });
      }
      MINIHIVE_RETURN_IF_ERROR(status);
      *value = Value::MakeMap(std::move(entries));
      return Status::OK();
    }
    case TypeKind::kStruct: {
      Value::StructFields fields;
      Status status;
      size_t index = 0;
      Split(text, Separator(depth), [&](std::string_view piece) {
        if (!status.ok() || index >= type.children().size()) {
          ++index;
          return;
        }
        Value field;
        Status s =
            TextDecodeValue(piece, *type.children()[index], depth + 1, &field);
        if (!s.ok()) {
          status = s;
          return;
        }
        fields.push_back(std::move(field));
        ++index;
      });
      MINIHIVE_RETURN_IF_ERROR(status);
      while (fields.size() < type.children().size()) {
        fields.push_back(Value::Null());
      }
      *value = Value::MakeStruct(std::move(fields));
      return Status::OK();
    }
    case TypeKind::kUnion: {
      size_t sep = text.find(Separator(depth));
      if (sep == std::string_view::npos) {
        return Status::Corruption("union missing tag separator");
      }
      int tag = std::atoi(std::string(text.substr(0, sep)).c_str());
      if (tag < 0 || static_cast<size_t>(tag) >= type.children().size()) {
        return Status::Corruption("union tag out of range");
      }
      Value inner;
      MINIHIVE_RETURN_IF_ERROR(TextDecodeValue(
          text.substr(sep + 1), *type.children()[tag], depth + 1, &inner));
      *value = Value::MakeUnion(tag, std::move(inner));
      return Status::OK();
    }
    default:
      return ParsePrimitive(text, type.kind(), value);
  }
}

BinarySerDe::BinarySerDe(TypePtr schema) : schema_(std::move(schema)) {}

Status BinarySerDe::Serialize(const Row& row, std::string* out) const {
  const auto& fields = schema_->children();
  if (row.size() != fields.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    MINIHIVE_RETURN_IF_ERROR(SerializeValue(row[i], *fields[i], out));
  }
  return Status::OK();
}

Status BinarySerDe::SerializeValue(const Value& value,
                                   const TypeDescription& type,
                                   std::string* out) const {
  if (value.is_null()) {
    out->push_back(0);
    return Status::OK();
  }
  out->push_back(1);
  switch (type.kind()) {
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      PutDoubleBits(out, value.AsDouble());
      return Status::OK();
    case TypeKind::kString:
      PutLengthPrefixed(out, value.AsString());
      return Status::OK();
    case TypeKind::kArray: {
      const Value::Array& elements = value.AsArray();
      PutVarint64(out, elements.size());
      for (const Value& e : elements) {
        MINIHIVE_RETURN_IF_ERROR(SerializeValue(e, *type.children()[0], out));
      }
      return Status::OK();
    }
    case TypeKind::kMap: {
      const Value::MapEntries& entries = value.AsMap();
      PutVarint64(out, entries.size());
      for (const auto& [k, v] : entries) {
        MINIHIVE_RETURN_IF_ERROR(SerializeValue(k, *type.children()[0], out));
        MINIHIVE_RETURN_IF_ERROR(SerializeValue(v, *type.children()[1], out));
      }
      return Status::OK();
    }
    case TypeKind::kStruct: {
      const Value::StructFields& fields = value.AsStruct();
      for (size_t i = 0; i < type.children().size(); ++i) {
        const Value& field = i < fields.size() ? fields[i] : Value::Null();
        MINIHIVE_RETURN_IF_ERROR(SerializeValue(field, *type.children()[i], out));
      }
      return Status::OK();
    }
    case TypeKind::kUnion: {
      const Value::UnionValue& u = value.AsUnion();
      PutVarint64(out, static_cast<uint64_t>(u.tag));
      return SerializeValue(u.value, *type.children()[u.tag], out);
    }
    default:
      PutVarintSigned64(out, value.AsInt());
      return Status::OK();
  }
}

Status BinarySerDe::Deserialize(std::string_view data,
                                const std::vector<int>& projected,
                                Row* row) const {
  const auto& fields = schema_->children();
  row->assign(fields.size(), Value::Null());
  std::vector<uint8_t> wanted(fields.size(), projected.empty() ? 1 : 0);
  for (int col : projected) {
    if (col < 0 || static_cast<size_t>(col) >= fields.size()) {
      return Status::InvalidArgument("projected column out of range");
    }
    wanted[col] = 1;
  }
  ByteReader reader(data);
  for (size_t i = 0; i < fields.size(); ++i) {
    MINIHIVE_RETURN_IF_ERROR(
        DeserializeValue(&reader, *fields[i], wanted[i], &(*row)[i]));
  }
  return Status::OK();
}

Status BinarySerDe::DeserializeValue(ByteReader* reader,
                                     const TypeDescription& type,
                                     bool materialize, Value* value) const {
  uint8_t present;
  MINIHIVE_RETURN_IF_ERROR(reader->GetByte(&present));
  if (present == 0) {
    *value = Value::Null();
    return Status::OK();
  }
  switch (type.kind()) {
    case TypeKind::kFloat:
    case TypeKind::kDouble: {
      double v;
      MINIHIVE_RETURN_IF_ERROR(reader->GetDoubleBits(&v));
      if (materialize) *value = Value::Double(v);
      return Status::OK();
    }
    case TypeKind::kString: {
      std::string_view v;
      MINIHIVE_RETURN_IF_ERROR(reader->GetLengthPrefixed(&v));
      if (materialize) *value = Value::String(std::string(v));
      return Status::OK();
    }
    case TypeKind::kArray: {
      uint64_t n;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&n));
      Value::Array elements;
      if (materialize) elements.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Value element;
        MINIHIVE_RETURN_IF_ERROR(DeserializeValue(reader, *type.children()[0],
                                                  materialize, &element));
        if (materialize) elements.push_back(std::move(element));
      }
      if (materialize) *value = Value::MakeArray(std::move(elements));
      return Status::OK();
    }
    case TypeKind::kMap: {
      uint64_t n;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&n));
      Value::MapEntries entries;
      if (materialize) entries.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Value k, v;
        MINIHIVE_RETURN_IF_ERROR(
            DeserializeValue(reader, *type.children()[0], materialize, &k));
        MINIHIVE_RETURN_IF_ERROR(
            DeserializeValue(reader, *type.children()[1], materialize, &v));
        if (materialize) entries.emplace_back(std::move(k), std::move(v));
      }
      if (materialize) *value = Value::MakeMap(std::move(entries));
      return Status::OK();
    }
    case TypeKind::kStruct: {
      Value::StructFields fields;
      if (materialize) fields.reserve(type.children().size());
      for (const TypePtr& child : type.children()) {
        Value field;
        MINIHIVE_RETURN_IF_ERROR(
            DeserializeValue(reader, *child, materialize, &field));
        if (materialize) fields.push_back(std::move(field));
      }
      if (materialize) *value = Value::MakeStruct(std::move(fields));
      return Status::OK();
    }
    case TypeKind::kUnion: {
      uint64_t tag;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&tag));
      if (tag >= type.children().size()) {
        return Status::Corruption("union tag out of range");
      }
      Value inner;
      MINIHIVE_RETURN_IF_ERROR(
          DeserializeValue(reader, *type.children()[tag], materialize, &inner));
      if (materialize) {
        *value = Value::MakeUnion(static_cast<int>(tag), std::move(inner));
      }
      return Status::OK();
    }
    default: {
      int64_t v;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarintSigned64(&v));
      if (materialize) {
        *value = type.kind() == TypeKind::kBoolean ? Value::Bool(v != 0)
                                                   : Value::Int(v);
      }
      return Status::OK();
    }
  }
}

void VariantEncodeNull(std::string* out) { out->push_back(0); }

void VariantEncodeInt(int64_t v, std::string* out) {
  out->push_back(1);
  PutVarintSigned64(out, v);
}

void VariantEncodeDouble(double v, std::string* out) {
  out->push_back(2);
  PutDoubleBits(out, v);
}

void VariantEncodeString(std::string_view v, std::string* out) {
  out->push_back(3);
  PutLengthPrefixed(out, v);
}

void VariantEncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    VariantEncodeNull(out);
  } else if (v.is_int()) {
    VariantEncodeInt(v.AsInt(), out);
  } else if (v.is_double()) {
    VariantEncodeDouble(v.AsDouble(), out);
  } else if (v.is_string()) {
    VariantEncodeString(v.AsString(), out);
  } else if (v.is_array()) {
    out->push_back(4);
    PutVarint64(out, v.AsArray().size());
    for (const Value& e : v.AsArray()) VariantEncodeValue(e, out);
  } else if (v.is_map()) {
    out->push_back(5);
    PutVarint64(out, v.AsMap().size());
    for (const auto& [k, val] : v.AsMap()) {
      VariantEncodeValue(k, out);
      VariantEncodeValue(val, out);
    }
  } else if (v.is_struct()) {
    out->push_back(6);
    PutVarint64(out, v.AsStruct().size());
    for (const Value& f : v.AsStruct()) VariantEncodeValue(f, out);
  } else {
    out->push_back(7);
    PutVarint64(out, static_cast<uint64_t>(v.AsUnion().tag));
    VariantEncodeValue(v.AsUnion().value, out);
  }
}

Status VariantDecodeValue(ByteReader* reader, Value* v) {
  uint8_t tag;
  MINIHIVE_RETURN_IF_ERROR(reader->GetByte(&tag));
  switch (tag) {
    case 0:
      *v = Value::Null();
      return Status::OK();
    case 1: {
      int64_t i;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarintSigned64(&i));
      *v = Value::Int(i);
      return Status::OK();
    }
    case 2: {
      double d;
      MINIHIVE_RETURN_IF_ERROR(reader->GetDoubleBits(&d));
      *v = Value::Double(d);
      return Status::OK();
    }
    case 3: {
      std::string_view s;
      MINIHIVE_RETURN_IF_ERROR(reader->GetLengthPrefixed(&s));
      *v = Value::String(std::string(s));
      return Status::OK();
    }
    case 4: {
      uint64_t n;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&n));
      Value::Array elements(n);
      for (uint64_t i = 0; i < n; ++i) {
        MINIHIVE_RETURN_IF_ERROR(VariantDecodeValue(reader, &elements[i]));
      }
      *v = Value::MakeArray(std::move(elements));
      return Status::OK();
    }
    case 5: {
      uint64_t n;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&n));
      Value::MapEntries entries(n);
      for (uint64_t i = 0; i < n; ++i) {
        MINIHIVE_RETURN_IF_ERROR(VariantDecodeValue(reader, &entries[i].first));
        MINIHIVE_RETURN_IF_ERROR(
            VariantDecodeValue(reader, &entries[i].second));
      }
      *v = Value::MakeMap(std::move(entries));
      return Status::OK();
    }
    case 6: {
      uint64_t n;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&n));
      Value::StructFields fields(n);
      for (uint64_t i = 0; i < n; ++i) {
        MINIHIVE_RETURN_IF_ERROR(VariantDecodeValue(reader, &fields[i]));
      }
      *v = Value::MakeStruct(std::move(fields));
      return Status::OK();
    }
    case 7: {
      uint64_t union_tag;
      MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&union_tag));
      Value inner;
      MINIHIVE_RETURN_IF_ERROR(VariantDecodeValue(reader, &inner));
      *v = Value::MakeUnion(static_cast<int>(union_tag), std::move(inner));
      return Status::OK();
    }
    default:
      return Status::Corruption("bad variant type tag");
  }
}

void VariantEncodeRow(const Row& row, std::string* out) {
  PutVarint64(out, row.size());
  for (const Value& v : row) VariantEncodeValue(v, out);
}

Status VariantDecodeRow(std::string_view data, Row* row) {
  ByteReader reader(data);
  uint64_t n;
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&n));
  row->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    MINIHIVE_RETURN_IF_ERROR(VariantDecodeValue(&reader, &(*row)[i]));
  }
  return Status::OK();
}

}  // namespace minihive::serde
