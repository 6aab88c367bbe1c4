#include "mr/shuffle_record.h"

#include <cmath>
#include <cstring>
#include <functional>

#include "common/bytes.h"
#include "serde/serde.h"

namespace minihive::mr {

namespace {

enum KeyMarker : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kArray = 4,
  kMap = 5,
  kStruct = 6,
  kUnion = 7,
};
constexpr uint8_t kLastMarker = kUnion;
constexpr uint64_t kSignBit = 1ULL << 63;

/// Inverts out[start..] (a descending column).
void InvertFrom(std::string* out, size_t start, bool ascending) {
  if (ascending) return;
  for (size_t i = start; i < out->size(); ++i) (*out)[i] = ~(*out)[i];
}

void PutMarkedBigEndian(std::string* out, uint8_t marker, uint64_t u) {
  char buf[9];
  buf[0] = static_cast<char>(marker);
  for (int i = 0; i < 8; ++i) buf[1 + i] = static_cast<char>(u >> (56 - 8 * i));
  out->append(buf, sizeof(buf));
}

uint64_t OrderedDoubleBits(double d) {
  uint64_t bits;
  if (std::isnan(d)) {
    bits = 0x7ff8000000000000ULL;  // One NaN, above +inf.
  } else {
    if (d == 0) d = 0.0;  // -0.0 == 0.0.
    std::memcpy(&bits, &d, sizeof(bits));
  }
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

void AppendStringBody(std::string* out, std::string_view v) {
  out->push_back(static_cast<char>(kString));
  size_t run = 0;  // Start of the bytes not yet copied.
  for (size_t i = 0; i < v.size(); ++i) {
    const auto b = static_cast<uint8_t>(v[i]);
    if (b < 2) {
      out->append(v.data() + run, i - run);
      out->push_back(1);
      out->push_back(static_cast<char>(b + 1));
      run = i + 1;
    }
  }
  out->append(v.data() + run, v.size() - run);
  out->push_back(0);
}

/// Ascending encoding of any value, by its own kind.
void AppendAscending(std::string* out, const Value& v) {
  if (v.is_null()) {
    out->push_back(static_cast<char>(kNull));
  } else if (v.is_int()) {
    PutMarkedBigEndian(out, kInt, static_cast<uint64_t>(v.AsInt()) ^ kSignBit);
  } else if (v.is_double()) {
    PutMarkedBigEndian(out, kDouble, OrderedDoubleBits(v.AsDouble()));
  } else if (v.is_string()) {
    AppendStringBody(out, v.AsString());
  } else if (v.is_union()) {
    out->push_back(static_cast<char>(kUnion));
    PutMarkedBigEndian(out, kInt,
                       static_cast<uint64_t>(static_cast<int64_t>(
                           v.AsUnion().tag)) ^
                           kSignBit);
    AppendAscending(out, v.AsUnion().value);
  } else {
    auto element = [out](const Value& e) {
      out->push_back(1);
      AppendAscending(out, e);
    };
    if (v.is_array()) {
      out->push_back(static_cast<char>(kArray));
      for (const Value& e : v.AsArray()) element(e);
    } else if (v.is_map()) {
      out->push_back(static_cast<char>(kMap));
      for (const auto& [k, e] : v.AsMap()) {
        element(k);
        AppendAscending(out, e);
      }
    } else {
      out->push_back(static_cast<char>(kStruct));
      for (const Value& e : v.AsStruct()) element(e);
    }
    out->push_back(0);
  }
}

/// Reads one column's bytes, un-inverting a descending column.
class KeyReader {
 public:
  explicit KeyReader(std::string_view key)
      : p_(reinterpret_cast<const uint8_t*>(key.data())),
        end_(p_ + key.size()) {}

  bool AtEnd() const { return p_ == end_; }
  void set_mask(uint8_t mask) { mask_ = mask; }

  Status Byte(uint8_t* b) {
    if (p_ == end_) return Status::Corruption("truncated shuffle key");
    *b = *p_++ ^ mask_;
    return Status::OK();
  }

  Status BigEndian(uint64_t* u) {
    if (end_ - p_ < 8) return Status::Corruption("truncated shuffle key");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | (p_[i] ^ mask_);
    p_ += 8;
    *u = v;
    return Status::OK();
  }

  Status Marker(uint8_t* marker) {
    MINIHIVE_RETURN_IF_ERROR(Byte(marker));
    if (*marker > kLastMarker) {
      return Status::Corruption("bad shuffle key marker");
    }
    return Status::OK();
  }

  /// The next byte as stored (a column's first byte tells its direction).
  uint8_t PeekRaw() const { return *p_; }

  Status Read(Value* v);

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  uint8_t mask_ = 0;
};

Status KeyReader::Read(Value* v) {
  uint8_t marker = 0;
  MINIHIVE_RETURN_IF_ERROR(Marker(&marker));
  switch (marker) {
    case kNull:
      *v = Value::Null();
      return Status::OK();
    case kInt: {
      uint64_t u = 0;
      MINIHIVE_RETURN_IF_ERROR(BigEndian(&u));
      *v = Value::Int(static_cast<int64_t>(u ^ kSignBit));
      return Status::OK();
    }
    case kDouble: {
      uint64_t u = 0;
      MINIHIVE_RETURN_IF_ERROR(BigEndian(&u));
      uint64_t bits = (u & kSignBit) != 0 ? u & ~kSignBit : ~u;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *v = Value::Double(d);
      return Status::OK();
    }
    case kString: {
      std::string s;
      while (true) {
        uint8_t b = 0;
        MINIHIVE_RETURN_IF_ERROR(Byte(&b));
        if (b == 0) break;
        if (b == 1) {
          MINIHIVE_RETURN_IF_ERROR(Byte(&b));
          if (b != 1 && b != 2) {
            return Status::Corruption("bad shuffle key string escape");
          }
          b -= 1;
        }
        s.push_back(static_cast<char>(b));
      }
      *v = Value::String(std::move(s));
      return Status::OK();
    }
    case kUnion: {
      uint8_t int_marker = 0;
      uint64_t u = 0;
      MINIHIVE_RETURN_IF_ERROR(Marker(&int_marker));
      if (int_marker != kInt) return Status::Corruption("bad union tag");
      MINIHIVE_RETURN_IF_ERROR(BigEndian(&u));
      Value inner;
      MINIHIVE_RETURN_IF_ERROR(Read(&inner));
      *v = Value::MakeUnion(static_cast<int>(static_cast<int64_t>(u ^ kSignBit)),
                            std::move(inner));
      return Status::OK();
    }
    default: {
      // Array, map or struct: elements until the 00 terminator.
      std::vector<Value> elements;
      Value::MapEntries entries;
      while (true) {
        uint8_t more = 0;
        MINIHIVE_RETURN_IF_ERROR(Byte(&more));
        if (more == 0) break;
        if (more != 1) return Status::Corruption("bad shuffle key element");
        Value e;
        MINIHIVE_RETURN_IF_ERROR(Read(&e));
        if (marker == kMap) {
          Value mapped;
          MINIHIVE_RETURN_IF_ERROR(Read(&mapped));
          entries.emplace_back(std::move(e), std::move(mapped));
        } else {
          elements.push_back(std::move(e));
        }
      }
      *v = marker == kArray  ? Value::MakeArray(std::move(elements))
           : marker == kMap  ? Value::MakeMap(std::move(entries))
                             : Value::MakeStruct(std::move(elements));
      return Status::OK();
    }
  }
}

}  // namespace

void AppendKeyNull(std::string* out, bool ascending) {
  out->push_back(static_cast<char>(ascending ? kNull : ~kNull));
}

void AppendKeyInt(std::string* out, int64_t v, bool ascending) {
  const uint64_t mask = ascending ? 0 : ~0ULL;
  PutMarkedBigEndian(out, static_cast<uint8_t>(kInt ^ mask),
                     (static_cast<uint64_t>(v) ^ kSignBit) ^ mask);
}

void AppendKeyDouble(std::string* out, double v, bool ascending) {
  const uint64_t mask = ascending ? 0 : ~0ULL;
  PutMarkedBigEndian(out, static_cast<uint8_t>(kDouble ^ mask),
                     OrderedDoubleBits(v) ^ mask);
}

void AppendKeyString(std::string* out, std::string_view v, bool ascending) {
  const size_t start = out->size();
  AppendStringBody(out, v);
  InvertFrom(out, start, ascending);
}

void AppendKeyValue(std::string* out, const Value& v, TypeKind declared,
                    bool ascending) {
  if (v.is_int() && IsFloatingFamily(declared)) {
    AppendKeyDouble(out, v.AsDouble(), ascending);
    return;
  }
  const size_t start = out->size();
  AppendAscending(out, v);
  InvertFrom(out, start, ascending);
}

std::string EncodeKey(const Row& key, const std::vector<bool>& ascending) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    const size_t start = out.size();
    AppendAscending(&out, key[i]);
    InvertFrom(&out, start, i >= ascending.size() || ascending[i]);
  }
  return out;
}

Status DecodeKey(std::string_view key, Row* out) {
  KeyReader reader(key);
  while (!reader.AtEnd()) {
    // An ascending column starts with a marker in [0, 7], a descending one
    // with its inverse in [0xf8, 0xff].
    reader.set_mask(reader.PeekRaw() > kLastMarker ? 0xff : 0);
    out->emplace_back();
    MINIHIVE_RETURN_IF_ERROR(reader.Read(&out->back()));
  }
  return Status::OK();
}

std::string EncodeValues(const Row& values) {
  std::string out;
  for (const Value& v : values) serde::VariantEncodeValue(v, &out);
  return out;
}

Status DecodeValues(std::string_view bytes, Row* out) {
  ByteReader reader(bytes);
  while (!reader.AtEnd()) {
    out->emplace_back();
    MINIHIVE_RETURN_IF_ERROR(serde::VariantDecodeValue(&reader, &out->back()));
  }
  return Status::OK();
}

int KeyPartition(std::string_view key, int num_partitions) {
  if (num_partitions <= 1) return 0;
  return static_cast<int>(std::hash<std::string_view>()(key) %
                          static_cast<size_t>(num_partitions));
}

}  // namespace minihive::mr
