#include "codec/codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace minihive::codec {

const char* CompressionKindName(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "NONE";
    case CompressionKind::kFastLz:
      return "FASTLZ";
    case CompressionKind::kDeepLz:
      return "DEEPLZ";
  }
  return "UNKNOWN";
}

namespace {

// LZ77 with a byte-oriented token format:
//   token := varint(literal_len) literal_bytes varint(match_len)
//            [varint(distance) if match_len > 0]
// A token with literal_len == 0 and match_len == 0 terminates the stream.
// Minimum match length 4; matches found via a hash table over 4-byte seeds.
// `chain_depth` controls how many previous positions with the same hash are
// tried: 1 gives the fast greedy codec, larger values a deeper search.

constexpr size_t kMinMatch = 4;
constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr uint64_t kMaxDistance = 1 << 20;  // 1 MB window.

inline uint32_t HashSeed(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void LzCompress(std::string_view input, int chain_depth, std::string* out) {
  const char* data = input.data();
  const size_t n = input.size();

  // head[h] = most recent position with hash h (+1; 0 = none).
  // prev[i % window] = previous position with the same hash as position i.
  std::vector<uint32_t> head(kHashSize, 0);
  std::vector<uint32_t> prev(chain_depth > 1 ? n : 0, 0);

  size_t pos = 0;
  size_t literal_start = 0;

  auto emit = [&](size_t match_len, size_t distance) {
    size_t literal_len = pos - literal_start;
    PutVarint64(out, literal_len);
    out->append(data + literal_start, literal_len);
    PutVarint64(out, match_len);
    if (match_len > 0) PutVarint64(out, distance);
  };

  while (pos + kMinMatch <= n) {
    uint32_t h = HashSeed(data + pos);
    uint32_t candidate = head[h];
    size_t best_len = 0;
    size_t best_dist = 0;
    int tries = chain_depth;
    while (candidate != 0 && tries-- > 0) {
      size_t cand_pos = candidate - 1;
      size_t distance = pos - cand_pos;
      if (distance > kMaxDistance) break;
      // Extend the match.
      size_t len = 0;
      size_t limit = n - pos;
      while (len < limit && data[cand_pos + len] == data[pos + len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_dist = distance;
      }
      if (chain_depth > 1 && cand_pos < prev.size()) {
        candidate = prev[cand_pos];
      } else {
        break;
      }
    }
    if (best_len >= kMinMatch) {
      emit(best_len, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      size_t end = pos + best_len;
      size_t step = best_len > 64 ? 8 : 1;
      for (size_t i = pos; i + kMinMatch <= n && i < end; i += step) {
        uint32_t hh = HashSeed(data + i);
        if (chain_depth > 1) prev[i] = head[hh];
        head[hh] = static_cast<uint32_t>(i + 1);
      }
      pos = end;
      literal_start = pos;
    } else {
      if (chain_depth > 1) prev[pos] = head[h];
      head[h] = static_cast<uint32_t>(pos + 1);
      ++pos;
    }
  }
  pos = n;
  if (pos > literal_start) emit(0, 0);  // Flush trailing literals.
}

Status LzDecompress(std::string_view input, std::string* out) {
  minihive::ByteReader reader(input);
  size_t base = out->size();
  while (!reader.AtEnd()) {
    uint64_t literal_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&literal_len));
    std::string_view literals;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(literal_len, &literals));
    out->append(literals.data(), literals.size());
    uint64_t match_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&match_len));
    if (match_len == 0) continue;
    uint64_t distance;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&distance));
    size_t produced = out->size() - base;
    if (distance == 0 || distance > produced) {
      return Status::Corruption("LZ match distance out of range");
    }
    // Byte-by-byte copy: overlapping matches (distance < match_len) encode
    // run-length repetition and must be copied forward.
    size_t from = out->size() - distance;
    for (uint64_t i = 0; i < match_len; ++i) {
      out->push_back((*out)[from + i]);
    }
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes after LZ stream");
  return Status::OK();
}

class LzCodec : public Codec {
 public:
  LzCodec(const char* name, int chain_depth)
      : name_(name), chain_depth_(chain_depth) {}

  const char* name() const override { return name_; }

  Status Compress(std::string_view input, std::string* out) const override {
    LzCompress(input, chain_depth_, out);
    return Status::OK();
  }

  Status Decompress(std::string_view input, std::string* out) const override {
    return LzDecompress(input, out);
  }

 private:
  const char* name_;
  int chain_depth_;
};

}  // namespace

const Codec* GetCodec(CompressionKind kind) {
  static const LzCodec* fast = new LzCodec("FASTLZ", 1);
  static const LzCodec* deep = new LzCodec("DEEPLZ", 32);
  switch (kind) {
    case CompressionKind::kNone:
      return nullptr;
    case CompressionKind::kFastLz:
      return fast;
    case CompressionKind::kDeepLz:
      return deep;
  }
  return nullptr;
}

Status CompressToUnits(const Codec* codec, std::string_view data,
                       size_t unit_size, std::string* out) {
  if (unit_size == 0) return Status::InvalidArgument("unit_size must be > 0");
  size_t pos = 0;
  do {
    size_t n = std::min(unit_size, data.size() - pos);
    std::string_view unit = data.substr(pos, n);
    PutVarint64(out, n);
    if (codec == nullptr) {
      out->push_back(0);
      PutVarint64(out, n);
      out->append(unit.data(), unit.size());
    } else {
      std::string compressed;
      MINIHIVE_RETURN_IF_ERROR(codec->Compress(unit, &compressed));
      if (compressed.size() < n) {
        out->push_back(1);
        PutVarint64(out, compressed.size());
        out->append(compressed);
      } else {
        out->push_back(0);
        PutVarint64(out, n);
        out->append(unit.data(), unit.size());
      }
    }
    pos += n;
  } while (pos < data.size());
  return Status::OK();
}

Status DecompressUnits(const Codec* codec, std::string_view data,
                       std::string* out) {
  minihive::ByteReader reader(data);
  while (!reader.AtEnd()) {
    uint64_t original_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&original_len));
    uint8_t flag;
    MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&flag));
    uint64_t stored_len;
    MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&stored_len));
    std::string_view stored;
    MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(stored_len, &stored));
    if (flag == 0) {
      out->append(stored.data(), stored.size());
    } else {
      if (codec == nullptr) {
        return Status::Corruption("compressed unit but no codec configured");
      }
      size_t before = out->size();
      MINIHIVE_RETURN_IF_ERROR(codec->Decompress(stored, out));
      if (out->size() - before != original_len) {
        return Status::Corruption("unit decompressed to unexpected size");
      }
    }
  }
  return Status::OK();
}

Status ViewUnits(const Codec* codec, std::string_view data,
                 std::string* scratch, std::string_view* view) {
  minihive::ByteReader reader(data);
  uint64_t original_len, stored_len;
  uint8_t flag;
  if (reader.GetVarint64(&original_len).ok() && reader.GetByte(&flag).ok() &&
      flag == 0 && reader.GetVarint64(&stored_len).ok() &&
      stored_len == reader.remaining()) {
    *view = data.substr(reader.position());
    return Status::OK();
  }
  scratch->clear();
  MINIHIVE_RETURN_IF_ERROR(DecompressUnits(codec, data, scratch));
  *view = *scratch;
  return Status::OK();
}

}  // namespace minihive::codec
