#ifndef MINIHIVE_COMMON_BYTES_H_
#define MINIHIVE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace minihive {

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a zigzag-encoded signed varint.
void PutVarintSigned64(std::string* dst, int64_t value);

/// Appends a fixed little-endian 8-byte value.
void PutFixed64(std::string* dst, uint64_t value);

/// Appends a fixed little-endian 4-byte value.
void PutFixed32(std::string* dst, uint32_t value);

/// Appends a length-prefixed (varint) string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Appends the raw bits of a double (little-endian).
void PutDoubleBits(std::string* dst, double value);

/// Decodes one unsigned LEB128 varint at *pos without reading at or past
/// `end`, and at most 10 bytes long. On success advances *pos and returns
/// null; otherwise returns the corruption message. ByteReader and the ORC
/// stream decoders share this one loop.
inline const char* DecodeVarint64(const uint8_t** pos, const uint8_t* end,
                                  uint64_t* value) {
  const uint8_t* p = *pos;
  uint64_t result = 0;
  for (int shift = 0;; shift += 7) {
    if (p == end) return "truncated varint64";
    const uint8_t byte = *p++;
    if (shift >= 64) return "varint64 too long";
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) break;
  }
  *pos = p;
  *value = result;
  return nullptr;
}

/// The signed value of a zigzag-encoded varint.
inline int64_t ZigzagDecode(uint64_t zigzag) {
  return static_cast<int64_t>(zigzag >> 1) ^ -static_cast<int64_t>(zigzag & 1);
}

/// Cursor for decoding the encodings above. All Get* methods return an error
/// Status on truncation/corruption rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status GetVarint64(uint64_t* value);
  Status GetVarintSigned64(int64_t* value);
  Status GetFixed64(uint64_t* value);
  Status GetFixed32(uint32_t* value);
  Status GetLengthPrefixed(std::string_view* value);
  Status GetDoubleBits(double* value);
  Status GetBytes(size_t n, std::string_view* value);
  Status GetByte(uint8_t* value);

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_BYTES_H_
