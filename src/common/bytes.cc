#include "common/bytes.h"

namespace minihive {

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutVarintSigned64(std::string* dst, int64_t value) {
  uint64_t zigzag =
      (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
  PutVarint64(dst, zigzag);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>(value >> (8 * i));
  }
  dst->append(buf, 8);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>(value >> (8 * i));
  }
  dst->append(buf, 4);
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

void PutDoubleBits(std::string* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(dst, bits);
}

Status ByteReader::GetVarint64(uint64_t* value) {
  const uint8_t* begin = reinterpret_cast<const uint8_t*>(data_.data());
  const uint8_t* p = begin + pos_;
  if (const char* error = DecodeVarint64(&p, begin + data_.size(), value)) {
    return Status::Corruption(error);
  }
  pos_ = static_cast<size_t>(p - begin);
  return Status::OK();
}

Status ByteReader::GetVarintSigned64(int64_t* value) {
  uint64_t zigzag;
  MINIHIVE_RETURN_IF_ERROR(GetVarint64(&zigzag));
  *value = ZigzagDecode(zigzag);
  return Status::OK();
}

Status ByteReader::GetFixed64(uint64_t* value) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 8;
  *value = result;
  return Status::OK();
}

Status ByteReader::GetFixed32(uint32_t* value) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  uint32_t result = 0;
  for (int i = 0; i < 4; ++i) {
    result |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 4;
  *value = result;
  return Status::OK();
}

Status ByteReader::GetLengthPrefixed(std::string_view* value) {
  uint64_t length;
  MINIHIVE_RETURN_IF_ERROR(GetVarint64(&length));
  return GetBytes(length, value);
}

Status ByteReader::GetDoubleBits(double* value) {
  uint64_t bits;
  MINIHIVE_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status ByteReader::GetBytes(size_t n, std::string_view* value) {
  if (remaining() < n) return Status::Corruption("truncated byte range");
  *value = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetByte(uint8_t* value) {
  if (remaining() < 1) return Status::Corruption("truncated byte");
  *value = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

}  // namespace minihive
