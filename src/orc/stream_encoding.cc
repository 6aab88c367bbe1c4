#include "orc/stream_encoding.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/wrap_arith.h"

namespace minihive::orc {

namespace {
constexpr int kMinRun = 3;
constexpr int kMaxRun = 130;       // header 0..127 encodes run length 3..130
constexpr int kMaxLiterals = 128;  // header -1..-128
}  // namespace

// ----------------------------------------------------------------------
// RunLengthByte

void RunLengthByteEncoder::Add(uint8_t value) {
  if (run_length_ > 0 && value == run_value_) {
    if (run_length_ < kMaxRun) {
      ++run_length_;
      return;
    }
    FlushRun(&buffer_);
    // Fall through to start a new pending value.
  }
  if (run_length_ > 0) {
    // Previous pending value(s) did not extend into this one.
    FlushRun(&buffer_);
  }
  run_value_ = value;
  run_length_ = 1;
}

void RunLengthByteEncoder::FlushRun(std::string* out) {
  if (run_length_ >= kMinRun) {
    // Pending literals precede the run in value order; emit them first.
    FlushLiterals(out);
    out->push_back(static_cast<char>(run_length_ - kMinRun));
    out->push_back(static_cast<char>(run_value_));
  } else {
    for (int i = 0; i < run_length_; ++i) {
      literals_.push_back(run_value_);
      if (static_cast<int>(literals_.size()) == kMaxLiterals) {
        FlushLiterals(out);
      }
    }
  }
  run_length_ = 0;
}

void RunLengthByteEncoder::FlushLiterals(std::string* out) {
  if (literals_.empty()) return;
  out->push_back(static_cast<char>(-static_cast<int>(literals_.size())));
  out->append(reinterpret_cast<const char*>(literals_.data()),
              literals_.size());
  literals_.clear();
}

void RunLengthByteEncoder::Finish(std::string* out) {
  FlushRun(&buffer_);
  FlushLiterals(&buffer_);
  out->append(buffer_);
  buffer_.clear();
}

Status RunLengthByteDecoder::NextBatch(uint8_t* out, size_t n) {
  while (n > 0) {
    if (pending_ == 0) {
      if (pos_ == end_) return Status::Corruption("truncated byte");
      const int8_t header = static_cast<int8_t>(*pos_++);
      if (header >= 0) {
        if (pos_ == end_) return Status::Corruption("truncated byte");
        in_run_ = true;
        pending_ = header + kMinRun;
        run_value_ = *pos_++;
      } else {
        in_run_ = false;
        pending_ = -header;
        if (end_ - pos_ < pending_) {
          return Status::Corruption("truncated byte range");
        }
        literals_ = pos_;
        pos_ += pending_;
      }
    }
    const size_t take = std::min(static_cast<size_t>(pending_), n);
    if (in_run_) {
      std::memset(out, run_value_, take);
    } else {
      std::memcpy(out, literals_, take);
      literals_ += take;
    }
    out += take;
    n -= take;
    pending_ -= static_cast<int>(take);
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// IntRle

void IntRleEncoder::Add(int64_t value) {
  if (in_run_) {
    int64_t expected = WrapAdd(run_base_, WrapMul(run_delta_, run_length_));
    if (value == expected && run_length_ < kMaxRun) {
      ++run_length_;
      return;
    }
    FlushRun(&buffer_);
  }
  pending_.push_back(value);
  // Detect a run forming at the tail of the pending literals: the last
  // kMinRun values with a common delta in [-128, 127]. This is the paper's
  // "specific encoding schemes determined based on the pattern of a
  // sub-sequence": constant and arithmetic tails become delta runs.
  size_t n = pending_.size();
  if (n >= static_cast<size_t>(kMinRun)) {
    int64_t d1 = WrapSub(pending_[n - 1], pending_[n - 2]);
    int64_t d2 = WrapSub(pending_[n - 2], pending_[n - 3]);
    if (d1 == d2 && d1 >= -128 && d1 <= 127) {
      int64_t base = pending_[n - 3];
      pending_.resize(n - kMinRun);
      FlushLiterals(&buffer_);
      in_run_ = true;
      run_base_ = base;
      run_delta_ = d1;
      run_length_ = kMinRun;
      return;
    }
  }
  if (static_cast<int>(pending_.size()) == kMaxLiterals) {
    FlushLiterals(&buffer_);
  }
}

void IntRleEncoder::FlushRun(std::string* out) {
  if (!in_run_) return;
  out->push_back(static_cast<char>(run_length_ - kMinRun));
  out->push_back(static_cast<char>(static_cast<int8_t>(run_delta_)));
  PutVarintSigned64(out, run_base_);
  in_run_ = false;
  run_length_ = 0;
}

void IntRleEncoder::FlushLiterals(std::string* out) {
  if (pending_.empty()) return;
  out->push_back(static_cast<char>(-static_cast<int>(pending_.size())));
  for (int64_t v : pending_) PutVarintSigned64(out, v);
  pending_.clear();
}

void IntRleEncoder::Finish(std::string* out) {
  FlushRun(&buffer_);
  FlushLiterals(&buffer_);
  out->append(buffer_);
  buffer_.clear();
}

Status IntRleDecoder::ReadHeader() {
  if (pos_ == end_) return Status::Corruption("truncated byte");
  const int8_t header = static_cast<int8_t>(*pos_++);
  if (header < 0) {
    in_run_ = false;
    pending_ = -header;
    return Status::OK();
  }
  if (pos_ == end_) return Status::Corruption("truncated byte");
  run_delta_ = static_cast<int8_t>(*pos_++);
  uint64_t zigzag;
  if (const char* error = DecodeVarint64(&pos_, end_, &zigzag)) {
    return Status::Corruption(error);
  }
  run_value_ = ZigzagDecode(zigzag);
  in_run_ = true;
  pending_ = header + kMinRun;
  return Status::OK();
}

Status IntRleDecoder::NextBatch(int64_t* out, size_t n) {
  while (n > 0) {
    if (pending_ == 0) MINIHIVE_RETURN_IF_ERROR(ReadHeader());
    const size_t take = std::min(static_cast<size_t>(pending_), n);
    if (in_run_) {
      const int64_t base = run_value_;
      for (size_t i = 0; i < take; ++i) {
        out[i] = WrapAdd(base, WrapMul(run_delta_, static_cast<int64_t>(i)));
      }
      run_value_ =
          WrapAdd(base, WrapMul(run_delta_, static_cast<int64_t>(take)));
    } else {
      const uint8_t* p = pos_;
      for (size_t i = 0; i < take; ++i) {
        uint64_t zigzag;
        if (const char* error = DecodeVarint64(&p, end_, &zigzag)) {
          return Status::Corruption(error);
        }
        out[i] = ZigzagDecode(zigzag);
      }
      pos_ = p;
    }
    out += take;
    n -= take;
    pending_ -= static_cast<int>(take);
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// BitField

void BitFieldEncoder::Add(bool value) {
  current_ = static_cast<uint8_t>((current_ << 1) | (value ? 1 : 0));
  ++bits_in_current_;
  ++count_;
  if (bits_in_current_ == 8) {
    bytes_.Add(current_);
    current_ = 0;
    bits_in_current_ = 0;
  }
}

void BitFieldEncoder::Finish(std::string* out) {
  if (bits_in_current_ > 0) {
    current_ = static_cast<uint8_t>(current_ << (8 - bits_in_current_));
    bytes_.Add(current_);
    current_ = 0;
    bits_in_current_ = 0;
  }
  bytes_.Finish(out);
}

Status BitFieldDecoder::NextBatch(uint8_t* out, size_t n) {
  // Bits left in the current byte, then whole bytes a chunk at a time, then
  // the first bits of one more byte.
  auto drain = [&] {
    for (; n > 0 && bits_left_ > 0; --n, --bits_left_) {
      *out++ = current_ >> 7;
      current_ = static_cast<uint8_t>(current_ << 1);
    }
  };
  drain();
  uint8_t packed[256];
  while (n >= 8) {
    const size_t bytes = std::min(n / 8, sizeof(packed));
    MINIHIVE_RETURN_IF_ERROR(bytes_.NextBatch(packed, bytes));
    for (size_t j = 0; j < bytes; ++j, out += 8) {
      for (int t = 0; t < 8; ++t) out[t] = (packed[j] >> (7 - t)) & 1;
    }
    n -= bytes * 8;
  }
  if (n > 0) {
    MINIHIVE_RETURN_IF_ERROR(bytes_.NextBatch(&current_, 1));
    bits_left_ = 8;
    drain();
  }
  return Status::OK();
}

}  // namespace minihive::orc
