#ifndef MINIHIVE_ORC_STREAM_ENCODING_H_
#define MINIHIVE_ORC_STREAM_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace minihive::orc {

/// The four primitive stream encodings of ORC File (paper §4.3):
///  - byte stream: raw bytes, no encoding;
///  - run-length byte stream: runs of identical bytes plus literal lists;
///  - integer stream: run-length + delta encoding chosen per sub-sequence;
///  - bit-field stream: one bit per boolean, backed by a run-length byte
///    stream.
///
/// Encoders are used per index group: MiniHive restarts every encoder at an
/// index-group boundary, so a row index position is simply a byte offset
/// (see DESIGN.md for the tradeoff versus ORC's sub-positions).
///
/// Decoders hand out many values per call (`NextBatch`): a run token is one
/// fill loop, a literal list one loop over a raw byte cursor (byte literals:
/// one bounds check and one copy per token). A token may span calls. A
/// Status is made per call or on corruption, never per value.

/// Run-length byte encoding (ORC's ByteRunLength): control byte 0..127
/// means a run of (control + 3) copies of the next byte; control byte
/// -1..-128 (as int8) means that many literal bytes follow.
class RunLengthByteEncoder {
 public:
  void Add(uint8_t value);
  /// Flushes pending state and appends the encoded bytes to *out.
  void Finish(std::string* out);

 private:
  void FlushLiterals(std::string* out);
  void FlushRun(std::string* out);

  std::string buffer_;            // Encoded output so far.
  std::vector<uint8_t> literals_; // Pending literal bytes (<= 128).
  uint8_t run_value_ = 0;
  int run_length_ = 0;            // Pending run (>= 1 means run_value_ valid).
};

class RunLengthByteDecoder {
 public:
  explicit RunLengthByteDecoder(std::string_view data)
      : pos_(reinterpret_cast<const uint8_t*>(data.data())),
        end_(pos_ + data.size()) {}
  /// Decodes the next `n` values into out[0, n); fails if fewer remain.
  Status NextBatch(uint8_t* out, size_t n);
  /// True when all encoded values have been consumed.
  bool AtEnd() const { return pending_ == 0 && pos_ == end_; }

 private:
  const uint8_t* pos_;
  const uint8_t* end_;
  int pending_ = 0;  // Values remaining in the current run/literal list.
  bool in_run_ = false;
  uint8_t run_value_ = 0;
  const uint8_t* literals_ = nullptr;  // Next byte of the literal list.
};

/// Integer run-length encoding (ORC RLEv1-style): a run header byte
/// 0..127 encodes (length-3, so runs of 3..130) followed by a signed int8
/// delta and a varint-signed base value — covering both constant runs
/// (delta 0) and arithmetic sequences (delta encoding). A negative header
/// -n introduces n literal varint-signed values (n in 1..128).
class IntRleEncoder {
 public:
  void Add(int64_t value);
  void Finish(std::string* out);

 private:
  void FlushLiterals(std::string* out);
  void FlushRun(std::string* out);

  std::string buffer_;
  std::vector<int64_t> pending_;  // Prefix of an undecided sequence.
  bool in_run_ = false;
  int64_t run_base_ = 0;
  int64_t run_delta_ = 0;
  int run_length_ = 0;
};

class IntRleDecoder {
 public:
  explicit IntRleDecoder(std::string_view data)
      : pos_(reinterpret_cast<const uint8_t*>(data.data())),
        end_(pos_ + data.size()) {}
  /// Decodes the next `n` values into out[0, n); fails if fewer remain.
  Status NextBatch(int64_t* out, size_t n);
  bool AtEnd() const { return pending_ == 0 && pos_ == end_; }

 private:
  Status ReadHeader();

  const uint8_t* pos_;
  const uint8_t* end_;
  int pending_ = 0;
  bool in_run_ = false;
  int64_t run_value_ = 0;
  int64_t run_delta_ = 0;
};

/// Bit-field stream: booleans packed 8 per byte (MSB first), the byte
/// sequence then run-length-byte encoded. The value count is not stored and
/// must be known by the caller (MiniHive records it in the row index).
class BitFieldEncoder {
 public:
  void Add(bool value);
  void Finish(std::string* out);
  uint64_t count() const { return count_; }

 private:
  RunLengthByteEncoder bytes_;
  uint8_t current_ = 0;
  int bits_in_current_ = 0;
  uint64_t count_ = 0;
};

class BitFieldDecoder {
 public:
  explicit BitFieldDecoder(std::string_view data) : bytes_(data) {}
  /// Decodes the next `n` booleans into out[0, n) as 0/1 bytes.
  Status NextBatch(uint8_t* out, size_t n);
  /// Discards pending bits of the current byte. Called at index-group
  /// boundaries when decoding a concatenated stream sequentially, because
  /// the encoder pads each group to a byte boundary.
  void AlignToByte() { bits_left_ = 0; }

 private:
  RunLengthByteDecoder bytes_;
  uint8_t current_ = 0;
  int bits_left_ = 0;
};

}  // namespace minihive::orc

#endif  // MINIHIVE_ORC_STREAM_ENCODING_H_
