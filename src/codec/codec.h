#ifndef MINIHIVE_CODEC_CODEC_H_
#define MINIHIVE_CODEC_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace minihive::codec {

/// General-purpose compression choices. The paper's ORC supports ZLIB,
/// Snappy and LZO; offline we implement our own LZ77 family:
///   kFastLz — greedy single-probe matcher, Snappy-like speed/ratio point.
///   kDeepLz — same format, chained match search, ZLIB-like ratio point.
enum class CompressionKind {
  kNone,
  kFastLz,
  kDeepLz,
};

const char* CompressionKindName(CompressionKind kind);

/// A block codec. Thread-safe (stateless).
class Codec {
 public:
  virtual ~Codec() = default;
  virtual const char* name() const = 0;
  /// Appends the compressed form of `input` to *out.
  virtual Status Compress(std::string_view input, std::string* out) const = 0;
  /// Appends the decompressed form of `input` to *out.
  virtual Status Decompress(std::string_view input, std::string* out) const = 0;
};

/// Returns the singleton codec for `kind`, or nullptr for kNone.
const Codec* GetCodec(CompressionKind kind);

/// Compression-unit framing (paper §4.3: a general-purpose codec compresses
/// a stream as multiple small units; default unit size 256 KB). Each unit is
/// stored as: varint original_len, flag byte (1=compressed, 0=stored),
/// varint stored_len, bytes. Incompressible units are stored raw.
Status CompressToUnits(const Codec* codec, std::string_view data,
                       size_t unit_size, std::string* out);

/// Inverse of CompressToUnits. `codec` may be nullptr only if every unit is
/// stored raw.
Status DecompressUnits(const Codec* codec, std::string_view data,
                       std::string* out);

/// The bytes DecompressUnits would produce, without copying stored bytes:
/// when `data` is exactly one stored (flag 0) unit, *view points into
/// `data`; otherwise `data` is decompressed into *scratch (cleared first)
/// and *view points there.
Status ViewUnits(const Codec* codec, std::string_view data,
                 std::string* scratch, std::string_view* view);

/// Default compression-unit size (256 KB, the paper's default).
inline constexpr size_t kDefaultCompressionUnitSize = 256 * 1024;

}  // namespace minihive::codec

#endif  // MINIHIVE_CODEC_CODEC_H_
