#ifndef MINIHIVE_COMMON_JSON_H_
#define MINIHIVE_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace minihive::json {

/// Escapes `in` per RFC 8259 (quotes, backslash, control characters) without
/// the surrounding quotes.
std::string Escape(std::string_view in);

/// Hand-rolled streaming JSON writer producing stable, pretty-printed output
/// (2-space indent, keys in caller order). This is the single serialization
/// path for telemetry snapshots, trace spans and BENCH_*.json records, so
/// golden tests and the CI regression checker see one schema.
///
/// Usage:
///   Writer w;
///   w.BeginObject();
///   w.Key("name").String("x");
///   w.Key("items").BeginArray().Int(1).Int(2).EndArray();
///   w.EndObject();
///   w.str();  // the document
///
/// The writer does not validate nesting exhaustively, but asserts the
/// object/array stack is balanced in str().
class Writer {
 public:
  Writer& BeginObject();
  Writer& EndObject();
  Writer& BeginArray();
  Writer& EndArray();

  /// Starts a key inside an object; must be followed by exactly one value.
  Writer& Key(std::string_view key);

  Writer& String(std::string_view value);
  Writer& Int(int64_t value);
  Writer& UInt(uint64_t value);
  /// Doubles print via shortest round-trip ("%.17g" trimmed); NaN/Inf are
  /// not representable in JSON and serialize as null.
  Writer& Double(double value);
  Writer& Bool(bool value);
  Writer& Null();


  /// The finished document. Asserts all containers were closed.
  const std::string& str() const;

 private:
  void BeforeValue();
  void Indent();

  enum class Frame : uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
};

}  // namespace minihive::json

#endif  // MINIHIVE_COMMON_JSON_H_
