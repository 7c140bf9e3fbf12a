//===- io/Json.h - Minimal JSON value, parser and writer --------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the problem/table file formats
/// (src/io/TableIO, src/io/ProblemIO) and the `morpheus serve` wire lines
/// (src/net/Protocol). The subset we need is parse, navigate and
/// pretty-print, so we own it rather than take a dependency. Numbers are
/// doubles (matching the num cell type); object key order is preserved so
/// written files are stable.
///
/// It sits on the serve cache-hit path, where a request line is parsed and
/// a response line written per request, so both directions avoid per-byte
/// and per-node overhead:
///  - The reader is a recursive descent that parses each value straight
///    into its slot in the parent container, copies string runs between
///    escapes in bulk, and converts numbers with std::from_chars on the
///    text with strtod semantics (overflow gives +/-inf, underflow a
///    denormal or +/-0). \uXXXX escapes decode to UTF-8, a surrogate pair
///    to one code point.
///  - The writer appends into one std::string, copies unescaped runs in
///    bulk, and formats numbers with std::to_chars: integral values below
///    1e15 as "%.0f", others as the shortest "%.15g".."%.17g" that parses
///    back exactly. The bytes are pinned by tests/IoTest.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_IO_JSON_H
#define MORPHEUS_IO_JSON_H

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace morpheus {

/// One JSON value; a tree of these represents a document.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool V);
  static JsonValue number(double V);
  static JsonValue string(std::string V);
  static JsonValue array(std::vector<JsonValue> V = {});
  static JsonValue object();

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(std::string_view Key) const;

  /// Appends/overwrites an object member (keeps first-set order).
  void set(std::string Key, JsonValue V);

  /// Serializes the value. \p Indent > 0 pretty-prints with that many
  /// spaces per level; 0 emits a compact single line.
  std::string dump(unsigned Indent = 0) const;
};

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// On failure returns nullopt and, when \p Err is non-null, stores a
/// message with the byte offset of the problem.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Err = nullptr);

} // namespace morpheus

#endif // MORPHEUS_IO_JSON_H
