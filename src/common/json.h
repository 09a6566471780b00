#ifndef COPYDETECT_COMMON_JSON_H_
#define COPYDETECT_COMMON_JSON_H_

/// \file
/// A small, dependency-free JSON document model — the wire layer of
/// the serving daemon (src/serve/) and the stable Report::ToJson
/// rendering.
///
/// Design constraints the implementation is built around:
///
///  * **Deterministic bytes.** Dump() is canonical for a given value:
///    object members keep insertion order, strings escape the minimal
///    set (`"` `\` and control characters), and numbers render from a
///    stored decimal literal — never re-derived from a double — so a
///    Parse() → Dump() round trip of our own output is byte-identical.
///    The serving recovery smoke byte-compares reports across a
///    daemon restart on exactly this property.
///  * **Lossless integers.** JSON numbers are kept as their literal
///    text. A uint64 counter survives even above 2^53; AsDouble /
///    AsUint64 / AsInt64 convert on access and report range errors.
///  * **Fail closed.** Parse() validates the full grammar (RFC 8259
///    subset: UTF-8, \uXXXX escapes incl. surrogate pairs, no
///    trailing garbage, bounded nesting depth) and returns a Status
///    naming the byte offset of the first error — hostile input on a
///    served socket must never produce UB or a half-parsed value.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace copydetect {

/// One JSON value: null, bool, number, string, array or object.
/// Objects are ordered member lists (insertion order == dump order;
/// lookups are linear — wire messages are small).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructs null.
  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  /// Renders through AppendJsonDouble: the shortest round-trip
  /// decimal in %g spelling; non-finite values render as null (JSON
  /// has no inf/nan).
  static JsonValue Double(double d);
  static JsonValue Int64(int64_t v);
  static JsonValue Uint64(uint64_t v);
  /// A number carrying `literal` verbatim as its rendering. The caller
  /// vouches that it is a valid JSON number token — the parser uses
  /// this to preserve input literals byte-for-byte.
  static JsonValue NumberLiteral(std::string literal);
  static JsonValue Str(std::string_view s);
  static JsonValue Array() { return JsonValue(Kind::kArray); }
  static JsonValue Object() { return JsonValue(Kind::kObject); }
  /// Splices `json` verbatim into Dump() output. The caller vouches
  /// that it is a complete, valid JSON value (used to embed an
  /// already-rendered report into a response envelope without
  /// re-parsing it). Raw values compare and convert as strings.
  static JsonValue Raw(std::string json);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // --- Scalar access (valid only for the matching kind). ---
  bool bool_value() const { return bool_; }
  /// The stored string payload (string kind) or number literal
  /// (number kind).
  const std::string& text() const { return text_; }

  /// Numeric conversions; false when not a number or out of range.
  bool AsDouble(double* out) const;
  bool AsUint64(uint64_t* out) const;
  bool AsInt64(int64_t* out) const;

  // --- Array access. ---
  const std::vector<JsonValue>& items() const { return items_; }
  JsonValue& Append(JsonValue v);

  // --- Object access. ---
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// Appends (or overwrites, keeping position) member `key`. Returns
  /// *this so literals chain: Object().Set("a", ...).Set("b", ...).
  JsonValue& Set(std::string_view key, JsonValue v);
  /// Member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Typed member lookups for wire-message handling: value when the
  // member exists with the right kind, `def` otherwise.
  std::string GetString(std::string_view key,
                        std::string_view def = "") const;
  double GetDouble(std::string_view key, double def) const;
  uint64_t GetUint64(std::string_view key, uint64_t def) const;
  bool GetBool(std::string_view key, bool def) const;

  /// Compact canonical rendering (no whitespace, members in insertion
  /// order, trailing newline NOT included).
  std::string Dump() const;
  void DumpTo(std::string* out) const;

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool raw_ = false;        ///< number/raw: text_ splices verbatim
  std::string text_;        ///< string payload or number literal
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes `s` as the *contents* of a JSON string literal (quotes not
/// added): `"` `\` and control characters only, multi-byte UTF-8
/// passed through.
std::string JsonEscape(std::string_view s);

// Streaming writers for callers that render straight into one string
// instead of building a JsonValue tree (Report::ToJson). JsonValue
// renders through the same two functions, so both paths produce the
// same bytes.

/// Appends `s` as a quoted JSON string literal, escaped as JsonEscape.
void AppendJsonString(std::string_view s, std::string* out);

/// Appends the JSON number literal for `d`: the shortest decimal that
/// round-trips to the same double, in printf %g spelling (the first
/// precision from 1 to 17 whose "%.*g" parses back to `d`), e.g.
/// 0.1 -> "0.1", 100 -> "1e+02", 1e-05 -> "1e-05", -0.0 -> "-0".
/// Non-finite values append null.
void AppendJsonDouble(double d, std::string* out);

/// Parses exactly one JSON value spanning all of `text` (leading and
/// trailing whitespace allowed, anything else after the value is an
/// error). Nesting is limited to 64 levels so hostile input cannot
/// overflow the stack.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace copydetect

#endif  // COPYDETECT_COMMON_JSON_H_
