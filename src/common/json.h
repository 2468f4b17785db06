// A strict JSON / JSONL reader for the documents this repo itself emits,
// and the string escaper the library's JSON writers share.
//
// The repo produces JSON in several places — PlanReport::json, DRC reports,
// bench --json files, and the write-ahead journal's record payloads — but
// until this header nothing in-repo could *parse* any of it, so a malformed
// emitter could ship silently.  This reader closes that gap and is the
// journal's recovery parser, so it is strict on purpose: RFC 8259 grammar
// only (no trailing commas, no comments, no NaN/Infinity, no unescaped
// control characters, valid UTF-8, full \uXXXX surrogate-pair handling),
// and exactly one value per parse with nothing but whitespace after it.
// Anything else is rejected with a position-carrying error — for the
// journal, "rejected" is the signal that a record is corrupt and everything
// after it must be re-run, so leniency here would be a soundness bug.
//
// Numbers keep their raw lexeme alongside the double value: journal records
// carry uint64 digests and fingerprints that do not survive a double
// round-trip, so asUint64()/asInt64() re-parse the lexeme exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dfv::common {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::kNull; }
  bool isBool() const { return kind_ == Kind::kBool; }
  bool isNumber() const { return kind_ == Kind::kNumber; }
  bool isString() const { return kind_ == Kind::kString; }
  bool isArray() const { return kind_ == Kind::kArray; }
  bool isObject() const { return kind_ == Kind::kObject; }

  bool asBool() const;
  /// The decoded string (escapes resolved, \uXXXX re-encoded as UTF-8).
  const std::string& asString() const;
  /// The raw number lexeme as written (e.g. "1e+06", "18446744073709551615").
  const std::string& numberLexeme() const;
  double asDouble() const;
  /// Strict: the lexeme must be a non-negative integer (no fraction,
  /// exponent or sign) that fits in 64 bits.  Throws CheckError otherwise.
  std::uint64_t asUint64() const;
  /// Strict signed variant (optional leading '-').
  std::int64_t asInt64() const;

  const std::vector<JsonValue>& items() const;  ///< array elements
  /// Object members in document order (duplicate keys are a parse error).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// nullptr when `key` is absent (object only).
  const JsonValue* find(std::string_view key) const;
  /// Throws CheckError when `key` is absent.
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  // string value or number lexeme
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value from `text` (leading/trailing whitespace
/// allowed, anything else after the value is an error).  Returns false and
/// fills `error` (with byte offset) on malformed input; `out` is
/// unspecified then.
bool tryParseJson(std::string_view text, JsonValue& out, std::string& error);

/// Throwing wrapper: CheckError on malformed input.
JsonValue parseJson(std::string_view text);

/// Strict JSONL: every '\n'-terminated line holds exactly one JSON value
/// (a final unterminated line is accepted; empty/whitespace-only lines are
/// an error — a JSONL stream has no blank records).  Throws CheckError with
/// the offending line number on malformed input.
std::vector<JsonValue> parseJsonLines(std::string_view text);

/// Escapes `s` for embedding between the quotes of a JSON string: `"` and
/// `\\`, the \b\f\n\r\t short forms, \u00XX for other control bytes, valid
/// UTF-8 passed through, and U+FFFD (as \ufffd) for each byte of an
/// ill-formed sequence — so every output parses under parseJson and
/// decodes back to the input wherever the input was well-formed.
std::string jsonEscape(std::string_view s);

}  // namespace dfv::common
