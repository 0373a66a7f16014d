// Lossless wire format for CellResult: the supervisor's forked workers send
// results back over a pipe as one JSON object, and the checkpoint manifest
// journals the same encoding, so a resumed sweep reconstructs bit-identical
// results. The object is the export of sim/json_export.h plus the
// transport-only `trace_text`. Includes the minimal JSON value parser the
// supervisor needs for pipe payloads and manifest lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment.h"

namespace disco::sim::wire {

/// Parsed JSON value (no true, false or null: nothing here writes them).
struct Value {
  enum class Kind : std::uint8_t { Num, Str, Obj, Arr };
  Kind kind = Kind::Num;
  std::string str;  ///< a string's text, or a number's token as written
  std::vector<std::pair<std::string, Value>> obj;  ///< insertion order kept
  std::vector<Value> arr;

  /// Member lookup; null when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Throws std::runtime_error on a number that is not a whole uint64.
  std::uint64_t num_or(std::string_view key, std::uint64_t dflt) const;
  std::string str_or(std::string_view key, std::string_view dflt) const;
};

/// Parse one JSON object. Throws std::runtime_error on malformed input —
/// truncated pipe payloads and torn manifest lines surface as structured
/// cell errors, never UB.
Value parse_object(std::string_view text);

/// Append `s` as a JSON string literal (quotes + escapes) to `out`.
void append_json_string(std::string& out, std::string_view s);

/// Encode a result as one JSON object. Exact: decode_result(parse_object(
/// encode_result(r))) reproduces every field bit-for-bit, given that a gated
/// object's members are at their defaults when its gate is off (as
/// extract_result leaves them).
std::string encode_result(const CellResult& r);

/// Rebuild a result from its wire object. Throws std::runtime_error when a
/// required field is missing, of the wrong kind or not a whole number of its
/// type.
CellResult decode_result(const Value& obj);

}  // namespace disco::sim::wire
