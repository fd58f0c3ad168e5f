// The one reader for every text record the simulator keeps (golden
// baselines, journal lines, snapshot sidecars, interval series), plus the
// scalar and formatting helpers their writers share.
//
// json::parse is a small strict reader for the JSON those writers emit:
// objects, arrays, strings and numbers (no true/false/null; \u escapes only
// outside the surrogate range). It builds an ordered tree: object members
// keep document order and duplicates, and find() returns the first match.
// Numbers keep their token text, so a counter above 2^53 or a %.17g double
// converts exactly through to_u64/to_i64/to_f64 instead of through an
// intermediate double. Beyond RFC 8259 it accepts only the non-finite
// tokens fmt_f64 prints (inf, -inf, nan, -nan), so every double a writer
// emits reads back. Nesting deeper than kMaxDepth is rejected, so outside
// input cannot exhaust the stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esteem {

/// "%.17g": the printf form every writer uses, exact under to_f64.
std::string fmt_f64(double v);

/// Escapes `s` for use between JSON quotes: '"', '\\', \n, \t and \r by
/// name, every other control byte as \u00XX.
std::string json_escape(std::string_view s);

/// Replaces '"', '\\' and control bytes with '_', for values a line format
/// carries unescaped (snapshot names, journal labels, lease owners).
std::string scrub(std::string_view s);

/// Strict conversions: all of `s` must be the number, with no whitespace,
/// no '+' and no overflow. to_u64 takes decimal digits only; to_i64 also
/// a leading '-'; to_f64 a JSON number or a non-finite token as above.
/// Each returns false and leaves `out` untouched on rejection.
bool to_u64(std::string_view s, std::uint64_t& out);
bool to_i64(std::string_view s, std::int64_t& out);
bool to_f64(std::string_view s, double& out);

namespace json {

inline constexpr std::size_t kMaxDepth = 64;

struct Value {
  enum class Kind { Number, String, Array, Object };

  Kind kind = Kind::Number;
  /// String: the decoded bytes. Number: the token as written.
  std::string text;
  std::vector<Value> items;                            ///< Array elements.
  std::vector<std::pair<std::string, Value>> members;  ///< Object, in order.

  bool is(Kind k) const noexcept { return kind == k; }
  /// First member named `key`; null when absent or not an object.
  const Value* find(std::string_view key) const;
};

struct ParseError {
  std::size_t offset = 0;  ///< Byte where the reader stopped.
  std::string reason;
};

/// Parses one whole document (surrounding whitespace allowed). Returns
/// nullopt on malformed input, with the reason in `*error` when given.
std::optional<Value> parse(std::string_view text, ParseError* error = nullptr);

}  // namespace json
}  // namespace esteem
