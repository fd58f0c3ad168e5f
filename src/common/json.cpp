#include "common/json.hpp"

#include <charconv>
#include <cstdio>
#include <limits>

namespace esteem {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// End of the number token starting at `pos` (JSON grammar, or an optional
/// '-' before "inf"/"nan"); npos when no well-formed token starts there.
std::size_t number_end(std::string_view s, std::size_t pos) {
  std::size_t i = pos;
  if (i < s.size() && s[i] == '-') ++i;
  if (s.substr(i, 3) == "inf" || s.substr(i, 3) == "nan") return i + 3;
  auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && is_digit(s[i])) ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return std::string_view::npos;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return std::string_view::npos;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return std::string_view::npos;
  }
  return i;
}

/// UTF-8 encoding of a Basic Multilingual Plane code point.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Recursive-descent reader; failures unwind to parse() as Failure.
class Reader {
 public:
  struct Failure {};

  explicit Reader(std::string_view s) : s_(s) {}

  json::Value document() {
    json::Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

  std::size_t pos() const noexcept { return pos_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  [[noreturn]] void fail(std::string why) {
    reason_ = std::move(why);
    throw Failure{};
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// Consumes the ',' or `close` after a member or element; true at `close`.
  bool closes(char close) {
    if (peek() == ',') {
      ++pos_;
      return false;
    }
    expect(close);
    return true;
  }

  json::Value value(std::size_t depth) {
    using Kind = json::Value::Kind;
    const char c = peek();
    json::Value v;
    if (c == '{' || c == '[') {
      if (depth >= json::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(json::kMaxDepth) + " levels");
      }
      ++pos_;
      v.kind = c == '{' ? Kind::Object : Kind::Array;
      const char close = c == '{' ? '}' : ']';
      if (peek() == close) {
        ++pos_;
        return v;
      }
      do {
        if (v.kind == Kind::Object) {
          std::string key = string();
          expect(':');
          v.members.emplace_back(std::move(key), value(depth + 1));
        } else {
          v.items.push_back(value(depth + 1));
        }
      } while (!closes(close));
      return v;
    }
    if (c == '"') {
      v.kind = Kind::String;
      v.text = string();
      return v;
    }
    const std::size_t end = number_end(s_, pos_);
    if (end == std::string_view::npos) {
      fail(c == '-' || is_digit(c) ? "malformed number" : "expected a value");
    }
    v.kind = Kind::Number;
    v.text = s_.substr(pos_, end - pos_);
    pos_ = end;
    return v;
  }

  std::uint32_t hex4() {
    if (pos_ + 4 > s_.size()) fail("malformed \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      std::uint32_t nib = 0;
      if (is_digit(h)) nib = static_cast<std::uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') nib = static_cast<std::uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') nib = static_cast<std::uint32_t>(h - 'A' + 10);
      else fail("malformed \\u escape");
      cp = (cp << 4) | nib;
    }
    return cp;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Plain bytes are appended a run at a time (journal payloads are
      // long hex strings).
      const std::size_t run = pos_;
      while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\' &&
             static_cast<unsigned char>(s_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(s_.substr(run, pos_ - run));
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("control byte in string");
      if (pos_ >= s_.size()) fail("unterminated escape");
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const std::uint32_t cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("unsupported escape");
          append_utf8(out, cp);
          break;
        }
        default: fail("unsupported escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string reason_;
};

}  // namespace

std::string fmt_f64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string scrub(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '_';
  }
  return out;
}

bool to_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (!is_digit(c)) return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool to_i64(std::string_view s, std::int64_t& out) {
  const bool neg = !s.empty() && s[0] == '-';
  std::uint64_t mag = 0;
  if (!to_u64(neg ? s.substr(1) : s, mag)) return false;
  const auto limit = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (mag > limit + (neg ? 1 : 0)) return false;
  out = neg ? static_cast<std::int64_t>(0 - mag) : static_cast<std::int64_t>(mag);
  return true;
}

bool to_f64(std::string_view s, double& out) {
  if (s.empty() || number_end(s, 0) != s.size()) return false;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

namespace json {

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Value> parse(std::string_view text, ParseError* error) {
  Reader reader(text);
  try {
    return reader.document();
  } catch (const Reader::Failure&) {
    if (error != nullptr) *error = {reader.pos(), reader.reason()};
    return std::nullopt;
  }
}

}  // namespace json
}  // namespace esteem
