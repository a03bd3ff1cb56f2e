// The JSON reader: json::Value and json::parse.
//
// This is the reading half of the repo's JSON support — scenario
// files, sweep manifests, campaign plans and store records. Every
// output is written by json::Writer (common/json_writer.h), which can
// also re-serialize a parsed Value. The parser is a small recursive-
// descent one covering the whole of RFC 8259: objects, arrays, strings
// (including \uXXXX escapes and surrogate pairs, decoded to UTF-8),
// numbers, booleans, null.
// Errors throw std::runtime_error with a line/column prefix so a typo
// in a scenario file points at itself.
#pragma once

#include <cctype>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace eio::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps member iteration deterministic (sorted by key).
using Object = std::map<std::string, Value>;

/// One parsed JSON value. A tagged union over the seven JSON kinds
/// (numbers are always double — scenario integers fit exactly).
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : v_(b) {}                // NOLINT(google-explicit-constructor)
  Value(double d) : v_(d) {}              // NOLINT(google-explicit-constructor)
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT
  Value(Array a) : v_(std::move(a)) {}        // NOLINT
  Value(Object o) : v_(std::move(o)) {}       // NOLINT

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  [[nodiscard]] bool as_bool() const { return get<bool>("bool"); }
  [[nodiscard]] double as_number() const { return get<double>("number"); }
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>("string");
  }
  [[nodiscard]] const Array& as_array() const { return get<Array>("array"); }
  [[nodiscard]] const Object& as_object() const { return get<Object>("object"); }

  /// Object member access; throws when absent or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const {
    const Object& o = as_object();
    auto it = o.find(key);
    if (it == o.end()) {
      throw std::runtime_error("json: missing key '" + key + "'");
    }
    return it->second;
  }

  /// True when this is an object containing `key`.
  [[nodiscard]] bool has(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }

  // Typed member lookups with defaults — the scenario-reading idiom.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const {
    return has(key) ? at(key).as_number() : fallback;
  }
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const {
    return has(key) ? at(key).as_bool() : fallback;
  }
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const {
    return has(key) ? at(key).as_string() : fallback;
  }

 private:
  template <typename T>
  [[nodiscard]] const T& get(const char* what) const {
    const T* p = std::get_if<T>(&v_);
    if (p == nullptr) {
      throw std::runtime_error(std::string("json: value is not a ") + what);
    }
    return *p;
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error("json parse error at line " + std::to_string(line) +
                             ", column " + std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      o[std::move(key)] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') return Value(std::move(o));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(a));
    }
    while (true) {
      a.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return Value(std::move(a));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& s, unsigned code) {
    if (code <= 0x7F) {
      s += static_cast<char>(code);
    } else if (code <= 0x7FF) {
      s += static_cast<char>(0xC0 | (code >> 6));
      s += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code <= 0xFFFF) {
      s += static_cast<char>(0xE0 | (code >> 12));
      s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (code >> 18));
      s += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      char c = take();
      if (c == '"') return s;
      if (c == '\\') {
        char e = take();
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            unsigned code = parse_hex4();
            // A high surrogate must be followed by \uDC00..\uDFFF; the
            // pair combines into one supplementary-plane code point.
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (take() != '\\' || take() != 'u') {
                --pos_;
                fail("unpaired high surrogate in \\u escape");
              }
              unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("bad low surrogate in \\u escape");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              fail("unpaired low surrogate in \\u escape");
            }
            append_utf8(s, code);
            break;
          }
          default: --pos_; fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      } else {
        s += c;
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("expected a value");
    }
    std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      double d = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
      return Value(d);
    } catch (const std::exception&) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parse one JSON document from `text`. Throws std::runtime_error with
/// line/column context on malformed input.
[[nodiscard]] inline Value parse(std::string_view text) {
  return detail::Parser(text).parse_document();
}

}  // namespace eio::json
