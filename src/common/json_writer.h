// Deterministic JSON emission — the repo's one JSON writer.
//
// Every JSON and JSONL output goes through json::Writer: the CLI
// --json documents, the campaign store's JSONL records and the fleet
// report, incident logs, obs metrics reports and Chrome traces, fault
// plans, and the BENCH_*.json files. The contract pins three
// properties so consumers — and the byte-for-byte determinism tests —
// can rely on the exact bytes:
//
//   1. fixed key order: keys appear in the order the writer emits
//      them, never sorted behind the caller's back;
//   2. floats as %.9g, non-finite values as null;
//   3. integers as decimal integers (no exponent, no trailing ".0").
//
// Output is always compact. A caller that wants line structure (the
// Chrome trace's one event per line) writes '\n' to the stream
// between elements; JSON allows whitespace there. json::write()
// re-serializes a parsed json::Value through the same Writer (object
// keys come out in json::Object's sorted order, which is itself
// deterministic) so scenario documents survive a parse → patch →
// serialize round trip with reproducible bytes.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace eio::json {

/// Escape and quote a string for JSON output (control characters take
/// the \uXXXX form; input is treated as raw bytes, passed through
/// above 0x1F except for '"' and '\\').
inline void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// The contract's float form: %.9g, with non-finite values (which JSON
/// cannot represent) written as null.
inline void write_double(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out << buf;
}

/// Streaming JSON writer: compact output, keys in call order, commas
/// managed by a begin/end stack. Misuse (value where a key is needed,
/// unbalanced end_*) is a programming error and trips EIO-style
/// asserts only in debug; the writer itself stays branch-light.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  Writer& begin_object() {
    separate();
    out_ << '{';
    stack_.push_back(true);
    return *this;
  }
  Writer& end_object() {
    out_ << '}';
    stack_.pop_back();
    return *this;
  }
  Writer& begin_array() {
    separate();
    out_ << '[';
    stack_.push_back(true);
    return *this;
  }
  Writer& end_array() {
    out_ << ']';
    stack_.pop_back();
    return *this;
  }

  /// Emit an object key; the next value call is its value.
  Writer& key(std::string_view k) {
    separate();
    write_escaped(out_, k);
    out_ << ':';
    pending_value_ = true;
    return *this;
  }

  Writer& value(double v) {
    separate();
    write_double(out_, v);
    return *this;
  }
  Writer& value(std::uint64_t v) {
    separate();
    out_ << v;
    return *this;
  }
  Writer& value(std::int64_t v) {
    separate();
    out_ << v;
    return *this;
  }
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Writer& value(std::string_view v) {
    separate();
    write_escaped(out_, v);
    return *this;
  }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& null() {
    separate();
    out_ << "null";
    return *this;
  }

  // Key + value in one call — the dominant idiom.
  template <typename T>
  Writer& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  /// Emit the comma that precedes every element after the first, but
  /// not after a key (the key already announced the element).
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;
    if (stack_.back()) {
      stack_.back() = false;
    } else {
      out_ << ',';
    }
  }

  std::ostream& out_;
  std::vector<bool> stack_;  ///< one "is first element" flag per level
  bool pending_value_ = false;
};

/// Serialize a parsed Value into `w` (as one value: after a key, as
/// an array element, or at top level): object keys in json::Object's
/// (sorted) iteration order, integral doubles as integers so scenario
/// parameters (tasks, seeds, run counts) round-trip as the integers
/// they are, all other numbers as %.9g.
inline void write(Writer& w, const Value& v) {
  if (v.is_null()) {
    w.null();
  } else if (v.is_bool()) {
    w.value(v.as_bool());
  } else if (v.is_number()) {
    double d = v.as_number();
    if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
      w.value(static_cast<std::int64_t>(d));
    } else {
      w.value(d);
    }
  } else if (v.is_string()) {
    w.value(v.as_string());
  } else if (v.is_array()) {
    w.begin_array();
    for (const Value& e : v.as_array()) write(w, e);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [key, val] : v.as_object()) {
      w.key(key);
      write(w, val);
    }
    w.end_object();
  }
}

/// write() a whole document to a stream.
inline void write(std::ostream& out, const Value& v) {
  Writer w(out);
  write(w, v);
}

/// write() to a string.
[[nodiscard]] inline std::string dump(const Value& v) {
  std::ostringstream os;
  write(os, v);
  return os.str();
}

}  // namespace eio::json
