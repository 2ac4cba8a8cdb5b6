#include "service/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "telemetry/export.hpp"

namespace pcd::service {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  std::optional<JsonValue> parse(JsonError* err) {
    skip_ws();
    JsonValue v;
    if (!value(&v)) return fail(err);
    skip_ws();
    if (pos_ != s_.size()) {
      message_ = "trailing bytes after top-level value";
      return fail(err);
    }
    return v;
  }

 private:
  std::optional<JsonValue> fail(JsonError* err) {
    if (err != nullptr) {
      err->pos = pos_;
      err->message = message_.empty() ? "malformed JSON" : message_;
    }
    return std::nullopt;
  }

  bool value(JsonValue* out) {
    if (pos_ >= s_.size()) {
      message_ = "unexpected end of input";
      return false;
    }
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        std::string str;
        if (!string(&str)) return false;
        *out = JsonValue::of(std::move(str));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue::of(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue::of(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue::null();
        return true;
      default: return number(out);
    }
  }

  // Counts one more level of nesting; false past kJsonMaxDepth, so hostile
  // input cannot recurse the parser (or the DOM's destructor and write())
  // off the stack.  Only successful returns leave a level: a failed parse
  // is abandoned whole.
  bool enter() {
    if (++depth_ <= kJsonMaxDepth) return true;
    message_ = "nesting too deep (limit " + std::to_string(kJsonMaxDepth) + ")";
    return false;
  }

  bool object(JsonValue* out) {
    if (!enter()) return false;
    *out = JsonValue::object();
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) {
        message_ = "expected object key string";
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        message_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      out->set(key, std::move(v));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return true; }
      message_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool array(JsonValue* out) {
    if (!enter()) return false;
    *out = JsonValue::array();
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      out->push(std::move(v));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return true; }
      message_ = "expected ',' or ']' in array";
      return false;
    }
  }

  // Appends the UTF-8 encoding of `cp` to `out`.
  static void utf8_append(std::string* out, std::uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool hex4(std::uint32_t* out) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (pos_ >= s_.size() ||
          !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
        message_ = "expected 4 hex digits after \\u";
        return false;
      }
      const char c = s_[pos_];
      v = (v << 4) | static_cast<std::uint32_t>(
                         c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
    }
    *out = v;
    return true;
  }

  bool string(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) {
        message_ = "raw control character in string";
        return false;
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= s_.size()) {
        message_ = "unterminated escape";
        return false;
      }
      switch (s_[pos_]) {
        case '"': out->push_back('"'); ++pos_; break;
        case '\\': out->push_back('\\'); ++pos_; break;
        case '/': out->push_back('/'); ++pos_; break;
        case 'b': out->push_back('\b'); ++pos_; break;
        case 'f': out->push_back('\f'); ++pos_; break;
        case 'n': out->push_back('\n'); ++pos_; break;
        case 'r': out->push_back('\r'); ++pos_; break;
        case 't': out->push_back('\t'); ++pos_; break;
        case 'u': {
          ++pos_;
          std::uint32_t cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00-\uDFFF.
            if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u') {
              message_ = "lone high surrogate";
              return false;
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              message_ = "invalid low surrogate";
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            message_ = "lone low surrogate";
            return false;
          }
          utf8_append(out, cp);
          break;
        }
        default:
          message_ = "invalid escape character";
          return false;
      }
    }
    message_ = "unterminated string";
    return false;
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    } else {
      message_ = "malformed number";
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        message_ = "digit required after decimal point";
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        message_ = "digit required in exponent";
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    *out = JsonValue::of(std::strtod(s_.c_str() + start, nullptr));
    return true;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) {
      message_ = "malformed literal";
      return false;
    }
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open at pos_
  std::string message_;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& s, JsonError* err) {
  return Parser(s).parse(err);
}

std::string JsonValue::write() const {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return bool_ ? "true" : "false";
    case Type::Number: {
      char buf[40];
      // Shortest decimal that round-trips a double; integers print bare.
      if (num_ == static_cast<double>(static_cast<std::int64_t>(num_)) &&
          num_ > -1e15 && num_ < 1e15) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(static_cast<std::int64_t>(num_)));
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", num_);
      }
      return buf;
    }
    // Quoted strings here are built by appends: `"\"" + std::string&&`
    // trips a false GCC 12 -Wrestrict at -O3.
    case Type::String: {
      std::string out = "\"";
      out += telemetry::json_escape(str_);
      out += '"';
      return out;
    }
    case Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ",";
        out += items_[i].write();
      }
      out += "]";
      return out;
    }
    case Type::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += '"';
        out += telemetry::json_escape(members_[i].first);
        out += "\":";
        out += members_[i].second.write();
      }
      out += "}";
      return out;
    }
  }
  return "null";
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_hex_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 16);
  return end == s.c_str() + 16;
}

}  // namespace pcd::service
