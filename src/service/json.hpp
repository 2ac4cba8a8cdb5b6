// Strict JSON (RFC 8259 subset, no extensions) for the campaign service's
// wire protocol: a small DOM, a recursive-descent parser that validates the
// whole grammar (not just brace balance), and a writer whose output always
// round-trips through the parser.
//
// This is the grown-up home of the strict validator test_telemetry.cpp
// introduced for the Chrome/Perfetto exports: the server, the pcd_client
// CLI, the result cache, and the exporter tests all share one
// implementation, so "parses here" means "parses everywhere".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pcd::service {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue of(bool b) {
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
  }
  static JsonValue of(double d) {
    JsonValue v;
    v.type_ = Type::Number;
    v.num_ = d;
    return v;
  }
  static JsonValue of(std::int64_t i) { return of(static_cast<double>(i)); }
  static JsonValue of(int i) { return of(static_cast<double>(i)); }
  static JsonValue of(std::string s) {
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
  }
  static JsonValue of(const char* s) { return of(std::string(s)); }
  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::Object;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }

  // Array access.
  std::vector<JsonValue>& items() { return items_; }
  const std::vector<JsonValue>& items() const { return items_; }
  JsonValue& push(JsonValue v) {
    items_.push_back(std::move(v));
    return items_.back();
  }

  // Object access (insertion-ordered).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// Null when absent (or not an object).
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// Appends or replaces.
  JsonValue& set(const std::string& key, JsonValue v) {
    for (auto& [k, existing] : members_) {
      if (k == key) {
        existing = std::move(v);
        return existing;
      }
    }
    members_.emplace_back(key, std::move(v));
    return members_.back().second;
  }

  // Typed lookups with defaults, for tolerant request parsing.
  double num_or(const std::string& key, double def) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_number() ? v->num_ : def;
  }
  std::int64_t int_or(const std::string& key, std::int64_t def) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_number() ? static_cast<std::int64_t>(v->num_) : def;
  }
  bool bool_or(const std::string& key, bool def) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_bool() ? v->bool_ : def;
  }
  std::string str_or(const std::string& key, std::string def) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_string() ? v->str_ : def;
  }

  /// Compact serialization (no whitespace); always re-parses strictly.
  std::string write() const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonError {
  std::size_t pos = 0;      // byte offset of the first violation
  std::string message;
};

/// Strict parse of the ENTIRE input (trailing non-whitespace is an error).
/// Escapes are decoded (\uXXXX to UTF-8, surrogate pairs combined; a lone
/// surrogate is a violation).  Returns nullopt and fills `err` on failure.
std::optional<JsonValue> json_parse(const std::string& s, JsonError* err = nullptr);

/// Exact double round-trip helpers: C99 hex-float text (`%a`), used where
/// bit-identical persistence matters (the result cache).  parse_hex_double
/// returns false on malformed input.
std::string hex_double(double v);
bool parse_hex_double(const std::string& s, double* out);

}  // namespace pcd::service
