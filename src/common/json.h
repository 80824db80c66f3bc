#ifndef TREESERVER_COMMON_JSON_H_
#define TREESERVER_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace treeserver {

/// Appends `s` to `out` as a quoted JSON string. Escapes '"', '\\' and
/// every byte below 0x20 (\n \r \t \b \f in short form, the rest as
/// \u00XX); other bytes pass through. Every string from outside the
/// program (model names, trace names, lane labels) that lands in a
/// JSON document goes through here.
void AppendJsonString(std::string* out, std::string_view s);

/// Minimal recursive-descent JSON value/parser, enough to consume the
/// system's own output (trace files, /statusz) without an external
/// dependency. Numbers are held as double; \u00XX escapes below 0x80
/// decode to their byte, other \uXXXX sequences pass through verbatim.
class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }
  const std::map<std::string, JsonValue>& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
  }
  /// Convenience: numeric member or `fallback`.
  double NumberOr(const std::string& key, double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_number() ? v->as_number() : fallback;
  }
  /// Convenience: string member or `fallback`.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_string() ? v->as_string() : fallback;
  }

  /// Parses `text` (entire buffer must be one JSON document, modulo
  /// surrounding whitespace).
  static Status Parse(const std::string& text, JsonValue* out);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace treeserver

#endif  // TREESERVER_COMMON_JSON_H_
