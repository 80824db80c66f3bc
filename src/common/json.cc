#include "common/json.h"

#include <cstdio>
#include <cstdlib>

namespace treeserver {

void AppendJsonString(std::string* out, std::string_view s) {
  // Short escapes for \b \t \n (\v has none) \f \r, indexed from '\b'.
  static constexpr char kShort[] = "btn?fr";
  out->push_back('"');
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (u >= 0x20) {
      out->push_back(c);
    } else if (u >= '\b' && u <= '\r' && u != '\v') {
      out->push_back('\\');
      out->push_back(kShort[u - '\b']);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(u));
      *out += buf;
    }
  }
  out->push_back('"');
}

class JsonParser {
 public:
  JsonParser(const char* data, size_t size) : p_(data), end_(data + size) {}

  Status ParseDocument(JsonValue* out) {
    SkipWs();
    TS_RETURN_IF_ERROR(ParseValue(out, 0));
    SkipWs();
    if (p_ != end_) return Err("trailing bytes after document");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Err(const char* msg) const {
    return Status::Corruption(std::string("json: ") + msg);
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const char* q = p_;
    for (const char* w = word; *w != '\0'; ++w, ++q) {
      if (q == end_ || *q != *w) return false;
    }
    p_ = q;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeWord("true")) return Err("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Err("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Err("bad literal");
        out->type_ = JsonValue::Type::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++p_;  // '{'
    out->type_ = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Err("expected object key");
      std::string key;
      TS_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      JsonValue value;
      TS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object_.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++p_;  // '['
    out->type_ = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      JsonValue value;
      TS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++p_;  // opening quote
    out->clear();
    while (true) {
      if (p_ == end_) return Err("unterminated string");
      char c = *p_++;
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return Err("unterminated escape");
      char esc = *p_++;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          // AppendJsonString emits \u00XX for control bytes: decode
          // ASCII code points to their byte. Anything wider passes
          // through raw, which keeps foreign input from erroring.
          if (end_ - p_ < 4) return Err("short unicode escape");
          const std::string hex(p_, 4);
          char* hex_end = nullptr;
          const long cp = std::strtol(hex.c_str(), &hex_end, 16);
          if (hex_end == hex.c_str() + 4 && cp >= 0 && cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else {
            out->append("\\u");
            out->append(p_, 4);
          }
          p_ += 4;
          break;
        }
        default:
          return Err("bad escape");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      if (*p_ >= '0' && *p_ <= '9') digits = true;
      ++p_;
    }
    if (!digits) return Err("bad number");
    std::string text(start, p_);
    char* parse_end = nullptr;
    double value = std::strtod(text.c_str(), &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') return Err("bad number");
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  const char* p_;
  const char* end_;
};

Status JsonValue::Parse(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  JsonParser parser(text.data(), text.size());
  return parser.ParseDocument(out);
}

}  // namespace treeserver
