#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace scorpion {

namespace {

/// Recursive-descent parser over a raw character range. Depth-limited so a
/// hostile document cannot blow the stack.
class Parser {
 public:
  Parser(const char* begin, const char* end, const JsonParseLimits& limits)
      : cur_(begin), begin_(begin), end_(end), limits_(limits) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue value;
    SCORPION_RETURN_NOT_OK(ParseValue(&value, /*depth=*/0));
    SkipWhitespace();
    if (cur_ != end_) return Error("trailing characters after JSON document");
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        "JSON parse error at offset " + std::to_string(cur_ - begin_) + ": " +
        message);
  }

  void SkipWhitespace() {
    while (cur_ != end_ && (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' ||
                            *cur_ == '\r')) {
      ++cur_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = std::strlen(literal);
    if (static_cast<size_t>(end_ - cur_) < len) return false;
    if (std::memcmp(cur_, literal, len) != 0) return false;
    cur_ += len;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > limits_.max_depth) return Error("nesting too deep");
    if (limits_.max_nodes != 0 && ++nodes_ > limits_.max_nodes) {
      return Error("document exceeds the node limit (" +
                   std::to_string(limits_.max_nodes) + " values)");
    }
    if (cur_ == end_) return Error("unexpected end of input");
    switch (*cur_) {
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        *out = JsonValue::Null();
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        *out = JsonValue::Bool(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(JsonValue* out) {
    const char* start = cur_;
    if (cur_ != end_ && *cur_ == '-') ++cur_;
    // JSON forbids leading zeros, leading '+', bare '.', and "Infinity".
    if (cur_ == end_ || !std::isdigit(static_cast<unsigned char>(*cur_))) {
      return Error("invalid number");
    }
    if (*cur_ == '0') {
      ++cur_;
    } else {
      while (cur_ != end_ && std::isdigit(static_cast<unsigned char>(*cur_))) {
        ++cur_;
      }
    }
    if (cur_ != end_ && *cur_ == '.') {
      ++cur_;
      if (cur_ == end_ || !std::isdigit(static_cast<unsigned char>(*cur_))) {
        return Error("digit expected after decimal point");
      }
      while (cur_ != end_ && std::isdigit(static_cast<unsigned char>(*cur_))) {
        ++cur_;
      }
    }
    if (cur_ != end_ && (*cur_ == 'e' || *cur_ == 'E')) {
      ++cur_;
      if (cur_ != end_ && (*cur_ == '+' || *cur_ == '-')) ++cur_;
      if (cur_ == end_ || !std::isdigit(static_cast<unsigned char>(*cur_))) {
        return Error("digit expected in exponent");
      }
      while (cur_ != end_ && std::isdigit(static_cast<unsigned char>(*cur_))) {
        ++cur_;
      }
    }
    std::string token(start, cur_);
    char* parse_end = nullptr;
    double value = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) {
      return Error("invalid number");
    }
    if (!std::isfinite(value)) return Error("number out of range");
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    if (end_ - cur_ < 4) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char ch = *cur_++;
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<uint32_t>(ch - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    *out = code;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseString(JsonValue* out) {
    ++cur_;  // opening quote
    std::string s;
    while (true) {
      if (cur_ == end_) return Error("unterminated string");
      char ch = *cur_++;
      if (ch == '"') break;
      if (static_cast<unsigned char>(ch) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (ch != '\\') {
        s.push_back(ch);
        continue;
      }
      if (cur_ == end_) return Error("unterminated escape");
      char esc = *cur_++;
      switch (esc) {
        case '"': s.push_back('"'); break;
        case '\\': s.push_back('\\'); break;
        case '/': s.push_back('/'); break;
        case 'b': s.push_back('\b'); break;
        case 'f': s.push_back('\f'); break;
        case 'n': s.push_back('\n'); break;
        case 'r': s.push_back('\r'); break;
        case 't': s.push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          SCORPION_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {  // surrogate pair
            if (end_ - cur_ < 2 || cur_[0] != '\\' || cur_[1] != 'u') {
              return Error("unpaired surrogate");
            }
            cur_ += 2;
            uint32_t low = 0;
            SCORPION_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(&s, code);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    *out = JsonValue::String(std::move(s));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++cur_;  // '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (cur_ != end_ && *cur_ == ']') {
      ++cur_;
      *out = std::move(array);
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      JsonValue item;
      SCORPION_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      array.Append(std::move(item));
      SkipWhitespace();
      if (cur_ == end_) return Error("unterminated array");
      if (*cur_ == ',') {
        ++cur_;
        continue;
      }
      if (*cur_ == ']') {
        ++cur_;
        break;
      }
      return Error("expected ',' or ']' in array");
    }
    *out = std::move(array);
    return Status::OK();
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++cur_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (cur_ != end_ && *cur_ == '}') {
      ++cur_;
      *out = std::move(object);
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (cur_ == end_ || *cur_ != '"') return Error("expected member name");
      JsonValue key;
      SCORPION_RETURN_NOT_OK(ParseString(&key));
      if (object.Find(key.string_value()) != nullptr) {
        return Error("duplicate member '" + key.string_value() + "'");
      }
      SkipWhitespace();
      if (cur_ == end_ || *cur_ != ':') return Error("expected ':'");
      ++cur_;
      SkipWhitespace();
      JsonValue value;
      SCORPION_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      object.Add(key.string_value(), std::move(value));
      SkipWhitespace();
      if (cur_ == end_) return Error("unterminated object");
      if (*cur_ == ',') {
        ++cur_;
        continue;
      }
      if (*cur_ == '}') {
        ++cur_;
        break;
      }
      return Error("expected ',' or '}' in object");
    }
    *out = std::move(object);
    return Status::OK();
  }

  const char* cur_;
  const char* begin_;
  const char* end_;
  const JsonParseLimits& limits_;
  size_t nodes_ = 0;
};

void DumpTo(const JsonValue& value, int indent, int level, std::string* out) {
  auto newline = [&](int lvl) {
    if (indent < 0) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * static_cast<size_t>(lvl), ' ');
  };
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      *out += JsonNumberToString(value.number_value());
      break;
    case JsonValue::Kind::kString:
      out->push_back('"');
      *out += JsonEscapeString(value.string_value());
      out->push_back('"');
      break;
    case JsonValue::Kind::kArray: {
      if (value.items().empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < value.items().size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(level + 1);
        DumpTo(value.items()[i], indent, level + 1, out);
      }
      newline(level);
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      if (value.members().empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < value.members().size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(level + 1);
        out->push_back('"');
        *out += JsonEscapeString(value.members()[i].first);
        *out += indent < 0 ? "\":" : "\": ";
        DumpTo(value.members()[i].second, indent, level + 1, out);
      }
      newline(level);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parse(text, JsonParseLimits{});
}

Result<JsonValue> JsonValue::Parse(const std::string& text,
                                   const JsonParseLimits& limits) {
  Parser parser(text.data(), text.data() + text.size(), limits);
  return parser.ParseDocument();
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, 0, &out);
  return out;
}

std::string JsonNumberToString(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == 0.0) return std::signbit(v) ? "-0" : "0";
  char buf[40];
  // Integral values within the exactly-representable range print without an
  // exponent or decimal point ("5", not "5.0" or "5e+00").
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest form that survives the decimal round trip, so re-serializing a
  // parsed document is byte-identical. std::to_chars yields the shortest
  // round-tripping digit count; fewer %g digits can never round-trip, so the
  // search starts there. It can still need one more step: %g rounds to the
  // nearest value at that precision, which at a power-of-two boundary may
  // fall outside the narrower half of the round-trip interval.
  char shortest[32];
  const std::to_chars_result sci =
      std::to_chars(shortest, shortest + sizeof(shortest), v,
                    std::chars_format::scientific);
  int digits = 0;
  for (const char* p = shortest; p < sci.ptr && *p != 'e'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p))) ++digits;
  }
  for (int precision = digits; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

// --- JsonObjectReader --------------------------------------------------------

JsonObjectReader::JsonObjectReader(const JsonValue* value, std::string context)
    : value_(value),
      context_(std::move(context)),
      consumed_(value->members().size(), false) {}

Result<JsonObjectReader> JsonObjectReader::Make(const JsonValue& value,
                                                std::string context) {
  if (!value.is_object()) {
    return Status::InvalidArgument(context + ": expected a JSON object");
  }
  return JsonObjectReader(&value, std::move(context));
}

Status JsonObjectReader::Error(const std::string& message) const {
  return Status::InvalidArgument(context_ + ": " + message);
}

const JsonValue* JsonObjectReader::Take(const std::string& key) {
  const std::vector<JsonValue::Member>& members = value_->members();
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == key) {
      consumed_[i] = true;
      return &members[i].second;
    }
  }
  return nullptr;
}

bool JsonObjectReader::Has(const std::string& key) const {
  return value_->Find(key) != nullptr;
}

Result<bool> JsonObjectReader::GetBool(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_bool()) return Error("field '" + key + "' must be a boolean");
  return v->bool_value();
}

Result<double> JsonObjectReader::GetDouble(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_number()) return Error("field '" + key + "' must be a number");
  return v->number_value();
}

Result<int64_t> JsonObjectReader::GetInt(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_number()) return Error("field '" + key + "' must be a number");
  double d = v->number_value();
  // Range check BEFORE the cast: converting an out-of-range double to an
  // integer type is undefined behaviour, and this reader faces untrusted
  // documents. 2^53 bounds the exactly-representable integers.
  if (d < -9007199254740992.0 || d > 9007199254740992.0) {
    return Error("field '" + key + "' is out of integer range");
  }
  int64_t i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) {
    return Error("field '" + key + "' must be an integer");
  }
  return i;
}

Result<std::string> JsonObjectReader::GetString(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_string()) return Error("field '" + key + "' must be a string");
  return v->string_value();
}

Result<const JsonValue*> JsonObjectReader::GetArray(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_array()) return Error("field '" + key + "' must be an array");
  return v;
}

Result<const JsonValue*> JsonObjectReader::GetObject(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  if (!v->is_object()) return Error("field '" + key + "' must be an object");
  return v;
}

Result<const JsonValue*> JsonObjectReader::GetMember(const std::string& key) {
  const JsonValue* v = Take(key);
  if (v == nullptr) return Error("missing field '" + key + "'");
  return v;
}

Result<bool> JsonObjectReader::GetBoolOr(const std::string& key,
                                         bool fallback) {
  if (!Has(key)) return fallback;
  return GetBool(key);
}

Result<double> JsonObjectReader::GetDoubleOr(const std::string& key,
                                             double fallback) {
  if (!Has(key)) return fallback;
  return GetDouble(key);
}

Result<int64_t> JsonObjectReader::GetIntOr(const std::string& key,
                                           int64_t fallback) {
  if (!Has(key)) return fallback;
  return GetInt(key);
}

Result<std::string> JsonObjectReader::GetStringOr(const std::string& key,
                                                  std::string fallback) {
  if (!Has(key)) return fallback;
  return GetString(key);
}

Result<const JsonValue*> JsonObjectReader::GetArrayOrNull(
    const std::string& key) {
  if (!Has(key)) return static_cast<const JsonValue*>(nullptr);
  return GetArray(key);
}

Status JsonObjectReader::Finish() const {
  const std::vector<JsonValue::Member>& members = value_->members();
  for (size_t i = 0; i < members.size(); ++i) {
    if (!consumed_[i]) {
      return Error("unknown field '" + members[i].first + "'");
    }
  }
  return Status::OK();
}

}  // namespace scorpion
