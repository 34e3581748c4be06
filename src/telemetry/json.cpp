#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace odcm::telemetry {

namespace {

[[noreturn]] void type_error(const char* what, JsonValue::Kind kind) {
  throw std::runtime_error(std::string("JsonValue: ") + what +
                           " on value of kind " +
                           std::to_string(static_cast<int>(kind)));
}

}  // namespace

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kInt) type_error("as_int", kind_);
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  type_error("as_double", kind_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) type_error("as_string", kind_);
  return string_;
}

const JsonValue::Array& JsonValue::items() const {
  if (kind_ != Kind::kArray) type_error("items", kind_);
  return array_;
}

const JsonValue::Object& JsonValue::members() const {
  if (kind_ != Kind::kObject) type_error("members", kind_);
  return object_;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) type_error("set", kind_);
  for (const auto& [existing, _] : object_) {
    if (existing == key) {
      throw std::runtime_error("JsonValue::set: duplicate key \"" + key +
                               "\"");
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (kind_ != Kind::kArray) type_error("push", kind_);
  array_.push_back(std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) type_error("find", kind_);
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::write_escaped(std::ostream& out, std::string_view s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void JsonValue::write_double(std::ostream& out, double d) {
  if (!std::isfinite(d)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out << buf;
}

void JsonValue::write_impl(std::ostream& out, int indent, int depth) const {
  auto newline = [&](int level) {
    if (indent >= 0) {
      out << '\n';
      for (int i = 0; i < indent * level; ++i) out << ' ';
    }
  };
  switch (kind_) {
    case Kind::kNull: out << "null"; break;
    case Kind::kBool: out << (bool_ ? "true" : "false"); break;
    case Kind::kInt: out << int_; break;
    case Kind::kDouble: write_double(out, double_); break;
    case Kind::kString: write_escaped(out, string_); break;
    case Kind::kArray:
      if (array_.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out << (indent >= 0 ? "," : ",");
        newline(depth + 1);
        array_[i].write_impl(out, indent, depth + 1);
      }
      newline(depth);
      out << ']';
      break;
    case Kind::kObject:
      if (object_.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out << ',';
        newline(depth + 1);
        write_escaped(out, object_[i].first);
        out << (indent >= 0 ? ": " : ":");
        object_[i].second.write_impl(out, indent, depth + 1);
      }
      newline(depth);
      out << '}';
      break;
  }
}

void JsonValue::write(std::ostream& out, int indent) const {
  write_impl(out, indent, 0);
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream out;
  write(out, indent);
  return out.str();
}

// ---- parser ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
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

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two separate escapes; good enough for telemetry
          // payloads, which are ASCII).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    std::size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == int_start) fail("bad number");
    // RFC 8259: the integer part is "0" or starts with a nonzero digit.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      fail("leading zero in number");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      std::size_t frac_start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac_start) fail("missing digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::size_t exp_start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp_start) fail("missing exponent digits");
    }
    std::string token(text_.substr(start, pos_ - start));
    try {
      if (!is_double) {
        return JsonValue(static_cast<std::int64_t>(std::stoll(token)));
      }
      return JsonValue(std::stod(token));
    } catch (const std::exception&) {
      fail("unparseable number \"" + token + "\"");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace odcm::telemetry
