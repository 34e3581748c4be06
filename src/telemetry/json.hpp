// Minimal deterministic JSON: an insertion-ordered DOM, a writer, and a
// strict recursive-descent parser.
//
// The telemetry exporters (Chrome trace, BENCH_*.json, check_sweep --json)
// must produce byte-identical output for identical simulation runs, so the
// writer is fully deterministic: objects preserve insertion order, integers
// print exactly, and doubles print with round-trip precision ("%.17g").
// The parser exists for the other direction — schema validation (the
// `schema_check` tool, the trace well-formedness tests) — and accepts
// exactly RFC 8259 JSON, nothing more.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace odcm::telemetry {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered members: deterministic export, duplicate keys
  /// rejected by `set`.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}          // NOLINT
  JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}    // NOLINT
  JsonValue(std::uint64_t u)                                   // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  JsonValue(int i) : kind_(Kind::kInt), int_(i) {}             // NOLINT
  JsonValue(unsigned int u) : kind_(Kind::kInt), int_(u) {}    // NOLINT
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}    // NOLINT
  JsonValue(std::string s)                                     // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  [[nodiscard]] std::int64_t as_int() const;
  /// Numeric value as double (works for both kInt and kDouble).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Object: append a member (throws on duplicate key or non-object).
  JsonValue& set(std::string key, JsonValue value);
  /// Array: append an element (throws on non-array).
  JsonValue& push(JsonValue value);
  /// Object member lookup; nullptr when absent (throws on non-object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Serialize. `indent < 0`: compact one-line form. `indent >= 0`: pretty
  /// multi-line form with that many spaces per level.
  void write(std::ostream& out, int indent = -1) const;
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document (throws std::runtime_error
  /// with position information on malformed input or trailing garbage).
  [[nodiscard]] static JsonValue parse(std::string_view text);

  /// Escape and quote `s` as a JSON string literal.
  static void write_escaped(std::ostream& out, std::string_view s);
  /// Deterministic round-trip formatting of a double ("%.17g", with
  /// non-finite values mapped to null per RFC 8259).
  static void write_double(std::ostream& out, double d);

 private:
  void write_impl(std::ostream& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_{};
  Array array_{};
  Object object_{};
};

}  // namespace odcm::telemetry
