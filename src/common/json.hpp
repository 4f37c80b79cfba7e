// Minimal recursive-descent JSON parser for the offline tooling
// (tools/capgpu_report reads events.jsonl and the --slo-report-out
// artifact; tests read --summary-out). Parses the full JSON grammar into a
// small value tree; throws InvalidArgument with position info on malformed
// input. Not a performance-critical path — clarity over speed.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace capgpu::json {

class Value;
using Array = std::vector<Value>;
/// Object keys keep insertion order irrelevant for our consumers; a sorted
/// map keeps lookups simple.
using Object = std::map<std::string, Value>;

/// One JSON value (tagged union).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s);
  explicit Value(Array a);
  explicit Value(Object o);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; throws when not an object or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Convenience: member as number/string with a default when absent.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

 private:
  Type type_{Type::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Largest integer a double holds exactly; the bound for size fields.
inline constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// Returns `x` when it is a finite integer in [lo, hi], so casting it to
/// an integer type is defined; otherwise throws InvalidArgument
/// "<context>: '<key>' = x is not an integer in [lo, hi]". Readers of
/// documents from outside the process route every integer field through
/// here: casting a negative, out-of-range or non-finite double is UB.
[[nodiscard]] double checked_integer(double x, double lo, double hi,
                                     const char* context, const char* key);

/// Deepest array/object nesting the parser accepts; deeper documents throw
/// InvalidArgument instead of recursing off the stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document; trailing non-whitespace is an error.
[[nodiscard]] Value parse(const std::string& text);

/// Parses one document from `text` starting at `pos`, advancing `pos` past
/// it (JSONL: call per line, or repeatedly on a concatenated stream).
[[nodiscard]] Value parse_prefix(const std::string& text, std::size_t& pos);

}  // namespace capgpu::json
