#ifndef NEWSDIFF_STORE_VALUE_H_
#define NEWSDIFF_STORE_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace newsdiff::store {

class Value;

/// Ordered list of key/value fields. Preserves insertion order (like BSON
/// documents); key lookup is linear, which is fine for the small documents
/// the pipeline stores.
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// A JSON-like dynamically-typed value: null, bool, int64, double, string,
/// array, or object. This is the unit the document store persists; it plays
/// the role MongoDB's BSON documents play in the original system.
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Constructs null.
  Value() : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}                      // NOLINT(runtime/explicit)
  Value(int64_t i) : data_(i) {}                   // NOLINT(runtime/explicit)
  Value(int i) : data_(static_cast<int64_t>(i)) {} // NOLINT(runtime/explicit)
  Value(double d) : data_(d) {}                    // NOLINT(runtime/explicit)
  Value(const char* s) : data_(std::string(s)) {}  // NOLINT(runtime/explicit)
  Value(std::string s) : data_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(Array a) : data_(std::move(a)) {}          // NOLINT(runtime/explicit)
  Value(Object o) : data_(std::move(o)) {}         // NOLINT(runtime/explicit)

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error
  /// (undefined via std::get). Use the as_* forms for tolerant access.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }
  const Array& array() const { return std::get<Array>(data_); }
  Array& array() { return std::get<Array>(data_); }
  const Object& object() const { return std::get<Object>(data_); }
  Object& object() { return std::get<Object>(data_); }

  /// Numeric value as double regardless of int/double storage; `fallback`
  /// for non-numeric values.
  double AsDouble(double fallback = 0.0) const;

  /// Numeric value as int64 (doubles are truncated); `fallback` otherwise.
  int64_t AsInt(int64_t fallback = 0) const;

  /// String value, or `fallback` for non-strings.
  std::string AsString(std::string fallback = "") const;

  /// Object field lookup; returns nullptr if this is not an object or the
  /// key is absent.
  const Value* Find(const std::string& key) const;

  /// Sets (or replaces) an object field. Requires is_object() or is_null()
  /// (null is promoted to an empty object).
  void Set(const std::string& key, Value v);

  /// Deep equality.
  bool Equals(const Value& other) const;

  /// Total order over values: first by type index, then by value (numbers
  /// compare across int/double). Equals is built on it.
  int Compare(const Value& other) const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Convenience: builds an object value from an initializer-style list.
Value MakeObject(std::initializer_list<std::pair<std::string, Value>> fields);

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_VALUE_H_
