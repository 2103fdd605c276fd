// Logical types and the Value runtime scalar.
//
// Stratica supports the types the paper calls out as the commercially
// necessary extensions over C-Store's INTEGER-only prototype (Section 8.1):
// 64-bit integers, floats, varchars, booleans, dates and timestamps. Dates
// are stored as days since 2000-01-01 and timestamps as microseconds since
// the same epoch; both share the int64 storage class.
#ifndef STRATICA_COMMON_TYPES_H_
#define STRATICA_COMMON_TYPES_H_

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/status.h"

namespace stratica {

enum class TypeId : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
  kDate = 4,       // int64 days
  kTimestamp = 5,  // int64 microseconds
};

const char* TypeName(TypeId t);

/// Parse a SQL type name ("INT", "BIGINT", "FLOAT", "VARCHAR", ...).
Result<TypeId> TypeFromName(const std::string& name);

/// Physical storage class of a logical type.
enum class StorageClass : uint8_t { kInt64, kFloat64, kString };

inline StorageClass StorageClassOf(TypeId t) {
  switch (t) {
    case TypeId::kFloat64: return StorageClass::kFloat64;
    case TypeId::kString: return StorageClass::kString;
    default: return StorageClass::kInt64;
  }
}

inline bool IsIntegerLike(TypeId t) { return StorageClassOf(t) == StorageClass::kInt64; }

/// The engine's one order on doubles (DESIGN.md §8): -0.0 == +0.0, and
/// every NaN equals every other NaN and sorts after +inf. Normalized sort
/// keys encode exactly this order, and HashDouble hashes its equal values
/// equally.
inline int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  bool xn = x != x, yn = y != y;
  return xn == yn ? 0 : (xn ? 1 : -1);
}

/// \brief Runtime scalar: a single (possibly NULL) typed value.
///
/// Used at the "slow" edges of the system: query results, literals,
/// histograms, container min/max stats. The execution engine's inner loops
/// use ColumnVector's typed arrays instead.
class Value {
 public:
  Value() : type_(TypeId::kInt64), null_(true) {}

  static Value Null(TypeId type) {
    Value v;
    v.type_ = type;
    v.null_ = true;
    return v;
  }
  static Value Bool(bool b) { return Value(TypeId::kBool, b ? 1 : 0); }
  static Value Int64(int64_t i) { return Value(TypeId::kInt64, i); }
  static Value Date(int64_t days) { return Value(TypeId::kDate, days); }
  static Value Timestamp(int64_t micros) { return Value(TypeId::kTimestamp, micros); }
  static Value Float64(double d) {
    Value v;
    v.type_ = TypeId::kFloat64;
    v.null_ = false;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.null_ = false;
    v.s_ = std::move(s);
    return v;
  }
  /// An int-classed value with explicit logical type (bool/date/timestamp).
  static Value OfInt(TypeId t, int64_t i) { return Value(t, i); }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }
  int64_t i64() const { return i_; }
  double f64() const { return d_; }
  const std::string& str() const { return s_; }

  /// Numeric view: ints widen to double.
  double AsDouble() const {
    return StorageClassOf(type_) == StorageClass::kFloat64 ? d_
                                                           : static_cast<double>(i_);
  }

  uint64_t Hash() const;

  /// Total order; NULL sorts first; cross-storage-class comparison compares
  /// numerically where possible.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  std::string ToString() const;

  /// Parse a literal of the given type from text (used by the CSV loader).
  static Result<Value> Parse(TypeId type, const std::string& text);

 private:
  Value(TypeId t, int64_t i) : type_(t), null_(false), i_(i) {}

  TypeId type_;
  bool null_;
  int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
};

/// Render `days` since 2000-01-01 as YYYY-MM-DD.
std::string FormatDate(int64_t days);
/// Parse YYYY-MM-DD into days since 2000-01-01.
Result<int64_t> ParseDate(const std::string& text);
/// Extract calendar year / month (1-12) from a date in days.
int32_t DateYear(int64_t days);
int32_t DateMonth(int64_t days);
/// Build a date from calendar components.
int64_t MakeDate(int32_t year, int32_t month, int32_t day);

}  // namespace stratica

#endif  // STRATICA_COMMON_TYPES_H_
