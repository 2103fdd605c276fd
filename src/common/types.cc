#include "common/types.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace stratica {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kBool: return "BOOLEAN";
    case TypeId::kInt64: return "INTEGER";
    case TypeId::kFloat64: return "FLOAT";
    case TypeId::kString: return "VARCHAR";
    case TypeId::kDate: return "DATE";
    case TypeId::kTimestamp: return "TIMESTAMP";
  }
  return "UNKNOWN";
}

Result<TypeId> TypeFromName(const std::string& name) {
  std::string up;
  up.reserve(name.size());
  for (char c : name) up.push_back(static_cast<char>(std::toupper(c)));
  // Strip a parenthesized length, e.g. VARCHAR(80).
  auto paren = up.find('(');
  if (paren != std::string::npos) up = up.substr(0, paren);
  if (up == "BOOLEAN" || up == "BOOL") return TypeId::kBool;
  if (up == "INTEGER" || up == "INT" || up == "BIGINT" || up == "SMALLINT")
    return TypeId::kInt64;
  if (up == "FLOAT" || up == "DOUBLE" || up == "REAL" || up == "NUMERIC")
    return TypeId::kFloat64;
  if (up == "VARCHAR" || up == "CHAR" || up == "TEXT") return TypeId::kString;
  if (up == "DATE") return TypeId::kDate;
  if (up == "TIMESTAMP") return TypeId::kTimestamp;
  return Status::AnalysisError("unknown type name: ", name);
}

uint64_t Value::Hash() const {
  if (null_) return 0x5ca1ab1e;
  switch (StorageClassOf(type_)) {
    case StorageClass::kInt64: return HashInt64(i_);
    case StorageClass::kFloat64: return HashDouble(d_);
    case StorageClass::kString: return HashString(s_);
  }
  return 0;
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;  // NULL sorts first
  }
  StorageClass a = StorageClassOf(type_), b = StorageClassOf(other.type_);
  if (a == StorageClass::kString || b == StorageClass::kString) {
    // String compares only against string; engine type-checks earlier.
    if (a != b) return a == StorageClass::kString ? 1 : -1;
    return s_.compare(other.s_) < 0 ? -1 : (s_ == other.s_ ? 0 : 1);
  }
  if (a == StorageClass::kFloat64 || b == StorageClass::kFloat64) {
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kBool: return i_ ? "true" : "false";
    case TypeId::kInt64: return std::to_string(i_);
    case TypeId::kDate: return FormatDate(i_);
    case TypeId::kTimestamp: {
      // micros since 2000-01-01; render date + seconds for readability.
      int64_t secs = i_ / 1000000;
      int64_t days = secs / 86400;
      int64_t rem = secs % 86400;
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %02d:%02d:%02d", static_cast<int>(rem / 3600),
                    static_cast<int>((rem / 60) % 60), static_cast<int>(rem % 60));
      return FormatDate(days) + buf;
    }
    case TypeId::kFloat64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d_);
      return buf;
    }
    case TypeId::kString: return s_;
  }
  return "?";
}

Result<Value> Value::Parse(TypeId type, const std::string& text) {
  if (text.empty() || text == "NULL" || text == "\\N") return Value::Null(type);
  switch (type) {
    case TypeId::kBool:
      if (text == "true" || text == "t" || text == "1") return Value::Bool(true);
      if (text == "false" || text == "f" || text == "0") return Value::Bool(false);
      return Status::ParseError("bad boolean literal: ", text);
    case TypeId::kInt64: {
      errno = 0;
      char* end = nullptr;
      int64_t v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0')
        return Status::ParseError("bad integer literal: ", text);
      return Value::Int64(v);
    }
    case TypeId::kFloat64: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0')
        return Status::ParseError("bad float literal: ", text);
      return Value::Float64(v);
    }
    case TypeId::kString: return Value::String(text);
    case TypeId::kDate: {
      STRATICA_ASSIGN_OR_RETURN(int64_t days, ParseDate(text));
      return Value::Date(days);
    }
    case TypeId::kTimestamp: {
      // Accept "YYYY-MM-DD" or "YYYY-MM-DD HH:MM:SS".
      std::string date_part = text.substr(0, 10);
      STRATICA_ASSIGN_OR_RETURN(int64_t days, ParseDate(date_part));
      int64_t micros = days * 86400LL * 1000000LL;
      if (text.size() >= 19 && (text[10] == ' ' || text[10] == 'T')) {
        int h = std::atoi(text.substr(11, 2).c_str());
        int m = std::atoi(text.substr(14, 2).c_str());
        int s = std::atoi(text.substr(17, 2).c_str());
        micros += (static_cast<int64_t>(h) * 3600 + m * 60 + s) * 1000000LL;
      }
      return Value::Timestamp(micros);
    }
  }
  return Status::ParseError("unsupported type for parse");
}

namespace {
// Civil-date conversion (Howard Hinnant's algorithm), offset to the
// 2000-01-01 epoch (which is day 10957 from 1970-01-01).
constexpr int64_t kEpochOffsetDays = 10957;

int64_t DaysFromCivil(int32_t y, int32_t m, int32_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;  // days since 1970-01-01
}

void CivilFromDays(int64_t z, int32_t* y, int32_t* m, int32_t* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yr = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = static_cast<int32_t>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int32_t>(mp + (mp < 10 ? 3 : -9));
  *y = static_cast<int32_t>(yr + (*m <= 2));
}
}  // namespace

int64_t MakeDate(int32_t year, int32_t month, int32_t day) {
  return DaysFromCivil(year, month, day) - kEpochOffsetDays;
}

std::string FormatDate(int64_t days) {
  int32_t y, m, d;
  CivilFromDays(days + kEpochOffsetDays, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<int64_t> ParseDate(const std::string& text) {
  int y, m, d;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3)
    return Status::ParseError("bad date literal: ", text);
  if (m < 1 || m > 12 || d < 1 || d > 31)
    return Status::ParseError("date out of range: ", text);
  return MakeDate(y, m, d);
}

int32_t DateYear(int64_t days) {
  int32_t y, m, d;
  CivilFromDays(days + kEpochOffsetDays, &y, &m, &d);
  return y;
}

int32_t DateMonth(int64_t days) {
  int32_t y, m, d;
  CivilFromDays(days + kEpochOffsetDays, &y, &m, &d);
  return m;
}

}  // namespace stratica
