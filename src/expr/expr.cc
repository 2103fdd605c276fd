#include "expr/expr.h"

#include <algorithm>
#include <sstream>

namespace stratica {

int BindSchema::Find(const std::string& name) const {
  // Exact match first (handles qualified "t.c" names stored verbatim).
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  // Fall back to suffix match: "c" matches "t.c" if unambiguous.
  int found = -1;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& full = names[i];
    auto dot = full.rfind('.');
    if (dot != std::string::npos && full.compare(dot + 1, std::string::npos, name) == 0) {
      if (found >= 0) return -2;  // ambiguous
      found = static_cast<int>(i);
    }
  }
  // Also allow a qualified lookup name to match an unqualified schema name.
  if (found < 0) {
    auto dot = name.rfind('.');
    if (dot != std::string::npos) {
      std::string bare = name.substr(dot + 1);
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == bare) return static_cast<int>(i);
      }
    }
  }
  return found;
}

ExprPtr Col(const std::string& name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = name;
  return e;
}

ExprPtr ColIdx(int index, TypeId type) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_index = index;
  e->type = type;
  e->column_name = "#" + std::to_string(index);
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCompare;
  e->cmp = op;
  e->type = TypeId::kBool;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kArith;
  e->arith = op;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logic = LogicalOp::kAnd;
  e->type = TypeId::kBool;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Or(ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logic = LogicalOp::kOr;
  e->type = TypeId::kBool;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Not(ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logic = LogicalOp::kNot;
  e->type = TypeId::kBool;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Func(FuncKind f, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunc;
  e->func = f;
  e->children = std::move(args);
  return e;
}

ExprPtr InList(ExprPtr child, std::vector<Value> values, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIn;
  e->type = TypeId::kBool;
  e->negated = negated;
  e->in_list = std::move(values);
  e->children = {std::move(child)};
  return e;
}

ExprPtr IsNull(ExprPtr child, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNull;
  e->type = TypeId::kBool;
  e->negated = negated;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Like(ExprPtr child, std::string pattern) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunc;
  e->func = FuncKind::kLike;
  e->type = TypeId::kBool;
  e->like_pattern = std::move(pattern);
  e->children = {std::move(child)};
  return e;
}

ExprPtr CloneExpr(const ExprPtr& e) {
  if (!e) return nullptr;
  auto copy = std::make_shared<Expr>(*e);
  copy->children.clear();
  for (const auto& c : e->children) copy->children.push_back(CloneExpr(c));
  return copy;
}

std::string Expr::ToString() const {
  std::ostringstream ss;
  switch (kind) {
    case ExprKind::kColumnRef:
      ss << column_name;
      break;
    case ExprKind::kLiteral:
      if (literal.type() == TypeId::kString || literal.type() == TypeId::kDate ||
          literal.type() == TypeId::kTimestamp) {
        ss << "'" << literal.ToString() << "'";
      } else {
        ss << literal.ToString();
      }
      break;
    case ExprKind::kCompare: {
      static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      ss << "(" << children[0]->ToString() << " " << ops[static_cast<int>(cmp)] << " "
         << children[1]->ToString() << ")";
      break;
    }
    case ExprKind::kArith: {
      static const char* ops[] = {"+", "-", "*", "/", "%"};
      ss << "(" << children[0]->ToString() << " " << ops[static_cast<int>(arith)] << " "
         << children[1]->ToString() << ")";
      break;
    }
    case ExprKind::kLogical:
      if (logic == LogicalOp::kNot) {
        ss << "(NOT " << children[0]->ToString() << ")";
      } else {
        ss << "(" << children[0]->ToString()
           << (logic == LogicalOp::kAnd ? " AND " : " OR ") << children[1]->ToString()
           << ")";
      }
      break;
    case ExprKind::kFunc: {
      switch (func) {
        case FuncKind::kExtractYear:
          ss << "EXTRACT(YEAR FROM " << children[0]->ToString() << ")";
          break;
        case FuncKind::kExtractMonth:
          ss << "EXTRACT(MONTH FROM " << children[0]->ToString() << ")";
          break;
        case FuncKind::kYearMonth:
          ss << "YEAR_MONTH(" << children[0]->ToString() << ")";
          break;
        case FuncKind::kHash: {
          ss << "HASH(";
          for (size_t i = 0; i < children.size(); ++i) {
            if (i) ss << ", ";
            ss << children[i]->ToString();
          }
          ss << ")";
          break;
        }
        case FuncKind::kLike:
          ss << "(" << children[0]->ToString() << " LIKE '" << like_pattern << "')";
          break;
        case FuncKind::kAbs:
          ss << "ABS(" << children[0]->ToString() << ")";
          break;
        case FuncKind::kDateTrunc:
          ss << "DATE_TRUNC(" << children[0]->ToString() << ")";
          break;
      }
      break;
    }
    case ExprKind::kIn: {
      ss << "(" << children[0]->ToString() << (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < in_list.size(); ++i) {
        if (i) ss << ", ";
        ss << in_list[i].ToString();
      }
      ss << "))";
      break;
    }
    case ExprKind::kIsNull:
      ss << "(" << children[0]->ToString() << (negated ? " IS NOT NULL)" : " IS NULL)");
      break;
    case ExprKind::kCase: {
      ss << "CASE";
      for (size_t i = 0; i + 1 < children.size(); i += 2) {
        ss << " WHEN " << children[i]->ToString() << " THEN " << children[i + 1]->ToString();
      }
      if (children.size() % 2 == 1) ss << " ELSE " << children.back()->ToString();
      ss << " END";
      break;
    }
  }
  return ss.str();
}

namespace {
bool IsNumeric(TypeId t) { return t == TypeId::kInt64 || t == TypeId::kFloat64; }
}  // namespace

Status BindExpr(Expr* e, const BindSchema& schema) {
  for (auto& c : e->children) STRATICA_RETURN_NOT_OK(BindExpr(c.get(), schema));
  switch (e->kind) {
    case ExprKind::kColumnRef: {
      int idx = schema.Find(e->column_name);
      if (idx == -2) return Status::AnalysisError("ambiguous column: ", e->column_name);
      if (idx < 0) {
        // Pre-bound references (ColIdx) survive rebinding against a schema
        // that positions them directly.
        if (e->column_index >= 0 && e->column_index < static_cast<int>(schema.size())) {
          e->type = schema.types[e->column_index];
          return Status::OK();
        }
        return Status::AnalysisError("unknown column: ", e->column_name);
      }
      e->column_index = idx;
      e->type = schema.types[idx];
      return Status::OK();
    }
    case ExprKind::kLiteral:
      e->type = e->literal.type();
      return Status::OK();
    case ExprKind::kCompare: {
      StorageClass a = StorageClassOf(e->children[0]->type);
      StorageClass b = StorageClassOf(e->children[1]->type);
      bool ok = (a == b) || (a != StorageClass::kString && b != StorageClass::kString);
      if (!ok)
        return Status::AnalysisError("cannot compare ", TypeName(e->children[0]->type),
                                     " with ", TypeName(e->children[1]->type));
      e->type = TypeId::kBool;
      return Status::OK();
    }
    case ExprKind::kArith: {
      TypeId l = e->children[0]->type, r = e->children[1]->type;
      if (!IsNumeric(l) && l != TypeId::kDate && l != TypeId::kTimestamp)
        return Status::AnalysisError("arithmetic on non-numeric type ", TypeName(l));
      if (!IsNumeric(r) && r != TypeId::kDate && r != TypeId::kTimestamp)
        return Status::AnalysisError("arithmetic on non-numeric type ", TypeName(r));
      e->type = (l == TypeId::kFloat64 || r == TypeId::kFloat64) ? TypeId::kFloat64
                                                                 : TypeId::kInt64;
      if (e->arith == ArithOp::kMod) e->type = TypeId::kInt64;
      return Status::OK();
    }
    case ExprKind::kLogical:
      for (const auto& c : e->children) {
        if (c->type != TypeId::kBool)
          return Status::AnalysisError("logical operator over non-boolean");
      }
      e->type = TypeId::kBool;
      return Status::OK();
    case ExprKind::kFunc:
      switch (e->func) {
        case FuncKind::kExtractYear:
        case FuncKind::kExtractMonth:
        case FuncKind::kYearMonth: {
          TypeId t = e->children[0]->type;
          if (t != TypeId::kDate && t != TypeId::kTimestamp)
            return Status::AnalysisError("EXTRACT requires a date or timestamp");
          e->type = TypeId::kInt64;
          return Status::OK();
        }
        case FuncKind::kHash:
          e->type = TypeId::kInt64;
          return Status::OK();
        case FuncKind::kLike:
          if (e->children[0]->type != TypeId::kString)
            return Status::AnalysisError("LIKE requires a string");
          e->type = TypeId::kBool;
          return Status::OK();
        case FuncKind::kAbs:
          e->type = e->children[0]->type;
          return Status::OK();
        case FuncKind::kDateTrunc:
          e->type = e->children[0]->type;
          return Status::OK();
      }
      return Status::Internal("unhandled func");
    case ExprKind::kIn:
    case ExprKind::kIsNull:
      e->type = TypeId::kBool;
      return Status::OK();
    case ExprKind::kCase: {
      if (e->children.size() < 2) return Status::AnalysisError("malformed CASE");
      e->type = e->children[1]->type;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expr kind");
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kLogical && e->logic == LogicalOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

void CollectColumns(const Expr& e, std::vector<int>* out) {
  if (e.kind == ExprKind::kColumnRef && e.column_index >= 0) {
    if (std::find(out->begin(), out->end(), e.column_index) == out->end())
      out->push_back(e.column_index);
  }
  for (const auto& c : e.children) CollectColumns(*c, out);
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative glob match with backtracking over the last '%'.
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace stratica
