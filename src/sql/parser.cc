#include "sql/parser.h"

#include <algorithm>
#include <cctype>

namespace stratica {

namespace {

enum class Tok : uint8_t { kIdent, kNumber, kString, kOp, kEnd };

struct Token {
  Tok type = Tok::kEnd;
  std::string text;  // upper-cased for idents
  std::string raw;
};

class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) { Advance(); }

  const Token& Peek() const { return cur_; }

  Token Next() {
    Token t = cur_;
    Advance();
    return t;
  }

  bool Is(const std::string& upper) const {
    return (cur_.type == Tok::kIdent || cur_.type == Tok::kOp) && cur_.text == upper;
  }

  bool Accept(const std::string& upper) {
    if (!Is(upper)) return false;
    Advance();
    return true;
  }

  Status Expect(const std::string& upper) {
    if (Accept(upper)) return Status::OK();
    return Status::ParseError("expected '", upper, "' near '", cur_.raw, "'");
  }

  bool AtEnd() const { return cur_.type == Tok::kEnd; }

  struct State {
    size_t pos;
    Token cur;
  };
  State Save() const { return {pos_, cur_}; }
  void Restore(const State& s) {
    pos_ = s.pos;
    cur_ = s.cur;
  }

 private:
  void Advance() {
    while (pos_ < sql_.size() && std::isspace(static_cast<unsigned char>(sql_[pos_])))
      ++pos_;
    cur_ = Token();
    if (pos_ >= sql_.size()) return;
    char c = sql_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < sql_.size() && (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
                                    sql_[pos_] == '_')) {
        ++pos_;
      }
      cur_.type = Tok::kIdent;
      cur_.raw = sql_.substr(start, pos_ - start);
      cur_.text = cur_.raw;
      std::transform(cur_.text.begin(), cur_.text.end(), cur_.text.begin(),
                     [](char ch) { return static_cast<char>(std::toupper(ch)); });
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < sql_.size() &&
         std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
      size_t start = pos_;
      while (pos_ < sql_.size() && (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
                                    sql_[pos_] == '.' || sql_[pos_] == 'e' ||
                                    sql_[pos_] == 'E' ||
                                    ((sql_[pos_] == '+' || sql_[pos_] == '-') && pos_ > start &&
                                     (sql_[pos_ - 1] == 'e' || sql_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      cur_.type = Tok::kNumber;
      cur_.raw = cur_.text = sql_.substr(start, pos_ - start);
      return;
    }
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < sql_.size() && sql_[pos_] != '\'') {
        if (sql_[pos_] == '\\' && pos_ + 1 < sql_.size()) ++pos_;
        s.push_back(sql_[pos_++]);
      }
      ++pos_;  // closing quote
      cur_.type = Tok::kString;
      cur_.raw = cur_.text = s;
      return;
    }
    // Operators (longest first).
    static const char* kOps[] = {"<>", "<=", ">=", "!=", "||", "(", ")", ",", ".",
                                 "=",  "<",  ">",  "+",  "-",  "*", "/", "%", ";"};
    for (const char* op : kOps) {
      size_t len = std::strlen(op);
      if (sql_.compare(pos_, len, op) == 0) {
        cur_.type = Tok::kOp;
        cur_.raw = cur_.text = op;
        pos_ += len;
        return;
      }
    }
    cur_.type = Tok::kOp;
    cur_.raw = cur_.text = std::string(1, c);
    ++pos_;
  }

  const std::string& sql_;
  size_t pos_ = 0;
  Token cur_;
};

class Parser {
 public:
  explicit Parser(const std::string& sql) : lex_(sql) {}

  Result<Statement> Parse() {
    Statement stmt;
    if (lex_.Accept("EXPLAIN")) {
      stmt.type = Statement::Type::kExplain;
      STRATICA_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    } else if (lex_.Is("SELECT")) {
      stmt.type = Statement::Type::kSelect;
      STRATICA_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    } else if (lex_.Accept("INSERT")) {
      stmt.type = Statement::Type::kInsert;
      STRATICA_RETURN_NOT_OK(ParseInsert(&stmt.insert));
    } else if (lex_.Accept("COPY")) {
      stmt.type = Statement::Type::kCopy;
      STRATICA_RETURN_NOT_OK(ParseCopy(&stmt.copy));
    } else if (lex_.Accept("DELETE")) {
      stmt.type = Statement::Type::kDelete;
      STRATICA_RETURN_NOT_OK(lex_.Expect("FROM"));
      stmt.del.table = lex_.Next().raw;
      if (lex_.Accept("WHERE")) {
        STRATICA_ASSIGN_OR_RETURN(stmt.del.where, ParseExpr());
      }
    } else if (lex_.Accept("UPDATE")) {
      stmt.type = Statement::Type::kUpdate;
      STRATICA_RETURN_NOT_OK(ParseUpdate(&stmt.update));
    } else if (lex_.Accept("CREATE")) {
      if (lex_.Accept("TABLE")) {
        stmt.type = Statement::Type::kCreateTable;
        STRATICA_RETURN_NOT_OK(ParseCreateTable(&stmt.create_table));
      } else if (lex_.Accept("PROJECTION")) {
        stmt.type = Statement::Type::kCreateProjection;
        STRATICA_RETURN_NOT_OK(ParseCreateProjection(&stmt.create_projection));
      } else {
        return Status::ParseError("expected TABLE or PROJECTION after CREATE");
      }
    } else if (lex_.Accept("DROP")) {
      stmt.type = Statement::Type::kDropTable;
      STRATICA_RETURN_NOT_OK(lex_.Expect("TABLE"));
      stmt.drop_table = lex_.Next().raw;
    } else {
      return Status::ParseError("unrecognized statement start: '", lex_.Peek().raw, "'");
    }
    lex_.Accept(";");
    if (!lex_.AtEnd())
      return Status::ParseError("trailing input near '", lex_.Peek().raw, "'");
    return stmt;
  }

 private:
  // --- expressions ----------------------------------------------------------
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (lex_.Accept("OR")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (lex_.Accept("AND")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (lex_.Accept("NOT")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (lex_.Is("=") || lex_.Is("<>") || lex_.Is("!=") || lex_.Is("<") ||
        lex_.Is("<=") || lex_.Is(">") || lex_.Is(">=")) {
      std::string op = lex_.Next().text;
      STRATICA_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      CompareOp cmp = CompareOp::kEq;
      if (op == "<>" || op == "!=") cmp = CompareOp::kNe;
      else if (op == "<") cmp = CompareOp::kLt;
      else if (op == "<=") cmp = CompareOp::kLe;
      else if (op == ">") cmp = CompareOp::kGt;
      else if (op == ">=") cmp = CompareOp::kGe;
      return Cmp(cmp, std::move(left), std::move(right));
    }
    if (lex_.Accept("BETWEEN")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      STRATICA_RETURN_NOT_OK(lex_.Expect("AND"));
      STRATICA_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr left_copy = CloneExpr(left);  // sequenced before the moves below
      ExprPtr ge = Cmp(CompareOp::kGe, std::move(left_copy), std::move(lo));
      ExprPtr le = Cmp(CompareOp::kLe, std::move(left), std::move(hi));
      return And(std::move(ge), std::move(le));
    }
    if (lex_.Accept("LIKE")) {
      if (lex_.Peek().type != Tok::kString)
        return Status::ParseError("LIKE requires a string literal pattern");
      return Like(std::move(left), lex_.Next().raw);
    }
    bool negated_in = false;
    if (lex_.Is("NOT")) {
      // could be NOT IN
      auto save = lex_.Save();
      lex_.Accept("NOT");
      if (lex_.Is("IN")) {
        negated_in = true;
      } else {
        lex_.Restore(save);
        return left;
      }
    }
    if (lex_.Accept("IN")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      std::vector<Value> values;
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr lit, ParsePrimary());
        if (lit->kind != ExprKind::kLiteral)
          return Status::ParseError("IN list must contain literals");
        values.push_back(lit->literal);
      } while (lex_.Accept(","));
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return InList(std::move(left), std::move(values), negated_in);
    }
    if (lex_.Accept("IS")) {
      bool negated = lex_.Accept("NOT");
      STRATICA_RETURN_NOT_OK(lex_.Expect("NULL"));
      return IsNull(std::move(left), negated);
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    for (;;) {
      if (lex_.Accept("+")) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        left = Arith(ArithOp::kAdd, std::move(left), std::move(r));
      } else if (lex_.Accept("-")) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        left = Arith(ArithOp::kSub, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    for (;;) {
      if (lex_.Accept("*")) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        left = Arith(ArithOp::kMul, std::move(left), std::move(r));
      } else if (lex_.Accept("/")) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        left = Arith(ArithOp::kDiv, std::move(left), std::move(r));
      } else if (lex_.Accept("%")) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        left = Arith(ArithOp::kMod, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (lex_.Accept("-")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      if (e->kind == ExprKind::kLiteral) {
        if (e->literal.type() == TypeId::kFloat64)
          return Lit(Value::Float64(-e->literal.f64()));
        return Lit(Value::Int64(-e->literal.i64()));
      }
      return Arith(ArithOp::kSub, Lit(Value::Int64(0)), std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = lex_.Peek();
    if (t.type == Tok::kNumber) {
      std::string raw = lex_.Next().raw;
      if (raw.find('.') != std::string::npos || raw.find('e') != std::string::npos ||
          raw.find('E') != std::string::npos) {
        return Lit(Value::Float64(std::strtod(raw.c_str(), nullptr)));
      }
      return Lit(Value::Int64(std::strtoll(raw.c_str(), nullptr, 10)));
    }
    if (t.type == Tok::kString) {
      return Lit(Value::String(lex_.Next().raw));
    }
    if (lex_.Accept("(")) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return e;
    }
    if (t.type != Tok::kIdent)
      return Status::ParseError("unexpected token '", t.raw, "'");

    // Keyword literals and functions.
    if (lex_.Accept("NULL")) return Lit(Value::Null(TypeId::kInt64));
    if (lex_.Accept("TRUE")) return Lit(Value::Bool(true));
    if (lex_.Accept("FALSE")) return Lit(Value::Bool(false));
    if (lex_.Is("DATE")) {
      // DATE '2012-08-21' is a literal; a bare `date` is a column name.
      auto save = lex_.Save();
      lex_.Accept("DATE");
      if (lex_.Peek().type == Tok::kString) {
        STRATICA_ASSIGN_OR_RETURN(int64_t days, ParseDate(lex_.Next().raw));
        return Lit(Value::Date(days));
      }
      lex_.Restore(save);
    }
    if (lex_.Accept("EXTRACT")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      bool year = lex_.Accept("YEAR");
      if (!year) STRATICA_RETURN_NOT_OK(lex_.Expect("MONTH"));
      STRATICA_RETURN_NOT_OK(lex_.Expect("FROM"));
      STRATICA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return Func(year ? FuncKind::kExtractYear : FuncKind::kExtractMonth,
                  {std::move(arg)});
    }
    if (lex_.Accept("YEAR_MONTH")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      STRATICA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return Func(FuncKind::kYearMonth, {std::move(arg)});
    }
    if (lex_.Accept("HASH")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      std::vector<ExprPtr> args;
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
      } while (lex_.Accept(","));
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return Func(FuncKind::kHash, std::move(args));
    }
    if (lex_.Accept("ABS")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      STRATICA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      return Func(FuncKind::kAbs, {std::move(arg)});
    }

    // Plain (possibly qualified) column reference. Clause keywords cannot
    // name columns (catches "SELECT FROM t"-style mistakes early).
    if (IsClauseKeyword(t.text))
      return Status::ParseError("unexpected keyword '", t.raw, "'");
    std::string name = lex_.Next().raw;
    if (lex_.Accept(".")) {
      name += "." + lex_.Next().raw;
    }
    return Col(name);
  }

  // --- aggregate / window parsing for select items ---------------------------
  bool PeekAggName(AggKind* kind) {
    static const std::pair<const char*, AggKind> kAggs[] = {
        {"COUNT", AggKind::kCount}, {"SUM", AggKind::kSum},
        {"AVG", AggKind::kAvg},     {"MIN", AggKind::kMin},
        {"MAX", AggKind::kMax}};
    for (const auto& [name, k] : kAggs) {
      if (lex_.Is(name)) {
        *kind = k;
        return true;
      }
    }
    return false;
  }

  Result<AggCall> ParseAggCall(AggKind kind) {
    AggCall call;
    call.kind = kind;
    lex_.Next();  // the function name
    STRATICA_RETURN_NOT_OK(lex_.Expect("("));
    if (kind == AggKind::kCount && lex_.Accept("*")) {
      call.kind = AggKind::kCountStar;
    } else {
      if (lex_.Accept("DISTINCT")) {
        if (kind != AggKind::kCount)
          return Status::NotImplemented("DISTINCT only supported in COUNT");
        call.kind = AggKind::kCountDistinct;
      }
      STRATICA_ASSIGN_OR_RETURN(call.arg, ParseExpr());
    }
    STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
    return call;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (lex_.Accept("*")) {
      item.kind = SelectItem::Kind::kStar;
      return item;
    }
    AggKind agg_kind;
    bool is_window = lex_.Is("ROW_NUMBER") || lex_.Is("RANK") || lex_.Is("DENSE_RANK");
    if (is_window || PeekAggName(&agg_kind)) {
      if (is_window) {
        WindowCall w;
        if (lex_.Accept("ROW_NUMBER")) w.func = WindowFunc::kRowNumber;
        else if (lex_.Accept("RANK")) w.func = WindowFunc::kRank;
        else { lex_.Accept("DENSE_RANK"); w.func = WindowFunc::kDenseRank; }
        STRATICA_RETURN_NOT_OK(lex_.Expect("("));
        STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
        STRATICA_RETURN_NOT_OK(ParseOverClause(&w));
        item.kind = SelectItem::Kind::kWindow;
        item.window = std::move(w);
      } else {
        STRATICA_ASSIGN_OR_RETURN(AggCall call, ParseAggCall(agg_kind));
        if (lex_.Is("OVER")) {
          WindowCall w;
          switch (call.kind) {
            case AggKind::kSum: w.func = WindowFunc::kSum; break;
            case AggKind::kAvg: w.func = WindowFunc::kAvg; break;
            case AggKind::kMin: w.func = WindowFunc::kMin; break;
            case AggKind::kMax: w.func = WindowFunc::kMax; break;
            default: w.func = WindowFunc::kCount; break;
          }
          w.arg = call.arg;
          STRATICA_RETURN_NOT_OK(ParseOverClause(&w));
          item.kind = SelectItem::Kind::kWindow;
          item.window = std::move(w);
        } else {
          item.kind = SelectItem::Kind::kAgg;
          item.agg = std::move(call);
        }
      }
    } else {
      item.kind = SelectItem::Kind::kExpr;
      STRATICA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (lex_.Accept("AS")) {
      item.alias = lex_.Next().raw;
    } else if (lex_.Peek().type == Tok::kIdent && !IsClauseKeyword(lex_.Peek().text)) {
      item.alias = lex_.Next().raw;
    }
    return item;
  }

  Status ParseOverClause(WindowCall* w) {
    STRATICA_RETURN_NOT_OK(lex_.Expect("OVER"));
    STRATICA_RETURN_NOT_OK(lex_.Expect("("));
    if (lex_.Accept("PARTITION")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        w->partition_by.push_back(std::move(e));
      } while (lex_.Accept(","));
    }
    if (lex_.Accept("ORDER")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        bool desc = lex_.Accept("DESC");
        if (!desc) lex_.Accept("ASC");
        w->order_by.emplace_back(std::move(e), desc);
      } while (lex_.Accept(","));
    }
    return lex_.Expect(")");
  }

  static bool IsClauseKeyword(const std::string& up) {
    static const char* kWords[] = {"FROM",  "WHERE", "GROUP", "HAVING", "ORDER",
                                   "LIMIT", "JOIN",  "LEFT",  "RIGHT",  "FULL",
                                   "INNER", "ON",    "AS",    "OFFSET", "UNION"};
    for (const char* w : kWords) {
      if (up == w) return true;
    }
    return false;
  }

  // --- statements -------------------------------------------------------------
  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    STRATICA_RETURN_NOT_OK(lex_.Expect("SELECT"));
    stmt.distinct = lex_.Accept("DISTINCT");
    do {
      STRATICA_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt.items.push_back(std::move(item));
    } while (lex_.Accept(","));

    if (lex_.Accept("FROM")) {
      TableRef first;
      first.table = lex_.Next().raw;
      if (lex_.Peek().type == Tok::kIdent && !IsClauseKeyword(lex_.Peek().text))
        first.alias = lex_.Next().raw;
      stmt.from.push_back(std::move(first));
      for (;;) {
        JoinType jt = JoinType::kInner;
        if (lex_.Accept(",")) {
          jt = JoinType::kInner;  // comma join; predicate comes from WHERE
          TableRef ref;
          ref.table = lex_.Next().raw;
          if (lex_.Peek().type == Tok::kIdent && !IsClauseKeyword(lex_.Peek().text))
            ref.alias = lex_.Next().raw;
          ref.join_type = jt;
          stmt.from.push_back(std::move(ref));
          continue;
        }
        if (lex_.Accept("LEFT")) {
          lex_.Accept("OUTER");
          jt = JoinType::kLeft;
        } else if (lex_.Accept("RIGHT")) {
          lex_.Accept("OUTER");
          jt = JoinType::kRight;
        } else if (lex_.Accept("FULL")) {
          lex_.Accept("OUTER");
          jt = JoinType::kFull;
        } else if (lex_.Accept("INNER")) {
          jt = JoinType::kInner;
        } else if (!lex_.Is("JOIN")) {
          break;
        }
        STRATICA_RETURN_NOT_OK(lex_.Expect("JOIN"));
        TableRef ref;
        ref.join_type = jt;
        ref.table = lex_.Next().raw;
        if (lex_.Peek().type == Tok::kIdent && !IsClauseKeyword(lex_.Peek().text))
          ref.alias = lex_.Next().raw;
        STRATICA_RETURN_NOT_OK(lex_.Expect("ON"));
        STRATICA_ASSIGN_OR_RETURN(ref.on, ParseExpr());
        stmt.from.push_back(std::move(ref));
      }
    }
    if (lex_.Accept("WHERE")) {
      STRATICA_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (lex_.Accept("GROUP")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
      } while (lex_.Accept(","));
    }
    if (lex_.Accept("HAVING")) {
      STRATICA_ASSIGN_OR_RETURN(stmt.having, ParseHaving(&stmt.having_aggs));
    }
    if (lex_.Accept("ORDER")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        bool desc = lex_.Accept("DESC");
        if (!desc) lex_.Accept("ASC");
        stmt.order_by.emplace_back(std::move(e), desc);
      } while (lex_.Accept(","));
    }
    if (lex_.Accept("LIMIT")) {
      stmt.limit = std::strtoll(lex_.Next().raw.c_str(), nullptr, 10);
    }
    if (lex_.Accept("OFFSET")) {
      stmt.offset = std::strtoll(lex_.Next().raw.c_str(), nullptr, 10);
    }
    return stmt;
  }

  /// HAVING expressions may contain aggregate calls; each becomes a hidden
  /// column reference "$having<i>" resolved by the planner.
  Result<ExprPtr> ParseHaving(std::vector<AggCall>* aggs) {
    // Reuse the expression parser but intercept aggregate names at primary
    // level via a recursive helper.
    return ParseHavingOr(aggs);
  }

  Result<ExprPtr> ParseHavingOr(std::vector<AggCall>* aggs) {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseHavingCmp(aggs));
    while (lex_.Accept("AND") || lex_.Accept("OR")) {
      // (Simplification: HAVING conjunctions only; OR folded as AND of
      // comparisons is rejected below.)
      STRATICA_ASSIGN_OR_RETURN(ExprPtr right, ParseHavingCmp(aggs));
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseHavingCmp(std::vector<AggCall>* aggs) {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr left, ParseHavingOperand(aggs));
    static const std::pair<const char*, CompareOp> kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<=", CompareOp::kLe},
        {">=", CompareOp::kGe}, {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& [name, op] : kOps) {
      if (lex_.Accept(name)) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr right, ParseHavingOperand(aggs));
        return Cmp(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseHavingOperand(std::vector<AggCall>* aggs) {
    AggKind kind;
    if (PeekAggName(&kind)) {
      STRATICA_ASSIGN_OR_RETURN(AggCall call, ParseAggCall(kind));
      aggs->push_back(std::move(call));
      return Col("$having" + std::to_string(aggs->size() - 1));
    }
    return ParseAdditive();
  }

  Status ParseInsert(InsertStmt* stmt) {
    STRATICA_RETURN_NOT_OK(lex_.Expect("INTO"));
    stmt->table = lex_.Next().raw;
    STRATICA_RETURN_NOT_OK(lex_.Expect("VALUES"));
    do {
      STRATICA_RETURN_NOT_OK(lex_.Expect("("));
      std::vector<ExprPtr> row;
      do {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (lex_.Accept(","));
      STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      stmt->rows.push_back(std::move(row));
    } while (lex_.Accept(","));
    return Status::OK();
  }

  Status ParseCopy(CopyStmt* stmt) {
    stmt->table = lex_.Next().raw;
    STRATICA_RETURN_NOT_OK(lex_.Expect("FROM"));
    if (lex_.Peek().type != Tok::kString)
      return Status::ParseError("COPY requires a quoted file path");
    stmt->path = lex_.Next().raw;
    if (lex_.Accept("DELIMITER")) {
      if (lex_.Peek().type != Tok::kString || lex_.Peek().raw.size() != 1)
        return Status::ParseError("DELIMITER must be a single character");
      stmt->delimiter = lex_.Next().raw[0];
    }
    stmt->direct = lex_.Accept("DIRECT");
    return Status::OK();
  }

  Status ParseUpdate(UpdateStmt* stmt) {
    stmt->table = lex_.Next().raw;
    STRATICA_RETURN_NOT_OK(lex_.Expect("SET"));
    do {
      std::string col = lex_.Next().raw;
      STRATICA_RETURN_NOT_OK(lex_.Expect("="));
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->assignments.emplace_back(col, std::move(e));
    } while (lex_.Accept(","));
    if (lex_.Accept("WHERE")) {
      STRATICA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return Status::OK();
  }

  Status ParseCreateTable(CreateTableStmt* stmt) {
    stmt->def.name = lex_.Next().raw;
    STRATICA_RETURN_NOT_OK(lex_.Expect("("));
    do {
      ColumnDef col;
      col.name = lex_.Next().raw;
      std::string type_name = lex_.Next().raw;
      if (lex_.Accept("(")) {  // VARCHAR(80)
        lex_.Next();
        STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
      }
      STRATICA_ASSIGN_OR_RETURN(col.type, TypeFromName(type_name));
      if (lex_.Accept("NOT")) {
        STRATICA_RETURN_NOT_OK(lex_.Expect("NULL"));
        col.nullable = false;
      }
      stmt->def.columns.push_back(std::move(col));
    } while (lex_.Accept(","));
    STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
    if (lex_.Accept("PARTITION")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      STRATICA_ASSIGN_OR_RETURN(stmt->def.partition_by, ParseExpr());
    }
    return Status::OK();
  }

  Status ParseCreateProjection(CreateProjectionStmt* stmt) {
    ProjectionDef& def = stmt->def;
    def.name = lex_.Next().raw;
    STRATICA_RETURN_NOT_OK(lex_.Expect("("));
    std::vector<std::pair<std::string, EncodingId>> cols;
    do {
      std::string name = lex_.Next().raw;
      EncodingId enc = EncodingId::kAuto;
      if (lex_.Accept("ENCODING")) {
        STRATICA_ASSIGN_OR_RETURN(enc, EncodingFromName(lex_.Next().raw));
      }
      cols.emplace_back(name, enc);
    } while (lex_.Accept(","));
    STRATICA_RETURN_NOT_OK(lex_.Expect(")"));
    STRATICA_RETURN_NOT_OK(lex_.Expect("AS"));
    STRATICA_RETURN_NOT_OK(lex_.Expect("SELECT"));
    // The select list must repeat the projection columns; we skip it.
    do {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr ignored, ParseExpr());
      (void)ignored;
    } while (lex_.Accept(","));
    STRATICA_RETURN_NOT_OK(lex_.Expect("FROM"));
    def.anchor_table = lex_.Next().raw;
    for (auto& [name, enc] : cols) def.columns.push_back({name, -1, enc});
    if (lex_.Accept("ORDER")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      do {
        std::string col = lex_.Next().raw;
        bool found = false;
        for (size_t i = 0; i < def.columns.size(); ++i) {
          if (def.columns[i].name == col) {
            def.sort_columns.push_back(static_cast<uint32_t>(i));
            found = true;
          }
        }
        if (!found)
          return Status::AnalysisError("ORDER BY column not in projection: ", col);
      } while (lex_.Accept(","));
    }
    if (lex_.Accept("UNSEGMENTED")) {
      lex_.Accept("ALL");
      lex_.Accept("NODES");
      def.segmentation.replicated = true;
    } else if (lex_.Accept("SEGMENTED")) {
      STRATICA_RETURN_NOT_OK(lex_.Expect("BY"));
      STRATICA_ASSIGN_OR_RETURN(def.segmentation.expr, ParseExpr());
    } else {
      // Default: hash-segment by the first column.
      def.segmentation.expr = Func(FuncKind::kHash, {Col(cols[0].first)});
    }
    if (lex_.Accept("KSAFE")) {
      stmt->k_safe = static_cast<uint32_t>(std::strtoul(lex_.Next().raw.c_str(), nullptr, 10));
    }
    return Status::OK();
  }

  Lexer lex_;
};

}  // namespace

Result<Statement> ParseSql(const std::string& sql) { return Parser(sql).Parse(); }

}  // namespace stratica
