// Scalar expression AST shared by the catalog (partition / segmentation
// expressions), the SQL front end, the optimizer and the execution engine.
//
// The paper's engine JIT-compiles certain expression evaluations to avoid
// per-row type branching (Section 6.1). Stratica substitutes plan-time
// kernel specialization: EvalPredicate/EvalExpr dispatch once per *block* to
// a type- and operator-specialized loop, so the inner loops are branch-free
// on type exactly as the JIT'd code would be (see DESIGN.md §4).
#ifndef STRATICA_EXPR_EXPR_H_
#define STRATICA_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"
#include "common/types.h"

namespace stratica {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind : uint8_t {
  kColumnRef,
  kLiteral,
  kCompare,
  kArith,
  kLogical,
  kFunc,
  kIn,      // <child> IN (v1, v2, ...)
  kIsNull,  // <child> IS [NOT] NULL
  kCase,    // CASE WHEN c1 THEN v1 ... [ELSE vn] END
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp : uint8_t { kAnd, kOr, kNot };
enum class FuncKind : uint8_t {
  kExtractYear,   // EXTRACT(YEAR FROM d)
  kExtractMonth,  // EXTRACT(MONTH FROM d)
  kYearMonth,     // year*100+month; canonical date partition expression (§3.5)
  kHash,          // HASH(e1, ..., en): segmentation expression (§3.6)
  kLike,          // e LIKE 'pat%'
  kAbs,
  kDateTrunc,     // not exposed in SQL yet; used internally by tests
};

/// \brief A node in a scalar expression tree.
///
/// Nodes are built unbound (column refs carry only names) and bound against
/// a schema with Bind(), which resolves indexes and infers `type`.
struct Expr {
  ExprKind kind;
  TypeId type = TypeId::kInt64;  // valid after Bind

  // kColumnRef
  std::string column_name;   // possibly "table.column"
  int column_index = -1;     // resolved by Bind

  // kLiteral
  Value literal;

  CompareOp cmp = CompareOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  LogicalOp logic = LogicalOp::kAnd;
  FuncKind func = FuncKind::kHash;
  bool negated = false;            // for kIn / kIsNull
  std::vector<Value> in_list;      // for kIn
  std::string like_pattern;        // for kLike

  std::vector<ExprPtr> children;

  std::string ToString() const;
};

/// Schema an expression binds against: ordered (name, type) pairs.
struct BindSchema {
  std::vector<std::string> names;
  std::vector<TypeId> types;

  int Find(const std::string& name) const;
  void Add(const std::string& name, TypeId type) {
    names.push_back(name);
    types.push_back(type);
  }
  size_t size() const { return names.size(); }
};

// --- constructors ----------------------------------------------------------
ExprPtr Col(const std::string& name);
ExprPtr ColIdx(int index, TypeId type);  // pre-bound reference
ExprPtr Lit(Value v);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Func(FuncKind f, std::vector<ExprPtr> args);
ExprPtr InList(ExprPtr e, std::vector<Value> values, bool negated = false);
ExprPtr IsNull(ExprPtr e, bool negated = false);
ExprPtr Like(ExprPtr e, std::string pattern);

/// Deep copy (Bind mutates nodes, so plans copy before rebinding).
ExprPtr CloneExpr(const ExprPtr& e);

/// Resolve column references and infer result types. Idempotent.
Status BindExpr(Expr* e, const BindSchema& schema);
inline Status BindExpr(const ExprPtr& e, const BindSchema& schema) {
  return BindExpr(e.get(), schema);
}

/// Append the conjuncts of `e` (its AND operands, recursively) to `out`;
/// nothing when `e` is null.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Collect the column indexes referenced by a bound expression.
void CollectColumns(const Expr& e, std::vector<int>* out);

/// Evaluate a bound expression over a block, producing a flat column.
Status EvalExpr(const Expr& e, const RowBlock& input, ColumnVector* out);

/// Evaluate a bound predicate over a block into a selection byte vector
/// (1 = row passes). NULL results count as not passing (SQL semantics).
/// Compare-const predicates over RLE or dict-coded columns evaluate without
/// expansion (one compare per run / per dictionary entry); `rows_encoded`
/// (nullable) accumulates the logical rows those encoded paths covered.
Status EvalPredicate(const Expr& e, const RowBlock& input, std::vector<uint8_t>* sel,
                     uint64_t* rows_encoded = nullptr);

/// Selection-in/selection-out predicate evaluation (late materialization):
/// sel[i] = active[i] AND e(row i), with sel sized like `active` (which must
/// have one entry per input row). Rows already dead in `active` are skipped
/// where the expression shape allows — in particular the right side of an
/// AND only evaluates over rows the left side kept, and general expressions
/// evaluate on a compacted block when most rows are dead.
Status EvalPredicateMasked(const Expr& e, const RowBlock& input,
                           const std::vector<uint8_t>& active,
                           std::vector<uint8_t>* sel,
                           uint64_t* rows_encoded = nullptr);

/// Evaluate a bound expression against a single row (slow path).
Result<Value> EvalScalar(const Expr& e, const RowBlock& input, size_t row);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace stratica

#endif  // STRATICA_EXPR_EXPR_H_
