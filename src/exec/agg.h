// Aggregate function framework shared by HashGroupBy and the Analytic
// operator. Supports single-phase evaluation plus the partial/combine split
// used by per-fragment prepass aggregation (Section 6.1) and two-stage
// distributed aggregation (Section 3.6).
#ifndef STRATICA_EXEC_AGG_H_
#define STRATICA_EXEC_AGG_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"

namespace stratica {

enum class AggKind : uint8_t {
  kCountStar,
  kCount,  // COUNT(col): non-null rows
  kSum,
  kAvg,
  kMin,
  kMax,
  kCountDistinct,
};

const char* AggKindName(AggKind k);

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  int input_column = -1;  ///< -1 for COUNT(*)
  TypeId input_type = TypeId::kInt64;

  TypeId OutputType() const;
  /// Column layout of the partial representation (AVG needs sum + count).
  std::vector<TypeId> PartialTypes() const;
  /// True if this aggregate supports partial/combine evaluation.
  bool Partialable() const { return kind != AggKind::kCountDistinct; }
};

/// \brief COUNT(DISTINCT) values, serialized, with their footprint kept in
/// step with every insertion that adds a value.
struct DistinctSet {
  std::set<std::string> values;
  size_t bytes = 0;  ///< sum over `values` of size() + 32

  void Insert(std::string v) {
    const size_t n = v.size() + 32;
    if (values.insert(std::move(v)).second) bytes += n;
  }
};

/// \brief Accumulator for one (group, aggregate) pair.
struct AggState {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0;
  bool has_value = false;  // for MIN/MAX
  Value extreme;
  std::unique_ptr<DistinctSet> distinct;

  AggState() = default;
  AggState(AggState&&) = default;
  AggState& operator=(AggState&&) = default;
  // Deep copy (container growth copies states around).
  AggState(const AggState& other) { *this = other; }
  AggState& operator=(const AggState& other) {
    if (this == &other) return *this;
    count = other.count;
    isum = other.isum;
    dsum = other.dsum;
    has_value = other.has_value;
    extreme = other.extreme;
    distinct = other.distinct ? std::make_unique<DistinctSet>(*other.distinct) : nullptr;
    return *this;
  }

  /// Fold one input row (appearing `run` times) into the state.
  void Update(const AggSpec& spec, const ColumnVector& col, size_t phys, uint32_t run);
  void UpdateCountStar(uint32_t run) { count += run; }
  /// Fold another state (combine phase / spill merge).
  void Merge(const AggSpec& spec, const AggState& other);

  /// Fold a row of partial columns (combine phase).
  void UpdatePartial(const AggSpec& spec, const RowBlock& block, size_t first_col,
                     size_t row);

  Value Final(const AggSpec& spec) const;
  /// Append the partial representation to `cols[first..]`.
  void EmitPartial(const AggSpec& spec, std::vector<ColumnVector>* cols,
                   size_t first_col) const;

  std::string Serialize(const AggSpec& spec) const;
  static Result<AggState> Parse(const AggSpec& spec, const std::string& data);

  size_t MemoryBytes() const { return sizeof(AggState) + (distinct ? distinct->bytes : 0); }
};

/// Evaluation phase of a GroupBy operator.
enum class AggPhase : uint8_t {
  kSingle,   ///< raw input -> final values
  kPartial,  ///< raw input -> partial columns (per-fragment / local stage)
  kCombine,  ///< partial columns -> final values (final stage)
};

/// Output schema (types) of a group-by given its phase.
std::vector<TypeId> GroupByOutputTypes(const std::vector<TypeId>& group_types,
                                       const std::vector<AggSpec>& aggs,
                                       AggPhase phase);

}  // namespace stratica

#endif  // STRATICA_EXEC_AGG_H_
