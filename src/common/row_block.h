// Vectorized data plane: ColumnVector and RowBlock.
//
// Operators exchange blocks of rows rather than single tuples (Section 6.1:
// "the EE is fully vectorized and makes requests for blocks of rows at a
// time"). A ColumnVector may additionally carry run lengths so that
// operators able to work directly on RLE-encoded data (scans, pipelined
// group-by, merge join) can do so without expansion.
#ifndef STRATICA_COMMON_ROW_BLOCK_H_
#define STRATICA_COMMON_ROW_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace stratica {

/// Default number of rows exchanged between operators per GetNext call.
constexpr size_t kDefaultVectorSize = 4096;

/// \brief A typed column of values, optionally run-length or dictionary
/// encoded.
///
/// Storage layout depends on StorageClassOf(type): ints/bools/dates live in
/// `ints`, floats in `doubles`, strings in `strings`. `nulls` is either
/// empty (no NULLs) or parallel to the physical entries. When `runs` is
/// non-empty it is parallel to the physical entries and the logical row
/// count is the sum of the run lengths.
///
/// When `dict` is set the column is dictionary-coded: `ints` holds one
/// dictionary code per row (regardless of `type`'s storage class), `nulls`
/// is row-parallel to the codes, and the value of row i is
/// `(*dict)[ints[i]]`. Codes of NULL rows are unspecified but in-range.
/// `dict` is an immutable flat vector of `type`; `dict_sorted` means the
/// dictionary entries are in ascending value order, so code order == value
/// order (enables code-range predicates and code-based sort keys). A column
/// is never both RLE and dict-coded.
struct ColumnVector {
  TypeId type = TypeId::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<uint8_t> nulls;   // 1 = NULL; empty means all valid
  std::vector<uint32_t> runs;   // empty means every run length is 1
  std::shared_ptr<const ColumnVector> dict;  // set => ints are dict codes
  bool dict_sorted = false;     // dict entries ascend in value order

  ColumnVector() = default;
  explicit ColumnVector(TypeId t) : type(t) {}

  /// Number of physical entries (== logical rows unless RLE).
  size_t PhysicalSize() const {
    if (dict) return ints.size();
    switch (StorageClassOf(type)) {
      case StorageClass::kInt64: return ints.size();
      case StorageClass::kFloat64: return doubles.size();
      case StorageClass::kString: return strings.size();
    }
    return 0;
  }

  /// Number of logical rows.
  size_t Size() const {
    if (runs.empty()) return PhysicalSize();
    size_t n = 0;
    for (uint32_t r : runs) n += r;
    return n;
  }

  bool IsRle() const { return !runs.empty(); }
  bool IsDictCoded() const { return dict != nullptr; }
  /// Flat materialized values — neither RLE nor dict-coded.
  bool IsFlat() const { return runs.empty() && dict == nullptr; }
  bool IsNull(size_t phys) const { return !nulls.empty() && nulls[phys] != 0; }

  void Reserve(size_t n);
  void Clear();

  /// Append a scalar (slow path; loaders and tests).
  void Append(const Value& v);
  /// Append a physical entry copied from another vector of the same type.
  void AppendFrom(const ColumnVector& src, size_t phys);
  /// Append a run of n identical values copied from src[phys] (keeps RLE form
  /// if this vector already uses runs or n > 1).
  void AppendRunFrom(const ColumnVector& src, size_t phys, uint32_t n);

  /// Bulk-append physical entries [start, start+count) of a flat `src` (the
  /// vectorized counterpart of a per-row AppendFrom loop).
  void AppendRange(const ColumnVector& src, size_t start, size_t count);

  /// Scalar accessor by physical index (slow path).
  Value GetValue(size_t phys) const;

  /// Expand run-length or dictionary encoding into a flat vector (no-op
  /// when already flat).
  ColumnVector Decoded() const;

  /// Keep only the rows where sel[i] != 0; `sel` has one entry per logical
  /// row (Size()). Flat vectors compact values, dict-coded vectors compact
  /// codes (the dictionary is shared), and RLE vectors shorten runs to their
  /// surviving row counts and drop empty ones, so they stay RLE.
  void Filter(const std::vector<uint8_t>& sel);

  /// Append src[idx] for every index in `indices` (typed batch gather; both
  /// vectors must be flat). The hot path of join materialization.
  void AppendGather(const ColumnVector& src, const std::vector<uint32_t>& indices);

  /// Bytes of heap memory used (for operator memory accounting).
  size_t MemoryBytes() const;

  /// Hash one physical entry (combines NULL-ness).
  uint64_t HashEntry(size_t phys) const;

  /// Compare physical entries across (possibly different) vectors of the
  /// same type. NULL sorts first.
  static int CompareEntries(const ColumnVector& a, size_t ia, const ColumnVector& b,
                            size_t ib);
};

/// \brief A batch of rows: one ColumnVector per output column.
///
/// Invariant: all columns have the same logical Size(). Columns may disagree
/// on physical size when some are RLE.
struct RowBlock {
  std::vector<ColumnVector> columns;

  RowBlock() = default;
  explicit RowBlock(std::vector<TypeId> types) {
    columns.reserve(types.size());
    for (TypeId t : types) columns.emplace_back(t);
  }

  size_t NumColumns() const { return columns.size(); }
  size_t NumRows() const { return columns.empty() ? 0 : columns[0].Size(); }
  bool Empty() const { return NumRows() == 0; }

  void Clear() {
    for (auto& c : columns) c.Clear();
  }

  /// Expand any RLE or dict-coded columns so every column is flat.
  void DecodeAll() {
    for (auto& c : columns) {
      if (!c.IsFlat()) c = c.Decoded();
    }
  }

  /// Append row `row` (physical == logical; block must be flat) from src.
  void AppendRowFrom(const RowBlock& src, size_t row) {
    for (size_t c = 0; c < columns.size(); ++c) columns[c].AppendFrom(src.columns[c], row);
  }
  /// Append rows [start, start+count) of `src` column by column (the bulk
  /// counterpart of an AppendRowFrom loop; src columns must not be RLE).
  void AppendRange(const RowBlock& src, size_t start, size_t count) {
    for (size_t c = 0; c < columns.size(); ++c)
      columns[c].AppendRange(src.columns[c], start, count);
  }

  size_t MemoryBytes() const {
    size_t n = 0;
    for (const auto& c : columns) n += c.MemoryBytes();
    return n;
  }

  /// Render rows as text lines (debugging / golden tests).
  std::string ToString(size_t max_rows = 20) const;
};

// ---------------------------------------------------------------------------
// Batched hashing (the vectorized counterpart of ColumnVector::HashEntry).
//
// One type-specialized loop per storage class, null-aware, writing 64-bit
// hashes for a whole column at once — the per-row type switch happens once
// per block instead of once per row. All functions produce bit-identical
// results to per-row HashEntry/HashCombine chains, so scalar and batched
// paths may be mixed freely.

/// out[i] = hash of physical entry i (i in [0, col.PhysicalSize())).
void HashColumn(const ColumnVector& col, uint64_t* out);

/// out[i] = HashCombine(out[i], hash of physical entry i) — accumulate a
/// multi-column key hash column by column.
void HashColumnCombine(const ColumnVector& col, uint64_t* out);

/// Combined hash of `cols` for every row of a flat block, seeded with
/// `seed`: the batched equivalent of HashGroupKey. Resizes *out.
void HashRows(const RowBlock& block, const std::vector<uint32_t>& cols, uint64_t seed,
              std::vector<uint64_t>* out);

/// HashRows restricted to rows with sel[i] != 0 (out entries of unselected
/// rows are uninitialized — callers must not read them), for consumers that
/// pre-filter rows cheaply (e.g. SIP range pruning) and must not pay
/// hashing cost for dead rows.
void HashRowsMasked(const RowBlock& block, const std::vector<uint32_t>& cols,
                    uint64_t seed, const uint8_t* sel, std::vector<uint64_t>* out);

/// out[i] = 1 iff any of `cols` is NULL at row i — the batched "NULL keys
/// never join/match" mask shared by join build/probe and scan-side SIP.
void NullKeyMask(const RowBlock& block, const std::vector<uint32_t>& cols,
                 std::vector<uint8_t>* out);

}  // namespace stratica

#endif  // STRATICA_COMMON_ROW_BLOCK_H_
