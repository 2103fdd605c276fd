// GroupBy (Section 6.1 #2). One operator, HashGroupByOperator, fills the
// paper's three GroupBy roles:
//   hash       the general case; externalizes to grace partitions when over
//              its memory budget.
//   pipelined  over key-sorted RLE input ConsumeRleKey resolves one group
//              per run and aggregates by run length, keeping the incoming
//              data encoded (DESIGN.md §13).
//   prepass    each morsel fragment runs a partial (AggPhase::kPartial)
//              HashGroupBy right above its scan; the fragments' partials
//              cross the ParallelUnion/Recv gather into one combine
//              HashGroupBy (DESIGN.md §12).
#ifndef STRATICA_EXEC_GROUP_BY_H_
#define STRATICA_EXEC_GROUP_BY_H_

#include <deque>

#include "exec/agg.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/spill.h"

namespace stratica {

struct GroupBySpec {
  std::vector<uint32_t> group_columns;  ///< child output column indexes
  std::vector<AggSpec> aggs;
  AggPhase phase = AggPhase::kSingle;
  std::vector<std::string> output_names;  ///< group names then agg names
};

/// \brief Hash aggregation with grace-partition externalization. The table
/// reserves its growth against the query's budget after every input block;
/// when a reservation is refused, groups spill to 16 hash-disjoint partitions;
/// at end of input the partitions merge back — as independent work-stealing
/// tasks on the query's Scheduler when one is installed (DESIGN.md §12),
/// since no group can span two partitions.
class HashGroupByOperator : public Operator {
 public:
  HashGroupByOperator(OperatorPtr child, GroupBySpec spec)
      : child_(std::move(child)), spec_(std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override { return spec_.output_names; }
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override { return {child_.get()}; }
  size_t MemoryEstimateBytes() const override {
    // Hash table + group keys/states; a table that outgrows the query's
    // budget spills to grace partitions.
    return 8 << 20;
  }

 private:
  struct Table {
    RowBlock keys;                         // one row per group
    std::vector<std::vector<AggState>> states;  // [group][agg]
    FlatHashTable index;                   // group id == table entry id
    size_t bytes = 0;
  };

  /// Consume one input block. Encoded-aware (DESIGN.md §13): blocks may
  /// arrive with RLE or dict-coded columns and are routed to a matching
  /// fast path; the universal fallback flattens RLE columns in place (dict
  /// columns stay coded — hashing, comparison and aggregation all resolve
  /// codes through the dictionary).
  void Consume(RowBlock* block);
  /// No GROUP BY: one global state per agg, updated by run length over RLE
  /// columns and by per-code occurrence counts over dict columns.
  void ConsumeGlobal(const RowBlock& block);
  /// Single dict-coded group column: a dense code→group-id map (rebuilt
  /// when the block's dictionary changes) short-circuits the hash table;
  /// only first-seen codes pay FindOrInsertGroup.
  void ConsumeDictKey(RowBlock* block);
  /// Single RLE group column: resolve the group once per run, aggregate
  /// same-column aggs by run length.
  void ConsumeRleKey(RowBlock* block);
  /// Consume the child, spilling on a refused reservation, then fill
  /// output_ (merging grace partitions if any spilled).
  Status Aggregate();
  /// Find or create the group for `row` (key hash `h` precomputed by the
  /// batched hasher); returns the group id.
  uint32_t FindOrInsertGroup(Table* table, const RowBlock& block,
                             const std::vector<uint32_t>& key_cols, size_t row,
                             uint64_t h);
  Status SpillTable();
  Status EmitTable(const Table& table, std::deque<RowBlock>* out);
  /// Re-aggregate one grace partition into `out`. Touches only the
  /// partition's own reader/table/buffers, so partitions merge in parallel.
  Status MergePartition(SpillWriter* part, const std::vector<TypeId>& rec_types,
                        const std::vector<uint32_t>& key_cols,
                        std::deque<RowBlock>* out);
  std::vector<TypeId> GroupTypes() const;

  OperatorPtr child_;
  GroupBySpec spec_;
  ExecContext* ctx_ = nullptr;
  Table table_;
  size_t reserved_ = 0;  ///< bytes of table_ held against ctx_->budget
  std::vector<uint32_t> identity_cols_;  // 0..num_group_cols-1, hoisted
  std::vector<uint64_t> hash_buf_;       // per-block batched key hashes
  std::vector<uint32_t> head_buf_;       // per-block batched probe results
  /// Dense code→group-id cache for ConsumeDictKey, valid while the blocks'
  /// dictionary pointer stays `code_map_dict_` (the shared_ptr keeps it
  /// alive, so pointer identity is a safe key). Last slot = the NULL group.
  /// Invalidated on spill (group ids reset with the table).
  std::shared_ptr<const ColumnVector> code_map_dict_;
  std::vector<uint32_t> code_map_;
  static constexpr size_t kSpillPartitions = 16;
  std::vector<std::unique_ptr<SpillWriter>> partitions_;
  std::deque<RowBlock> output_;
  bool emitted_ = false;
};

/// Scalar reference for the batched HashRows(block, cols, kGroupKeySeed)
/// path: hash of the group-key columns of one row. Hot loops use HashRows;
/// this stays as the executable spec (tests assert batch == scalar).
uint64_t HashGroupKey(const RowBlock& block, const std::vector<uint32_t>& cols,
                      size_t row);

/// Shared helper: do two key rows match exactly?
bool GroupKeyEquals(const RowBlock& a, const std::vector<uint32_t>& cols_a, size_t ra,
                    const RowBlock& b, const std::vector<uint32_t>& cols_b, size_t rb);

}  // namespace stratica

#endif  // STRATICA_EXEC_GROUP_BY_H_
