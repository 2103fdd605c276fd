// ExprEval (projection), Filter, Sort (externalizing), Limit, and the
// in-memory source used by tests and DML plumbing.
#ifndef STRATICA_EXEC_SIMPLE_OPS_H_
#define STRATICA_EXEC_SIMPLE_OPS_H_

#include <memory>

#include "exec/merge.h"
#include "exec/operator.h"
#include "exec/spill.h"
#include "expr/expr.h"
#include "storage/sort_util.h"

namespace stratica {

/// \brief Operator over a pre-materialized block (tests, VALUES, DML).
class MaterializedOperator : public Operator {
 public:
  MaterializedOperator(RowBlock block, std::vector<std::string> names)
      : block_(std::move(block)), names_(std::move(names)) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    cursor_ = 0;
    // Decode once at first Open — and only if any column is actually RLE,
    // so a flat materialized table isn't held in memory twice.
    if (flat_.columns.empty()) {
      bool any_rle = false;
      for (const auto& c : block_.columns) any_rle |= c.IsRle();
      if (any_rle) {
        flat_ = block_;
        flat_.DecodeAll();
      }
    }
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override;
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> t;
    for (const auto& c : block_.columns) t.push_back(c.type);
    return t;
  }
  std::vector<std::string> OutputNames() const override { return names_; }
  std::string DebugString() const override { return "Materialized"; }

 private:
  /// Rows to serve: flat_ when block_ needed RLE decoding, block_ itself
  /// otherwise (no duplicate copy of already-flat data).
  const RowBlock& Rows() const { return flat_.columns.empty() ? block_ : flat_; }

  RowBlock block_;
  RowBlock flat_;  ///< decoded copy, only populated when block_ has RLE columns
  std::vector<std::string> names_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

/// \brief ExprEval (Section 6.1 #4): computes one output column per
/// expression over the child's rows.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                  std::vector<std::string> names);

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override { return names_; }
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override { return {child_.get()}; }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  ExecContext* ctx_ = nullptr;
};

/// \brief Row filter for predicates not pushed into a scan (e.g. HAVING).
class FilterOperator : public Operator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return child_->Open(ctx);
  }
  Status GetNext(RowBlock* out) override;
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override { return child_->OutputTypes(); }
  std::vector<std::string> OutputNames() const override { return child_->OutputNames(); }
  std::string DebugString() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  std::vector<Operator*> Children() const override { return {child_.get()}; }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
};

/// \brief Sort (Section 6.1 #5): externalizing sort over normalized keys
/// (DESIGN.md §8). Run generation reserves each input block against the
/// query's budget (ExecContext::budget); when a reservation is refused it
/// sorts the buffer with a memcmp-class normalized-key sort, spills it as a
/// run and releases what it held. The final run stays in memory and all
/// runs stream through a k-way loser-tree merge. When a Limit sits above
/// the Sort, the planner passes `limit_hint` and the operator switches to a
/// fused top-k heap that keeps O(`limit_hint`) rows buffered and never
/// spills.
class SortOperator : public Operator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortKey> keys, uint64_t limit_hint = 0)
      : child_(std::move(child)), keys_(std::move(keys)), limit_hint_(limit_hint) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override { return child_->OutputTypes(); }
  std::vector<std::string> OutputNames() const override { return child_->OutputNames(); }
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override { return {child_.get()}; }
  size_t MemoryEstimateBytes() const override {
    // Top-k keeps O(limit_hint) rows; a full sort spills when the query's
    // budget refuses a block.
    return limit_hint_ > 0 ? (1 << 20) : (16 << 20);
  }

  size_t runs_spilled() const { return run_paths_.size(); }

 private:
  Status ConsumeRuns();       ///< run generation + spill (general path)
  Status ConsumeTopK();       ///< bounded heap (limit-hint path)
  Status SpillRun();          ///< sort + spill the current buffer
  RowBlock SortBuffer();      ///< normalized-key sort of buffer_
  void CompactTopKStore();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  uint64_t limit_hint_;
  ExecContext* ctx_ = nullptr;

  RowBlock buffer_;
  size_t reserved_ = 0;  ///< bytes of buffer_ held against ctx_->budget
  std::vector<std::string> run_paths_;
  std::unique_ptr<LoserTreeMerger> merger_;

  RowBlock sorted_;  ///< in-memory result when nothing spilled (or top-k)
  size_t cursor_ = 0;
  bool merge_mode_ = false;

  /// Top-k: max-heap of the best `limit_hint_` rows seen so far, ordered by
  /// (normalized key, arrival sequence) so duplicates resolve exactly like a
  /// stable full sort. Rows live append-only in topk_store_ and are
  /// compacted when the store outgrows the heap 4:1.
  struct TopKEntry {
    std::string key;
    uint64_t seq;
    uint32_t row;  ///< row in topk_store_
  };
  std::vector<TopKEntry> heap_;
  RowBlock topk_store_;
  uint64_t topk_seq_ = 0;
};

/// \brief LIMIT n (with optional OFFSET).
class LimitOperator : public Operator {
 public:
  LimitOperator(OperatorPtr child, uint64_t limit, uint64_t offset = 0)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  Status Open(ExecContext* ctx) override {
    seen_ = emitted_ = 0;
    return child_->Open(ctx);
  }
  Status GetNext(RowBlock* out) override;
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override { return child_->OutputTypes(); }
  std::vector<std::string> OutputNames() const override { return child_->OutputNames(); }
  std::string DebugString() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }
  std::vector<Operator*> Children() const override { return {child_.get()}; }

 private:
  OperatorPtr child_;
  uint64_t limit_, offset_;
  uint64_t seen_ = 0, emitted_ = 0;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_SIMPLE_OPS_H_
