// Join operators (Section 6.1 #3): hash join and merge join, both able to
// externalize; all of INNER, LEFT/RIGHT/FULL OUTER, SEMI and ANTI.
//
// The hash join builds from its inner (right) child into a SharedJoinBuild:
// a serial join owns one with fan-out 1, and the morsel fragments of a
// parallel plan share one with fan-out N (DESIGN.md §12). When the build
// side exceeds the memory budget the engine switches algorithms at runtime —
// "if Vertica determines at runtime the hash table for a hash join will not
// fit in memory, we will perform a sort-merge join instead" — by spooling
// the build side to disk and delegating to a MergeJoin over sorted inputs.
//
// After a successful in-memory build, the join publishes a SIP filter
// (Sideways Information Passing) that probe-side scans use to drop rows
// that cannot join, as early as possible in the plan.
#ifndef STRATICA_EXEC_JOIN_H_
#define STRATICA_EXEC_JOIN_H_

#include <algorithm>
#include <mutex>

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {

enum class JoinType : uint8_t { kInner, kLeft, kRight, kFull, kSemi, kAnti };

const char* JoinTypeName(JoinType t);

struct JoinSpec {
  JoinType type = JoinType::kInner;
  std::vector<uint32_t> probe_keys;  ///< outer (left) child key columns
  std::vector<uint32_t> build_keys;  ///< inner (right) child key columns
  /// SIP filter to publish once the hash table is built (may be null; the
  /// optimizer only installs one when the join type allows filtering).
  std::shared_ptr<SipFilter> sip;
};

/// \brief The build side of a hash join (DESIGN.md §12): the inner input
/// is read and hashed once, however many fragments probe it. A serial join
/// is the case `fanout` = 1.
///
/// The first fragment to Open executes the build under the lock: it pulls
/// the owned build child to completion, then inserts the rows into
/// `fanout`-sharded FlatHashTables with one work-stealing task per shard on
/// the query's Scheduler (shard = high hash bits, so a probe derives its
/// shard from the key hash alone and only ever reads one shard). Later
/// fragments block until the build resolves and probe the shards read-only.
/// NULL-key rows stay in rows() but enter no shard: they never match, and
/// only a fan-out-1 RIGHT/FULL join emits them as unmatched build rows
/// (the matched-bit array would race across fragments, so the operator
/// rejects RIGHT/FULL above fan-out 1 and the planner keeps such plans
/// serial). Each build block is reserved against the query's budget; when
/// one is refused, the rows are spooled to a single spill file, the
/// reservation is released, and every fragment independently
/// switches to a sort-merge join over it (each fragment's probe subset
/// against the full build unions to the exact per-unit result).
class SharedJoinBuild {
 public:
  /// `spec` carries the build keys and, for the pipeline that owns SIP
  /// publication, the SIP filter to fill. `fanout` = number of fragments
  /// that will share this build (also the shard-parallelism target).
  SharedJoinBuild(OperatorPtr build, JoinSpec spec, size_t fanout);

  /// Run or await the build; every fragment calls this from Open and shares
  /// the first caller's status.
  Status Ensure(ExecContext* ctx);
  /// Last fragment to close releases the build's budget reservation.
  void FragmentClosed(ExecContext* ctx);

  /// Valid after Ensure: the build exceeded its budget and lives in
  /// spill_path() instead of rows()/shards.
  bool spilled() const { return spilled_; }
  const std::string& spill_path() const { return spill_path_; }
  const RowBlock& rows() const { return rows_; }
  size_t fanout() const { return fanout_; }
  const JoinSpec& spec() const { return spec_; }
  Operator* child() const { return build_.get(); }
  std::vector<TypeId> OutputTypes() const { return build_->OutputTypes(); }
  std::vector<std::string> OutputNames() const { return build_->OutputNames(); }

  /// Batched probe: heads[i] = the first rows() index whose key hash equals
  /// hashes[i], or FlatHashTable::kNone (always where null_keys[i] is set).
  /// Prefetches the home slot of upcoming rows in their shards so
  /// independent probes overlap their cache misses.
  void ProbeHeads(const uint64_t* hashes, const uint8_t* null_keys, size_t n,
                  uint32_t* heads) const;
  /// The next rows() index in `row`'s equal-hash chain, or kNone.
  uint32_t NextRow(uint32_t row) const { return next_row_[row]; }

 private:
  struct Shard {
    FlatHashTable table;         ///< local dense entry ids
    std::vector<uint32_t> rows;  ///< local entry id -> rows_ row index
  };

  uint32_t ShardOf(uint64_t hash) const {
    return static_cast<uint32_t>((hash >> 32) & shard_mask_);
  }
  Status Build(ExecContext* ctx);  ///< caller holds mu_

  OperatorPtr build_;
  JoinSpec spec_;
  const size_t fanout_;
  std::mutex mu_;
  bool done_ = false;  ///< guarded by mu_, as is everything below until set
  Status status_;
  bool spilled_ = false;
  std::string spill_path_;
  RowBlock rows_;
  /// Equal-hash chains in rows_ index space, so probers never see shards.
  std::vector<uint32_t> next_row_;
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t reserved_ = 0;        ///< bytes of rows_ held until the last close
  size_t open_fragments_;      ///< fragments that have not closed yet
};

/// \brief Hash join (Section 6.1 #3): probes a SharedJoinBuild of the inner
/// child, streaming the probe side with batched hash/probe passes.
/// Externalizes by switching to a sort-merge join at runtime when the build
/// would not fit, and publishes a SIP filter after an in-memory build. A
/// serial join owns its build (fan-out 1); the morsel fragments of a
/// parallel plan share one, and only the probe side is per-fragment.
class HashJoinOperator : public Operator {
 public:
  /// Serial join: the build is owned by this operator alone (fan-out 1).
  HashJoinOperator(OperatorPtr probe, OperatorPtr build, JoinSpec spec)
      : HashJoinOperator(std::move(probe),
                         std::make_shared<SharedJoinBuild>(std::move(build),
                                                           std::move(spec), 1),
                         /*show_build=*/true) {}

  /// Probe against `shared`, which may be shared with sibling morsel
  /// fragments (DESIGN.md §12); the join spec is the build's. `show_build`
  /// lets exactly one fragment expose the build subtree via Children() so
  /// EXPLAIN and plan-memory estimation count it once.
  HashJoinOperator(OperatorPtr probe, std::shared_ptr<SharedJoinBuild> shared,
                   bool show_build)
      : probe_(std::move(probe)),
        spec_(shared->spec()),
        shared_(std::move(shared)),
        show_build_(show_build) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override;
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override;
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override;
  size_t MemoryEstimateBytes() const override {
    // Build-side rows + hash table; a build the query's budget refuses
    // switches to a sort-merge join. The build is one table split across
    // `fanout` sibling operators, so each fragment accounts a slice and the
    // unit totals what one serial join reserves.
    return std::max<size_t>((8 << 20) / shared_->fanout(), 64 << 10);
  }

  bool switched_to_merge() const { return fallback_ != nullptr; }

 private:
  Status EmitUnmatchedBuild(RowBlock* out);

  OperatorPtr probe_;
  JoinSpec spec_;
  std::shared_ptr<SharedJoinBuild> shared_;  ///< never null
  bool show_build_ = false;
  ExecContext* ctx_ = nullptr;

  /// Per rows() index: matched by some probe row (RIGHT/FULL only).
  std::vector<uint8_t> build_matched_;
  std::vector<uint64_t> hash_buf_;  // batched probe key hashes
  std::vector<uint32_t> head_buf_;  // batched probe chain heads
  std::vector<uint8_t> null_key_buf_;

  RowBlock probe_block_;
  bool probe_done_ = false;
  size_t unmatched_cursor_ = 0;
  bool emitting_unmatched_ = false;

  OperatorPtr fallback_;  ///< merge-join pipeline after a runtime switch
};

/// \brief Merge join over inputs sorted ascending on the join keys.
class MergeJoinOperator : public Operator {
 public:
  MergeJoinOperator(OperatorPtr left, OperatorPtr right, JoinSpec spec)
      : left_(std::move(left)), right_(std::move(right)), spec_(std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override;
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override;
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Buffered cursor over a child's stream.
  struct Cursor {
    Operator* op = nullptr;
    RowBlock block;
    size_t pos = 0;
    bool done = false;

    Status Refill();
    bool Valid() const { return !done; }
  };

  /// Collect all consecutive rows equal to the current row's keys.
  Status CollectGroup(Cursor* cur, const std::vector<uint32_t>& keys, RowBlock* group);

  OperatorPtr left_, right_;
  JoinSpec spec_;
  ExecContext* ctx_ = nullptr;
  Cursor lcur_, rcur_;
  std::vector<TypeId> left_types_, right_types_;
  RowBlock pending_;  ///< cross-product overflow buffer
  size_t pending_cursor_ = 0;
};

/// \brief Operator reading back a spill file (used by the hash->merge
/// runtime switch).
class SpillSourceOperator : public Operator {
 public:
  SpillSourceOperator(std::string path, std::vector<TypeId> types,
                      std::vector<std::string> names)
      : path_(std::move(path)), types_(std::move(types)), names_(std::move(names)) {}

  Status Open(ExecContext* ctx) override {
    reader_ = std::make_unique<SpillReader>(ctx->fs, path_, types_);
    return reader_->Open();
  }
  Status GetNext(RowBlock* out) override { return reader_->Next(out); }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override { return types_; }
  std::vector<std::string> OutputNames() const override { return names_; }
  std::string DebugString() const override { return "SpillSource(" + path_ + ")"; }

 private:
  std::string path_;
  std::vector<TypeId> types_;
  std::vector<std::string> names_;
  std::unique_ptr<SpillReader> reader_;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_JOIN_H_
