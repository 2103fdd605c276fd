// Scan operator (Section 6.1 #1): reads a projection's ROS containers and
// WOS, "applying predicates in the most advantageous manner possible":
//   - container-level pruning via column min/max (and therefore partition
//     pruning, Section 3.5 / [22]),
//   - block-level pruning via the position index,
//   - epoch (snapshot) filtering via the implicit epoch column,
//   - delete-vector filtering,
//   - vectorized predicate evaluation,
//   - Sideways Information Passing filters installed by hash joins,
//   - late materialization: payload columns decode only for surviving rows,
//   - optional encoded output (RLE runs, dict codes) so downstream operators
//     work on encoded data,
//   - optional sorted output (k-way merge of sorted sources) for merge
//     joins and pipelined aggregation.
#ifndef STRATICA_EXEC_SCAN_H_
#define STRATICA_EXEC_SCAN_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "exec/hash_table.h"
#include "exec/merge.h"
#include "exec/operator.h"
#include "expr/expr.h"
#include "storage/projection_storage.h"

namespace stratica {

/// \brief Filter handed from a HashJoin build side to a probe-side scan
/// (Section 6.1, Sideways Information Passing). Populated when the join's
/// hash table is complete; the pull model guarantees the scan only runs
/// afterwards.
struct SipFilter {
  std::vector<int> probe_columns;  ///< Key columns, as scan-output indexes.
  std::atomic<bool> ready{false};
  FlatHashSet key_hashes;  ///< Build-side key hashes (seed kSipSeed).
  bool has_range = false;  ///< Min/max fast path for single int-class keys.
  int64_t min = 0, max = 0;
};

/// Pruning bound `column <op> literal`, applied to container and block
/// min/max statistics before any data is read: the region carve drops
/// pruned containers and block ranges before any reader opens.
struct PruneBound {
  int output_column;
  CompareOp op;
  Value value;
};

/// Virtual scan outputs (DESIGN.md §7): ScanSpec::projection_columns
/// entries below zero, placed after the projection columns (at least one of
/// which the scan must read). Each is an int64 column.
constexpr int kScanTarget = -1;       ///< container id, or kWosTargetId (as int64)
constexpr int kScanPosition = -2;     ///< the row's position within its target
constexpr int kScanCommitEpoch = -3;  ///< the epoch the row committed at
/// The epoch the row was deleted at, 0 if live at the snapshot. Requesting
/// it makes the scan a history read: deleted rows are kept, not filtered.
constexpr int kScanDeleteEpoch = -4;

/// A slice of one container's blocks, for intra-node parallel scans
/// (Section 3.5: runtime division into logical regions, no physical
/// sub-partitioning required).
struct ScanRegion {
  RosContainerPtr container;
  size_t block_lo = 0;
  size_t block_hi = SIZE_MAX;  // exclusive
};

struct ScanSpec;

/// \brief Shared morsel dispenser for one parallel scan (DESIGN.md §12).
///
/// Every sibling fragment scan of a unit holds the same dispenser. The
/// first fragment to Open snapshots the storage and carves the snapshot
/// into block-range morsels (ScanRegions) under the lock, from the blocks
/// the scan's prune bounds keep (DESIGN.md §6); later fragments
/// reuse that snapshot, so all fragments see one consistent
/// epoch/container set. Fragments then claim morsels one at a
/// time — dynamic self-scheduling, so a fragment stuck on an expensive
/// morsel simply claims fewer of them. The WOS is a single implicit morsel
/// claimed by exactly one fragment.
class MorselDispenser {
 public:
  /// `fanout` is the number of sibling fragments that will share this
  /// dispenser; the snapshot is carved into ~kMorselsPerWorker morsels per
  /// fragment so claim-order imbalance can even out.
  explicit MorselDispenser(size_t fanout) : fanout_(fanout == 0 ? 1 : fanout) {}

  /// Snapshot `spec.storage` and carve it by `spec.prune_bounds` on first
  /// call (thread-safe), counting the blocks and containers the carve
  /// pruned into `stats` once; returns the shared snapshot all fragments
  /// must scan against.
  const StorageSnapshot& EnsureSnapshot(const ScanSpec& spec, Epoch epoch, uint64_t txn_id,
                                        ExecStats* stats);
  /// Claim the next morsel; false = dispenser drained.
  bool Next(ScanRegion* out);
  /// True exactly once: the claiming fragment scans the WOS.
  bool ClaimWos() { return !wos_claimed_.exchange(true, std::memory_order_relaxed); }

  /// Morsel granularity: enough claims per fragment that work-stealing by
  /// claim order absorbs skewed per-morsel costs. Each claim re-opens a
  /// reader per column, so the carve never makes a morsel of pruned blocks.
  static constexpr size_t kMorselsPerWorker = 4;

 private:
  const size_t fanout_;
  std::mutex mu_;
  bool snapped_ = false;  ///< guarded by mu_
  StorageSnapshot snap_;
  std::vector<ScanRegion> morsels_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> wos_claimed_{false};
};

/// \brief Everything a ScanOperator needs: the storage to read, which
/// projection columns to emit (and as what), and the filter/shape knobs —
/// predicate + prune bounds + SIP filters, sorted or encoded output, and
/// an optional shared morsel dispenser (else the scan reads every container
/// the prune bounds keep, plus the WOS). Every block takes the same
/// late-materializing route (DESIGN.md §7); no field switches it off.
struct ScanSpec {
  ProjectionStorage* storage = nullptr;
  /// Projection column indexes in output order, then any virtual columns
  /// (kScanTarget ...).
  std::vector<int> projection_columns;
  std::vector<std::string> output_names;
  std::vector<TypeId> output_types;
  ExprPtr predicate;  ///< bound against the scan output schema; may be null
  std::vector<PruneBound> prune_bounds;
  std::vector<std::shared_ptr<SipFilter>> sips;

  bool sorted_output = false;
  std::vector<uint32_t> sort_key_outputs;  ///< output indexes of sort prefix

  /// Compressed execution (DESIGN.md §13): emit encoded-or-decoded views —
  /// RLE blocks keep runs, BlockDict blocks keep codes + a shared sorted
  /// dictionary — so encoded-aware consumers (group-by, aggregation,
  /// projection passthrough) work without expansion. It survives row
  /// filters (runs are re-cut by the selection) and multi-source scans (no
  /// ordering requirement); a merge-mode scan (sorted output over several
  /// sources) ignores it, since cross-block keys need values. The planner
  /// sets it only when the consuming chain is encoded-aware.
  bool encoded_output = false;

  /// Morsel-driven mode (DESIGN.md §12): claim block ranges from a shared
  /// dispenser instead of scanning every container; only the fragment that
  /// wins MorselDispenser::ClaimWos scans the WOS. Incompatible with
  /// sorted_output (a morsel stream has no global order).
  std::shared_ptr<MorselDispenser> morsels;
};

/// Add the bound conjunct `pred` (scan output schema) to `spec`: AND it into
/// the predicate, and prune by it when it is `column <op> literal`. Planned
/// scans and DML push their WHERE clauses through this one rule.
void AddScanConjunct(ScanSpec* spec, ExprPtr pred);

/// \brief Late-materializing columnar scan (DESIGN.md §7): reads filter
/// columns first as encoded views, computes the selection (epoch
/// visibility, delete vectors, predicate, SIP), and reads payload columns
/// only for surviving rows, then any virtual columns (kScanTarget ...).
/// Reads ROS containers and, when included, the WOS; in morsel mode
/// (ScanSpec::morsels) it claims block ranges from the shared dispenser
/// until drained, polling ExecContext::abandon between storage operations.
class ScanOperator : public Operator {
 public:
  // Constructor/destructor out-of-line: Source is an incomplete type here.
  explicit ScanOperator(ScanSpec spec);
  ~ScanOperator() override;

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override;

  std::vector<TypeId> OutputTypes() const override { return spec_.output_types; }
  std::vector<std::string> OutputNames() const override { return spec_.output_names; }
  std::string DebugString() const override;
  size_t MemoryEstimateBytes() const override {
    // Per-column decode scratch + one in-flight vector per pipeline stage.
    return spec_.output_types.size() * (64 << 10) + (1 << 20);
  }

 private:
  struct Source;
  struct SourceMergeInput;  ///< adapts a Source to the k-way merge kernel

  /// Cooperative abandonment (DESIGN.md §11): true once the exchange decided
  /// this pipeline's output is unwanted. Polled between storage operations so
  /// an orphaned scan on a straggler stops paying slow file ops promptly.
  bool Abandoned() const {
    return ctx_ != nullptr && ctx_->abandon != nullptr &&
           ctx_->abandon->load(std::memory_order_relaxed);
  }

  Status OpenContainerSource(const ScanRegion& region);
  /// Fill del_scratch_ with the delete epoch of rows [row_start,
  /// row_start + n) of `target` visible at the snapshot (0 = live; a row
  /// deleted twice keeps its earliest). True if any row is deleted; when
  /// none is, only a history read's del_scratch_ is filled.
  bool LoadDeletes(uint64_t target, uint64_t row_start, size_t n);
  /// Append the virtual output columns for rows `rows` (offsets into a
  /// source block starting at `row_start` of `target`) to `block`. Commit
  /// epochs come from `epochs` (per block row) or are all `uniform_epoch`;
  /// delete epochs from del_scratch_.
  void AppendVirtuals(uint64_t target, uint64_t row_start,
                      const std::vector<uint32_t>& rows, const ColumnVector* epochs,
                      Epoch uniform_epoch, RowBlock* block) const;
  Status OpenWosSource();
  /// Persistent I/O failure / corruption on a container read: quarantine
  /// this projection copy (the planner then reroutes its segment to a buddy,
  /// DESIGN.md §10) and pass the error through to the caller.
  Status NoteRosFailure(const Source* src, Status st);
  /// Load + filter the next block of `src`; repeats until a non-empty block
  /// or source exhaustion.
  Status Advance(Source* src);
  Status AdvanceRos(Source* src);
  Status AdvanceWos(Source* src);
  /// Compute the full selection vector (epoch, deletes, predicate, SIP) for
  /// one block of `n` rows into sel_scratch_, using only the filter-view
  /// columns in `fblock` (filter_predicate_ and sip_filter_cols_ address
  /// them). `src` may be null (WOS slices: deletes/epochs already applied).
  /// `*selected` receives the surviving row count. `fblock` may hold encoded
  /// (RLE/dict) columns — predicates evaluate on them directly; SIP probing
  /// flattens RLE probe columns in place and translates range filters to
  /// code ranges on sorted-dict columns.
  Status ComputeSelection(Source* src, size_t block_idx, uint64_t row_start,
                          RowBlock* fblock, size_t n, size_t* selected);

  ScanSpec spec_;
  /// Projection columns read from storage: the leading entries of
  /// spec_.projection_columns, before the virtual ones.
  size_t num_stored_ = 0;
  bool wants_commit_epochs_ = false;
  bool history_ = false;  ///< kScanDeleteEpoch requested: keep deleted rows
  ExecContext* ctx_ = nullptr;
  StorageSnapshot snap_;
  std::vector<std::unique_ptr<Source>> sources_;
  size_t current_source_ = 0;
  bool merge_mode_ = false;
  /// Morsel mode: sources are opened lazily, one per claimed morsel, so a
  /// fragment pays reader opens only for the block ranges it actually runs.
  bool morsel_mode_ = false;
  /// Sorted-output k-way merge over the sources (DESIGN.md §8).
  std::unique_ptr<LoserTreeMerger> merger_;

  // Late materialization (DESIGN.md §7), precomputed at Open: the "filter
  // view" is the subset of output columns the selection vector depends on
  // (predicate + SIP probe columns). Payload columns — everything else —
  // are decoded only for surviving rows, and not at all for dead blocks.
  std::vector<int> filter_cols_;        ///< output indexes, ascending
  std::vector<int> filter_pos_;         ///< output index -> filter-view slot (-1)
  std::vector<TypeId> filter_types_;
  ExprPtr filter_predicate_;            ///< predicate rebound to the filter view
  std::vector<std::vector<uint32_t>> sip_filter_cols_;  ///< per SIP, view slots

  // Scratch reused across blocks: selection vectors and batched SIP buffers
  // (the hot loop must not allocate per block).
  std::vector<uint8_t> sel_scratch_;
  std::vector<uint8_t> pred_scratch_;
  ColumnVector epoch_scratch_{TypeId::kInt64};  ///< the block's commit epochs
  std::vector<Epoch> del_scratch_;              ///< the block's delete epochs
  std::vector<uint64_t> hash_buf_;
  std::vector<uint8_t> hit_buf_;
  std::vector<uint8_t> null_buf_;
};

/// Drain a serial scan of one projection copy at `epoch` into one block:
/// every projection column, then the virtual columns `virtuals`. `where`,
/// bound against the copy's columns, filters and prunes as a planned scan's
/// WHERE does. DML, the copy path and tests read copies through this.
Result<RowBlock> ScanCopy(FileSystem* fs, ProjectionStorage* storage, Epoch epoch,
                          const std::vector<int>& virtuals,
                          const ExprPtr& where = nullptr);

}  // namespace stratica

#endif  // STRATICA_EXEC_SCAN_H_
