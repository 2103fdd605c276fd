// Execution engine core (Section 6.1).
//
// Pull-model, vectorized operators: the downstream operator requests blocks
// of rows from upstream. GetNext returning an empty block signals EOF.
// Every operator receives a memory budget and must externalize (spill) when
// it would exceed it — "critical for a production database to ensure users
// queries are always answered".
#ifndef STRATICA_EXEC_OPERATOR_H_
#define STRATICA_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/row_block.h"
#include "common/status.h"
#include "txn/epoch.h"

namespace stratica {

class Scheduler;

/// Execution counters surfaced by EXPLAIN/benches.
struct ExecStats {
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> blocks_pruned{0};      ///< position-index min/max pruning
  std::atomic<uint64_t> containers_pruned{0};  ///< container/partition pruning
  std::atomic<uint64_t> rows_sip_filtered{0};  ///< removed by SIP at the scan
  /// Physical values materialized for payload (non-filter) columns by the
  /// late-materialization scan — one count per column per row decoded, so a
  /// selective scan reports ≈ rows_selected × payload_columns, not
  /// rows_scanned × payload_columns (DESIGN.md §7).
  std::atomic<uint64_t> rows_decoded{0};
  /// Encoded bytes of payload-column blocks never read because the block's
  /// selection came back empty (zero I/O, zero decode).
  std::atomic<uint64_t> payload_bytes_skipped{0};
  std::atomic<uint64_t> bytes_read{0};         ///< encoded bytes fetched by scans
  std::atomic<uint64_t> rows_spilled{0};
  std::atomic<uint64_t> spill_files{0};
  std::atomic<uint64_t> sort_runs{0};           ///< sorted runs spilled by Sort
  std::atomic<uint64_t> sort_spilled_bytes{0};  ///< serialized bytes of those runs
  /// Rows a top-k Sort discarded without buffering (they could not beat the
  /// current k-th key) — the savings of the fused Limit+Sort path.
  std::atomic<uint64_t> topk_rows_pruned{0};
  std::atomic<uint64_t> hash_to_merge_switches{0};
  std::atomic<uint64_t> exchange_bytes{0};     ///< simulated interconnect traffic
  /// Transient I/O errors absorbed by reader-level retry (DESIGN.md §10).
  std::atomic<uint64_t> io_retries{0};
  /// Reads rerouted to a buddy copy after a persistent failure quarantined
  /// the originally-planned projection storage.
  std::atomic<uint64_t> reads_failed_over{0};
  /// Straggler mitigation (DESIGN.md §11): speculative re-issues of an
  /// exchange partition against a buddy copy after its deadline expired with
  /// zero progress.
  std::atomic<uint64_t> exchange_hedges{0};
  /// Exchange partitions where the planned primary producer failed and a
  /// buddy copy served the slot instead — whether the backup was spawned in
  /// response to the failure or was already in flight as a hedge.
  std::atomic<uint64_t> exchange_reroutes{0};
  /// Compressed execution (DESIGN.md §13): logical rows an operator consumed
  /// in encoded form — predicate eval by RLE run or dict code, aggregation
  /// by run length, group-by via the code→group map — instead of on
  /// materialized values.
  std::atomic<uint64_t> rows_processed_encoded{0};
  /// Encoded bytes of blocks that left the scan still encoded (runs or dict
  /// codes) — decode work the executor never paid.
  std::atomic<uint64_t> decode_elided_bytes{0};
  /// Queries the planner ran serial because the scan carries order (sorted
  /// output) and so cannot ride the morsel path; keeps AllowedFanout
  /// accounting honest about the bypass (DESIGN.md §12).
  std::atomic<uint64_t> morsel_bypasses{0};

  /// Fold another query's counters into this one (Database keeps one
  /// cumulative ExecStats; each query runs against its own and merges on
  /// completion so concurrent queries never interleave counters).
  void MergeFrom(const ExecStats& other) {
    rows_scanned += other.rows_scanned.load(std::memory_order_relaxed);
    blocks_pruned += other.blocks_pruned.load(std::memory_order_relaxed);
    containers_pruned += other.containers_pruned.load(std::memory_order_relaxed);
    rows_sip_filtered += other.rows_sip_filtered.load(std::memory_order_relaxed);
    rows_decoded += other.rows_decoded.load(std::memory_order_relaxed);
    payload_bytes_skipped += other.payload_bytes_skipped.load(std::memory_order_relaxed);
    bytes_read += other.bytes_read.load(std::memory_order_relaxed);
    rows_spilled += other.rows_spilled.load(std::memory_order_relaxed);
    spill_files += other.spill_files.load(std::memory_order_relaxed);
    sort_runs += other.sort_runs.load(std::memory_order_relaxed);
    sort_spilled_bytes += other.sort_spilled_bytes.load(std::memory_order_relaxed);
    topk_rows_pruned += other.topk_rows_pruned.load(std::memory_order_relaxed);
    hash_to_merge_switches += other.hash_to_merge_switches.load(std::memory_order_relaxed);
    exchange_bytes += other.exchange_bytes.load(std::memory_order_relaxed);
    io_retries += other.io_retries.load(std::memory_order_relaxed);
    reads_failed_over += other.reads_failed_over.load(std::memory_order_relaxed);
    exchange_hedges += other.exchange_hedges.load(std::memory_order_relaxed);
    exchange_reroutes += other.exchange_reroutes.load(std::memory_order_relaxed);
    rows_processed_encoded += other.rows_processed_encoded.load(std::memory_order_relaxed);
    decode_elided_bytes += other.decode_elided_bytes.load(std::memory_order_relaxed);
    morsel_bypasses += other.morsel_bypasses.load(std::memory_order_relaxed);
  }
};

/// \brief Byte budget shared by the operators of one plan zone.
///
/// Plan zones separated by full barriers (Sort) cannot execute
/// simultaneously, so downstream zones reuse the budget upstream zones
/// release (Section 6.1).
class ResourceBudget {
 public:
  explicit ResourceBudget(size_t total_bytes) : available_(static_cast<int64_t>(total_bytes)) {}

  bool TryReserve(size_t bytes) {
    int64_t b = static_cast<int64_t>(bytes);
    int64_t cur = available_.load(std::memory_order_relaxed);
    while (cur >= b) {
      if (available_.compare_exchange_weak(cur, cur - b)) return true;
    }
    return false;
  }
  void Release(size_t bytes) { available_.fetch_add(static_cast<int64_t>(bytes)); }

 private:
  std::atomic<int64_t> available_;
};

/// Shared, per-query execution environment.
struct ExecContext {
  FileSystem* fs = nullptr;
  Epoch epoch = 0;       ///< Snapshot epoch the query targets.
  uint64_t txn_id = 0;   ///< For read-your-writes visibility.
  /// The query's memory: the admission reservation (DESIGN.md §9) and the
  /// one limit every spilling operator is held to. The hash join build,
  /// hash group-by and sort each Reserve what they buffer, block by block,
  /// spill when a reservation is refused, and Release what they hold. Null
  /// = unbounded (tests and benches only; Database always installs one).
  ResourceBudget* budget = nullptr;
  ExecStats* stats = nullptr;
  std::string spill_dir = "tmp/spill";
  std::shared_ptr<std::atomic<uint64_t>> spill_seq =
      std::make_shared<std::atomic<uint64_t>>(0);
  size_t vector_size = kDefaultVectorSize;
  /// Worker fan-out this query may use for intra-node parallelism: morsel
  /// pipelines per scan unit and TaskSet width for partitioned hash builds
  /// (DESIGN.md §12). Derived from the admission reservation — see
  /// ResourceManager::AllowedFanout — so memory authority stays with the
  /// resource manager. 1 = serial; ignored when `scheduler` is null.
  size_t intra_node_parallelism = 4;
  /// Unified worker pool (DESIGN.md §12): exchange producers, morsel
  /// fragments, and partitioned build tasks all run here. Null = spawn
  /// nothing in parallel (operators fall back to their serial paths).
  Scheduler* scheduler = nullptr;
  /// Straggler-hedging policy for exchanges (DESIGN.md §11). 0 disables
  /// hedging; otherwise a producer that has pushed nothing by the deadline
  /// is speculatively re-issued against its buddy copy. The deadline doubles
  /// on each attempt (exponential backoff) up to hedge_max_attempts.
  uint64_t hedge_deadline_ms = 0;
  uint32_t hedge_max_attempts = 2;
  /// Cooperative abandonment (DESIGN.md §11): the exchange sets this flag
  /// when the producer pipeline running under this context no longer matters
  /// — another source claimed its partition, the slot completed, or the
  /// exchange was cancelled. Leaf operators poll it between storage
  /// operations and exit early with a clean EOF, so a straggling producer
  /// (where every file op is slow) stops consuming I/O once hedged past and
  /// does not stall query teardown for the rest of its scan.
  const std::atomic<bool>* abandon = nullptr;

  /// Reserve `bytes` more against `budget` and add them to the operator's
  /// `*reserved`. False = refused: the caller spills, then Releases.
  bool Reserve(size_t bytes, size_t* reserved) {
    if (budget != nullptr && !budget->TryReserve(bytes)) return false;
    *reserved += bytes;
    return true;
  }
  /// Return everything the operator holds (`*reserved`) to `budget`.
  void Release(size_t* reserved) {
    if (budget != nullptr) budget->Release(*reserved);
    *reserved = 0;
  }

  std::string NextSpillPath() {
    return spill_dir + "/s" + std::to_string(spill_seq->fetch_add(1));
  }
};

/// \brief Base class for all execution operators.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open(ExecContext* ctx) = 0;
  /// Fill `out`; an empty block means end of stream.
  virtual Status GetNext(RowBlock* out) = 0;
  virtual Status Close() = 0;

  virtual std::vector<TypeId> OutputTypes() const = 0;
  virtual std::vector<std::string> OutputNames() const = 0;

  /// One-line description for EXPLAIN trees.
  virtual std::string DebugString() const = 0;
  virtual std::vector<Operator*> Children() const { return {}; }

  /// Working-set estimate for this operator alone (no children), used by
  /// the resource manager's admission reservation. Deliberately coarse —
  /// the paper's resource manager also plans against budgeted estimates,
  /// not measured usage. The spilling operators are held to the sum through
  /// ExecContext::budget, so an under-estimate costs a spill, not an overrun.
  virtual size_t MemoryEstimateBytes() const { return 256 << 10; }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Sum of MemoryEstimateBytes over the whole plan tree: the admission
/// reservation the planner attaches to a PhysicalPlan.
size_t EstimatePlanMemory(const Operator& root);

/// Render an operator tree as an indented EXPLAIN listing.
std::string ExplainTree(const Operator& root);

/// Drain an operator to completion, concatenating output (tests, DML).
Result<RowBlock> DrainOperator(Operator* op, ExecContext* ctx);

}  // namespace stratica

#endif  // STRATICA_EXEC_OPERATOR_H_
