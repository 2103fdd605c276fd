// Public entry point: a Stratica database instance.
//
// Owns the catalog, the (simulated) cluster, and the SQL pipeline. Typical
// use mirrors the paper's deployment story: create tables (each gets a
// default super projection plus K buddies), bulk load, let the tuple mover
// reorganize storage in the background, and query with standard SQL.
#ifndef STRATICA_API_DATABASE_H_
#define STRATICA_API_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "exec/resource_manager.h"
#include "exec/scheduler.h"
#include "opt/planner.h"
#include "sql/parser.h"

namespace stratica {

struct DatabaseOptions {
  uint32_t num_nodes = 1;
  uint32_t k_safety = 0;
  uint32_t local_segments_per_node = 3;
  /// Total memory the resource manager may reserve across all concurrently
  /// admitted queries (DESIGN.md §9).
  size_t query_memory_budget = 256ull << 20;
  /// Concurrency slot cap: queries beyond this queue at admission even if
  /// memory is free. 0 = bounded by memory alone.
  size_t max_concurrent_queries = 0;
  /// How long a query waits in the admission queue before failing with
  /// ResourceExhausted.
  uint32_t admission_timeout_ms = 10000;
  /// Morsel fragments per scan unit in SELECT plans (DESIGN.md §12);
  /// admission may scale a query's fan-out down when the pool is tight.
  size_t intra_node_parallelism = 4;
  /// Worker threads of the database's Scheduler (the unified pool running
  /// morsel tasks and pinned pipeline drivers). 0 = hardware concurrency.
  size_t worker_threads = 0;
  /// Straggler hedging for exchanges (DESIGN.md §11): a producer pipeline
  /// with zero progress by this deadline is speculatively re-issued against
  /// a buddy copy; the deadline doubles per attempt. 0 disables hedging
  /// (reroute-on-failure against buddies stays on regardless).
  uint64_t hedge_deadline_ms = 0;
  uint32_t hedge_max_attempts = 2;
  uint64_t direct_ros_row_threshold = 100000;
  TupleMoverConfig tuple_mover;
  /// Interval of the background tuple-mover service thread; 0 keeps the
  /// tuple mover manual (RunTupleMover), as tests and benches expect.
  uint32_t tuple_mover_interval_ms = 0;
  /// Null = in-memory filesystem (tests, benches).
  std::shared_ptr<FileSystem> fs;
};

/// Tabular query result.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
  RowBlock rows;
  uint64_t affected_rows = 0;  ///< for DML
  std::string message;         ///< DDL / EXPLAIN output

  size_t NumRows() const { return rows.NumRows(); }
  Value At(size_t row, size_t col) const { return rows.columns[col].GetValue(row); }
  std::string ToString(size_t max_rows = 50) const;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Execute one SQL statement. Safe to call from many threads: each query
  /// is admitted by the resource manager against `query_memory_budget`,
  /// pinned to the latest queryable epoch at admission, and runs with its
  /// own ExecStats and memory budget (DESIGN.md §9).
  Result<QueryResult> Execute(const std::string& sql);

  /// Bulk load a block of rows (the programmatic COPY path). Set `direct`
  /// to bypass the WOS (Section 7).
  Result<LoadResult> Load(const std::string& table, const RowBlock& rows,
                          bool direct = false);

  /// One tuple-mover pass (moveout + mergeout + DV moves) on every node.
  Status RunTupleMover();

  /// Start/stop the background tuple-mover service: a thread running
  /// RunTupleMover every `tuple_mover_interval_ms` concurrently with live
  /// queries (started automatically when the option is nonzero). Stop is
  /// idempotent and joins the thread.
  void StartBackgroundTupleMover();
  void StopBackgroundTupleMover();

  /// Adjust the exchange straggler-hedging deadline at runtime (0 disables
  /// hedging; reroute-on-failure stays on). Applies to queries admitted
  /// after the call. Chaos harnesses use this to isolate the reroute path
  /// from speculative hedges.
  void SetHedgeDeadlineMs(uint64_t ms) {
    hedge_deadline_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Advance the Ancient History Mark per the default policy.
  Status AdvanceAhm() { return cluster_->AdvanceAhm(); }

  Cluster* cluster() { return cluster_.get(); }
  Catalog* catalog() { return &catalog_; }
  FileSystem* fs() { return fs_.get(); }
  /// Cumulative counters across all finished queries (each query runs with
  /// its own ExecStats, merged here on completion).
  ExecStats* stats() { return &stats_; }
  ResourceManager* resource_manager() { return resource_manager_.get(); }
  /// The unified worker pool (DESIGN.md §12): morsel tasks, exchange
  /// producers and the background tuple mover all run here.
  Scheduler* scheduler() { return scheduler_.get(); }

  /// Execution context for hand-built operator trees (benches). Shares the
  /// database-wide cumulative stats and budget: single-caller use only.
  ExecContext MakeExecContext();

 private:
  /// Per-query execution environment: admission ticket, pinned snapshot
  /// epoch, private stats and memory budget.
  struct QuerySession;

  /// Admit a query (DML statements reserve the floor amount) and build its
  /// session. Fails with ResourceExhausted on admission timeout.
  Result<QuerySession> AdmitQuery(size_t reserve_bytes);
  ExecContext SessionContext(QuerySession* session);
  /// Fold a finished query's counters into the cumulative totals.
  void MergeSessionStats(const QuerySession& session);

  Result<QueryResult> RunSelect(const SelectStmt& stmt);
  Result<QueryResult> RunInsert(const InsertStmt& stmt);
  Result<QueryResult> RunCopy(const CopyStmt& stmt);
  Result<QueryResult> RunDelete(const DeleteStmt& stmt);
  Result<QueryResult> RunUpdate(const UpdateStmt& stmt);
  /// Shared by DELETE and UPDATE: scan every up copy of the table's
  /// projections for the live rows matching `where` and register their
  /// positions as delete vectors; `deleted_rows` (required) receives their
  /// content.
  Status ApplyDelete(const std::string& table, const ExprPtr& where, Transaction* txn,
                     RowBlock* deleted_rows);

  DatabaseOptions options_;
  /// Declared first so it is destroyed last: query teardown and the tuple
  /// mover join their pinned tasks while the pool must still be alive.
  std::unique_ptr<Scheduler> scheduler_;
  /// Live hedging deadline (seeded from options_, see SetHedgeDeadlineMs).
  std::atomic<uint64_t> hedge_deadline_ms_{0};
  std::shared_ptr<FileSystem> fs_;
  Catalog catalog_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Planner> planner_;
  ExecStats stats_;
  std::unique_ptr<ResourceBudget> budget_;
  std::unique_ptr<ResourceManager> resource_manager_;
  /// Spill-path sequence shared by every query context so concurrent
  /// spills never collide on a file name.
  std::shared_ptr<std::atomic<uint64_t>> spill_seq_;

  // Background tuple-mover service: a pinned task on the scheduler's
  // reservoir. Each service task owns its stop flag, so a Start racing an
  // in-progress Stop launches a fresh task instead of silently no-oping
  // (or resurrecting the stopping one).
  Scheduler::Pinned tm_task_;
  std::mutex tm_mu_;
  std::condition_variable tm_cv_;
  std::shared_ptr<std::atomic<bool>> tm_stop_;
};

}  // namespace stratica

#endif  // STRATICA_API_DATABASE_H_
