#include "api/database.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "exec/scan.h"
#include "exec/simple_ops.h"
#include "storage/sort_util.h"

namespace stratica {

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream out;
  if (!message.empty()) out << message << "\n";
  if (column_names.empty()) return out.str();
  for (size_t c = 0; c < column_names.size(); ++c) {
    if (c) out << " | ";
    out << column_names[c];
  }
  out << "\n";
  for (size_t c = 0; c < column_names.size(); ++c) {
    if (c) out << "-+-";
    out << std::string(column_names[c].size(), '-');
  }
  out << "\n";
  out << rows.ToString(max_rows);
  return out.str();
}

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  scheduler_ = std::make_unique<Scheduler>(options_.worker_threads);
  hedge_deadline_ms_.store(options_.hedge_deadline_ms, std::memory_order_relaxed);
  fs_ = options_.fs ? options_.fs : std::make_shared<MemFileSystem>();
  ClusterConfig ccfg;
  ccfg.num_nodes = options_.num_nodes;
  ccfg.k_safety = options_.k_safety;
  ccfg.local_segments_per_node = options_.local_segments_per_node;
  ccfg.tuple_mover = options_.tuple_mover;
  ccfg.direct_ros_row_threshold = options_.direct_ros_row_threshold;
  cluster_ = std::make_unique<Cluster>(ccfg, fs_.get(), &catalog_);
  planner_ = std::make_unique<Planner>(cluster_.get());
  budget_ = std::make_unique<ResourceBudget>(options_.query_memory_budget);
  ResourceManagerConfig rmcfg;
  rmcfg.memory_pool_bytes = options_.query_memory_budget;
  rmcfg.max_concurrent_queries = options_.max_concurrent_queries;
  rmcfg.admission_timeout = std::chrono::milliseconds(options_.admission_timeout_ms);
  resource_manager_ = std::make_unique<ResourceManager>(rmcfg);
  spill_seq_ = std::make_shared<std::atomic<uint64_t>>(0);
  if (options_.tuple_mover_interval_ms > 0) StartBackgroundTupleMover();
}

Database::~Database() { StopBackgroundTupleMover(); }

/// Per-query execution environment, built at admission. stats/budget are
/// heap-held so the session stays movable (ExecStats is all atomics).
struct Database::QuerySession {
  AdmissionTicket ticket;
  Epoch epoch = 0;
  std::unique_ptr<ExecStats> stats;
  std::unique_ptr<ResourceBudget> budget;
};

Result<Database::QuerySession> Database::AdmitQuery(size_t reserve_bytes) {
  QuerySession session;
  STRATICA_ASSIGN_OR_RETURN(session.ticket, resource_manager_->Admit(reserve_bytes));
  // The snapshot is pinned here, at admission: a queued query sees data
  // committed while it waited, and holds exactly this epoch for its whole
  // run no matter what commits later (lock-free snapshot reads, Section 5).
  session.epoch = cluster_->epochs()->LatestQueryableEpoch();
  session.stats = std::make_unique<ExecStats>();
  session.budget = std::make_unique<ResourceBudget>(session.ticket.bytes());
  return session;
}

ExecContext Database::SessionContext(QuerySession* session) {
  ExecContext ctx;
  ctx.fs = fs_.get();
  ctx.epoch = session->epoch;
  ctx.budget = session->budget.get();
  ctx.stats = session->stats.get();
  ctx.spill_seq = spill_seq_;
  ctx.scheduler = scheduler_.get();
  ctx.intra_node_parallelism = options_.intra_node_parallelism;
  ctx.hedge_deadline_ms = hedge_deadline_ms_.load(std::memory_order_relaxed);
  ctx.hedge_max_attempts = options_.hedge_max_attempts;
  return ctx;
}

void Database::MergeSessionStats(const QuerySession& session) {
  stats_.MergeFrom(*session.stats);
}

ExecContext Database::MakeExecContext() {
  ExecContext ctx;
  ctx.fs = fs_.get();
  ctx.epoch = cluster_->epochs()->LatestQueryableEpoch();
  ctx.budget = budget_.get();
  ctx.stats = &stats_;
  ctx.spill_seq = spill_seq_;
  ctx.scheduler = scheduler_.get();
  ctx.intra_node_parallelism = options_.intra_node_parallelism;
  ctx.hedge_deadline_ms = hedge_deadline_ms_.load(std::memory_order_relaxed);
  ctx.hedge_max_attempts = options_.hedge_max_attempts;
  return ctx;
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  STRATICA_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  switch (stmt.type) {
    case Statement::Type::kSelect:
      return RunSelect(stmt.select);
    case Statement::Type::kExplain: {
      // Plans but never executes, so it bypasses admission.
      STRATICA_ASSIGN_OR_RETURN(
          std::string tree,
          planner_->Explain(stmt.select, options_.intra_node_parallelism));
      QueryResult result;
      result.message = tree;
      return result;
    }
    // DML admits at the statement level with the floor reservation (its
    // working set is the statement's own row block, not a plan tree — no
    // exec session needed, just the reservation and a concurrency slot).
    case Statement::Type::kInsert: {
      STRATICA_ASSIGN_OR_RETURN(AdmissionTicket ticket, resource_manager_->Admit(0));
      return RunInsert(stmt.insert);
    }
    case Statement::Type::kCopy: {
      STRATICA_ASSIGN_OR_RETURN(AdmissionTicket ticket, resource_manager_->Admit(0));
      return RunCopy(stmt.copy);
    }
    case Statement::Type::kDelete: {
      STRATICA_ASSIGN_OR_RETURN(AdmissionTicket ticket, resource_manager_->Admit(0));
      return RunDelete(stmt.del);
    }
    case Statement::Type::kUpdate: {
      STRATICA_ASSIGN_OR_RETURN(AdmissionTicket ticket, resource_manager_->Admit(0));
      return RunUpdate(stmt.update);
    }
    case Statement::Type::kCreateTable: {
      STRATICA_RETURN_NOT_OK(
          cluster_->CreateTableWithSuperProjection(stmt.create_table.def));
      QueryResult result;
      result.message = "CREATE TABLE";
      return result;
    }
    case Statement::Type::kCreateProjection: {
      STRATICA_RETURN_NOT_OK(
          cluster_->CreateProjectionWithBuddies(stmt.create_projection.def));
      // Populate from existing data if the anchor table already has rows.
      // A refresh failure must surface AND undo the DDL: a half-created,
      // unpopulated projection would answer queries with missing rows.
      STRATICA_ASSIGN_OR_RETURN(ProjectionDef stored,
                                catalog_.GetProjection(stmt.create_projection.def.name));
      Status refreshed = cluster_->RefreshProjection(stored.name);
      for (uint32_t k = 1; refreshed.ok() && k <= options_.k_safety; ++k) {
        refreshed = cluster_->RefreshProjection(stored.name + "_b" + std::to_string(k));
      }
      if (!refreshed.ok()) {
        (void)cluster_->DropProjectionWithBuddies(stored.name);
        return refreshed;
      }
      QueryResult result;
      result.message = "CREATE PROJECTION";
      return result;
    }
    case Statement::Type::kDropTable: {
      STRATICA_RETURN_NOT_OK(cluster_->DropTable(stmt.drop_table));
      QueryResult result;
      result.message = "DROP TABLE";
      return result;
    }
  }
  return Status::Internal("unhandled statement type");
}

Result<QueryResult> Database::RunSelect(const SelectStmt& stmt) {
  // Degraded execution (DESIGN.md §10): a persistent read failure mid-scan
  // has already quarantined the failing projection copy, so planning again
  // routes that segment to a buddy. Bounded replan-retries keep the query
  // alive through K quarantines; when no healthy copy remains the planner
  // itself returns ClusterUnavailable, which is terminal.
  constexpr int kMaxPlanAttempts = 3;
  Status last;
  for (int attempt = 0; attempt < kMaxPlanAttempts; ++attempt) {
    STRATICA_ASSIGN_OR_RETURN(
        PhysicalPlan plan,
        planner_->PlanSelect(stmt, options_.intra_node_parallelism));
    STRATICA_ASSIGN_OR_RETURN(QuerySession session,
                              AdmitQuery(plan.estimated_memory_bytes));
    // The admission reservation is the one budget covering the query's
    // worker fan-out (DESIGN.md §12): when the pool granted less than the
    // plan assumed, replan at the proportionally smaller fan-out so
    // per-fragment memory stays as estimated.
    size_t allowed = ResourceManager::AllowedFanout(
        session.ticket.bytes(), plan.estimated_memory_bytes, plan.fanout);
    if (allowed < plan.fanout) {
      STRATICA_ASSIGN_OR_RETURN(plan, planner_->PlanSelect(stmt, allowed));
    }
    if (attempt > 0) session.stats->reads_failed_over.fetch_add(1);
    // Order-carrying scan shapes planned serial on purpose (DESIGN.md §12):
    // surface the bypass so fan-out accounting is auditable.
    if (plan.morsel_bypass) session.stats->morsel_bypasses.fetch_add(1);
    ExecContext ctx = SessionContext(&session);
    ctx.intra_node_parallelism = plan.fanout;
    auto rows = DrainOperator(plan.root.get(), &ctx);
    // Tear the operator tree down before the session: on the error path
    // DrainOperator leaves exchange producer threads running, and they hold
    // pointers to the session's per-query stats until joined by the tree's
    // destructor. (plan.column_names/types survive the root's teardown.)
    plan.root.reset();
    MergeSessionStats(session);
    if (rows.ok()) {
      QueryResult result;
      result.column_names = plan.column_names;
      result.column_types = plan.column_types;
      result.rows = std::move(rows).value();
      return result;
    }
    last = rows.status();
    bool retryable = last.code() == StatusCode::kIoError ||
                     last.code() == StatusCode::kCorruption;
    if (!retryable) return last;
  }
  return last;
}

Result<LoadResult> Database::Load(const std::string& table, const RowBlock& rows,
                                  bool direct) {
  auto txn = cluster_->txns()->Begin();
  auto loaded = cluster_->Load(table, rows, txn.get(), direct);
  if (!loaded.ok()) {
    cluster_->txns()->Rollback(txn);
    return loaded.status();
  }
  STRATICA_ASSIGN_OR_RETURN(Epoch ignored, cluster_->Commit(txn));
  (void)ignored;
  return loaded;
}

Status Database::RunTupleMover() { return cluster_->RunTupleMover(); }

void Database::StartBackgroundTupleMover() {
  std::lock_guard lock(tm_mu_);
  if (tm_task_.joinable()) return;  // already running
  auto stop = std::make_shared<std::atomic<bool>>(false);
  tm_stop_ = stop;
  uint32_t interval_ms =
      options_.tuple_mover_interval_ms > 0 ? options_.tuple_mover_interval_ms : 100;
  // A pinned task on the unified pool (DESIGN.md §12): background storage
  // work shares the query scheduler's cached reservoir instead of owning a
  // raw thread.
  tm_task_ = scheduler_->StartPinned([this, stop, interval_ms] {
    std::unique_lock lock(tm_mu_);
    while (!stop->load()) {
      if (tm_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                          [&] { return stop->load(); })) {
        break;
      }
      lock.unlock();
      // Failures here are retried next tick; the mover skips busy tables
      // on its own (T-lock timeout in Cluster::RunTupleMover).
      (void)cluster_->RunTupleMover();
      lock.lock();
    }
  });
}

void Database::StopBackgroundTupleMover() {
  Scheduler::Pinned finished;
  {
    std::lock_guard lock(tm_mu_);
    if (!tm_task_.joinable()) return;
    tm_stop_->store(true);
    // Hand the task out under the mutex so a concurrent Start sees the
    // service as stopped and can launch a fresh one (with its own flag).
    finished = std::move(tm_task_);
  }
  tm_cv_.notify_all();
  finished.Join();
}

Result<QueryResult> Database::RunInsert(const InsertStmt& stmt) {
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(stmt.table));
  RowBlock rows(def.ToBindSchema().types);
  // One-row carrier block so literal expressions evaluate to one value.
  RowBlock one({TypeId::kInt64});
  one.columns[0].ints.push_back(0);
  for (const auto& row : stmt.rows) {
    if (row.size() != def.columns.size())
      return Status::AnalysisError("INSERT arity mismatch for ", stmt.table);
    for (size_t c = 0; c < row.size(); ++c) {
      ExprPtr e = CloneExpr(row[c]);
      STRATICA_RETURN_NOT_OK(BindExpr(e, BindSchema{}));
      STRATICA_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, one, 0));
      // Integral literals coerce to the column's date/timestamp types.
      if (!v.is_null() && StorageClassOf(def.columns[c].type) == StorageClass::kInt64 &&
          StorageClassOf(v.type()) == StorageClass::kInt64) {
        v = Value::OfInt(def.columns[c].type, v.i64());
      }
      if (!v.is_null() && def.columns[c].type == TypeId::kFloat64 &&
          v.type() == TypeId::kInt64) {
        v = Value::Float64(static_cast<double>(v.i64()));
      }
      if (!v.is_null() && def.columns[c].type == TypeId::kDate &&
          v.type() == TypeId::kString) {
        STRATICA_ASSIGN_OR_RETURN(int64_t days, ParseDate(v.str()));
        v = Value::Date(days);
      }
      rows.columns[c].Append(v);
    }
  }
  STRATICA_ASSIGN_OR_RETURN(LoadResult loaded, Load(stmt.table, rows));
  QueryResult result;
  result.affected_rows = loaded.rows_loaded;
  result.message = "INSERT " + std::to_string(loaded.rows_loaded);
  return result;
}

Result<QueryResult> Database::RunCopy(const CopyStmt& stmt) {
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(stmt.table));
  std::ifstream in(stmt.path);
  if (!in) return Status::IoError("cannot open ", stmt.path);
  RowBlock rows(def.ToBindSchema().types);
  std::string line;
  uint64_t lineno = 0;
  std::vector<RejectedRecord> rejected;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == stmt.delimiter) {
        fields.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
    if (fields.size() != def.columns.size()) {
      rejected.push_back({lineno, "field count mismatch"});
      continue;
    }
    bool ok = true;
    std::vector<Value> values;
    for (size_t c = 0; c < fields.size() && ok; ++c) {
      auto v = Value::Parse(def.columns[c].type, fields[c]);
      if (!v.ok()) {
        rejected.push_back({lineno, v.status().ToString()});
        ok = false;
      } else {
        values.push_back(std::move(v).value());
      }
    }
    if (!ok) continue;
    for (size_t c = 0; c < values.size(); ++c) rows.columns[c].Append(values[c]);
  }
  STRATICA_ASSIGN_OR_RETURN(LoadResult loaded, Load(stmt.table, rows, stmt.direct));
  QueryResult result;
  result.affected_rows = loaded.rows_loaded;
  result.message = "COPY " + std::to_string(loaded.rows_loaded) + " (rejected " +
                   std::to_string(rejected.size() + loaded.rejected.size()) + ")";
  return result;
}

Status Database::ApplyDelete(const std::string& table, const ExprPtr& where,
                             Transaction* txn, RowBlock* deleted_rows) {
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(table));
  STRATICA_RETURN_NOT_OK(
      cluster_->locks()->Acquire(txn->id(), table, LockMode::kX));
  Epoch snapshot = txn->snapshot_epoch();
  bool captured = false;

  // Super projections first: they can always evaluate the predicate and
  // capture the deleted rows' content, which narrow projections (missing
  // predicate columns) then delete by content matching.
  auto projections = catalog_.ProjectionsForTable(table);
  std::stable_sort(projections.begin(), projections.end(),
                   [](const ProjectionDef& a, const ProjectionDef& b) {
                     return a.is_super && !b.is_super;
                   });

  // A DELETE is a scan that outputs positions (Section 3.7.1): per copy,
  // the WHERE clause filters and prunes a scan whose matching live rows
  // come out with their target and position, grouped by target into one
  // delete chunk each.
  for (const auto& proj : projections) {
    const size_t ncols = proj.columns.size();
    std::vector<std::pair<size_t, size_t>> content_cols;  // (projection, table)
    for (size_t c = 0; c < ncols; ++c)
      content_cols.emplace_back(c, static_cast<size_t>(proj.columns[c].table_column));
    // A projection lacking a predicate column deletes the rows the super
    // projections captured instead, each copy matching them by content over
    // the columns it shares with the table.
    ExprPtr pred = where ? CloneExpr(where) : nullptr;
    const bool use_content_match = pred && !BindExpr(pred, proj.ToBindSchema(def)).ok();
    if (use_content_match && !captured)
      return Status::NotImplemented(
          "DELETE predicate references columns missing from projection ", proj.name,
          " and no super capture is available");

    for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
      Node* node = cluster_->node(n);
      if (!node->up()) continue;
      auto* ps = node->GetStorage(proj.name);
      if (!ps) continue;
      STRATICA_ASSIGN_OR_RETURN(
          RowBlock rows, ScanCopy(fs_.get(), ps, snapshot, {kScanTarget, kScanPosition},
                                  use_content_match ? nullptr : pred));
      if (use_content_match) {
        std::vector<uint32_t> hit;
        for (int64_t m : MatchByContent(rows, *deleted_rows, content_cols))
          if (m >= 0) hit.push_back(static_cast<uint32_t>(m));
        std::sort(hit.begin(), hit.end());  // back in target, position order
        rows = ApplyPermutation(rows, hit);
      }
      if (proj.is_super && !captured) {
        // Capture table-ordered row content once (for UPDATE re-insert and
        // narrow-projection content matching).
        for (size_t tc = 0; tc < def.columns.size(); ++tc) {
          int pc = proj.FindColumn(def.columns[tc].name);
          deleted_rows->columns[tc].AppendRange(rows.columns[pc], 0, rows.NumRows());
        }
      }
      // The scan emits each target's rows together, in position order.
      const auto& targets = rows.columns[ncols].ints;
      const auto& positions = rows.columns[ncols + 1].ints;
      for (size_t lo = 0, hi = 0; lo < targets.size(); lo = hi) {
        while (hi < targets.size() && targets[hi] == targets[lo]) ++hi;
        STRATICA_RETURN_NOT_OK(ps->AddDeletes(
            static_cast<uint64_t>(targets[lo]),
            std::vector<uint64_t>(positions.begin() + lo, positions.begin() + hi), txn));
      }
    }
    if (proj.is_super) captured = true;
  }
  return Status::OK();
}

Result<QueryResult> Database::RunDelete(const DeleteStmt& stmt) {
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(stmt.table));
  auto txn = cluster_->txns()->Begin();
  RowBlock captured(def.ToBindSchema().types);
  Status st = ApplyDelete(stmt.table, stmt.where, txn.get(), &captured);
  if (!st.ok()) {
    cluster_->txns()->Rollback(txn);
    return st;
  }
  STRATICA_RETURN_NOT_OK(cluster_->Commit(txn).status());
  QueryResult result;
  result.affected_rows = captured.NumRows();
  result.message = "DELETE " + std::to_string(captured.NumRows());
  return result;
}

Result<QueryResult> Database::RunUpdate(const UpdateStmt& stmt) {
  // UPDATE = DELETE + INSERT (Section 3.7.1), in one transaction.
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_.GetTable(stmt.table));
  auto txn = cluster_->txns()->Begin();
  RowBlock old_rows(def.ToBindSchema().types);
  Status deleted = ApplyDelete(stmt.table, stmt.where, txn.get(), &old_rows);
  if (!deleted.ok()) {
    cluster_->txns()->Rollback(txn);
    return deleted;
  }
  // Apply assignments to the captured rows.
  RowBlock new_rows(def.ToBindSchema().types);
  BindSchema schema = def.ToBindSchema();
  std::vector<int> assigned(def.columns.size(), -1);
  std::vector<ExprPtr> exprs;
  for (const auto& [col, expr] : stmt.assignments) {
    int idx = def.FindColumn(col);
    if (idx < 0) {
      cluster_->txns()->Rollback(txn);
      return Status::AnalysisError("no such column: ", col);
    }
    ExprPtr e = CloneExpr(expr);
    Status st = BindExpr(e, schema);
    if (!st.ok()) {
      cluster_->txns()->Rollback(txn);
      return st;
    }
    assigned[idx] = static_cast<int>(exprs.size());
    exprs.push_back(e);
  }
  for (size_t c = 0; c < def.columns.size(); ++c) {
    if (assigned[c] < 0) {
      new_rows.columns[c] = old_rows.columns[c];
    } else {
      Status st = EvalExpr(*exprs[assigned[c]], old_rows, &new_rows.columns[c]);
      if (!st.ok()) {
        cluster_->txns()->Rollback(txn);
        return st;
      }
      new_rows.columns[c].type = def.columns[c].type;
    }
  }
  auto loaded = cluster_->Load(stmt.table, new_rows, txn.get());
  if (!loaded.ok()) {
    cluster_->txns()->Rollback(txn);
    return loaded.status();
  }
  STRATICA_RETURN_NOT_OK(cluster_->Commit(txn).status());
  QueryResult result;
  result.affected_rows = old_rows.NumRows();
  result.message = "UPDATE " + std::to_string(old_rows.NumRows());
  return result;
}

}  // namespace stratica
