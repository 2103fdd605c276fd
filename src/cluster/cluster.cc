#include "cluster/cluster.h"

#include <algorithm>

#include "storage/sort_util.h"

namespace stratica {

// ---------------------------------------------------------------------------
// Node

ProjectionStorage* Node::GetStorage(const std::string& projection) {
  std::lock_guard lock(mu_);
  auto it = storage_.find(projection);
  return it == storage_.end() ? nullptr : it->second.get();
}

ProjectionStorage* Node::AddStorage(const std::string& projection,
                                    ProjectionStorageConfig cfg) {
  std::lock_guard lock(mu_);
  auto ps = std::make_unique<ProjectionStorage>(fs_, BaseDir() + "/" + projection,
                                                std::move(cfg));
  ps->SetHostUpFlag(&up_);
  auto* raw = ps.get();
  storage_[projection] = std::move(ps);
  return raw;
}

std::unique_ptr<ProjectionStorage> Node::ReplaceStorage(
    const std::string& projection, std::unique_ptr<ProjectionStorage> ps) {
  std::lock_guard lock(mu_);
  ps->SetHostUpFlag(&up_);
  auto& slot = storage_[projection];
  slot.swap(ps);
  return ps;  // the previous storage (null when the node had none)
}

std::unique_ptr<ProjectionStorage> Node::TakeStorage(const std::string& projection) {
  std::lock_guard lock(mu_);
  auto it = storage_.find(projection);
  if (it == storage_.end()) return nullptr;
  auto out = std::move(it->second);
  storage_.erase(it);
  return out;
}

void Node::DropStorage(const std::string& projection) {
  std::lock_guard lock(mu_);
  auto it = storage_.find(projection);
  if (it != storage_.end()) {
    it->second->Clear(/*delete_files=*/true);
    storage_.erase(it);
  }
}

std::vector<std::string> Node::StorageNames() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, ps] : storage_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(ClusterConfig cfg, FileSystem* fs, Catalog* catalog)
    : cfg_(cfg), fs_(fs), catalog_(catalog), txns_(&epochs_, &locks_) {
  // Reserve headroom for elastic adds up front: node(i) readers race
  // push_back during a rebalance, which is only safe while the vector never
  // reallocates.
  nodes_.reserve(cfg.num_nodes + kMaxAddedNodes);
  for (uint32_t i = 0; i < cfg.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, fs_, &epochs_, cfg.tuple_mover));
  }
  active_nodes_.store(cfg.num_nodes, std::memory_order_release);
}

size_t Cluster::NumUpNodes() const {
  size_t up = 0;
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) up += nodes_[i]->up() ? 1 : 0;
  return up;
}

bool Cluster::IsDataAvailable(const std::string& table) const {
  SegmentationRing ring = this->ring();
  auto projections = catalog_->ProjectionsForTable(table);
  // Group copies by family (primary name).
  std::map<std::string, std::vector<const ProjectionDef*>> families;
  for (const auto& p : projections) {
    families[p.buddy_of.empty() ? p.name : p.buddy_of].push_back(&p);
  }
  for (const auto& [family, copies] : families) {
    for (uint32_t slot = 0; slot < ring.num_nodes(); ++slot) {
      bool available = false;
      for (const auto* p : copies) {
        if (p->segmentation.replicated) {
          // Any up node serves a replicated copy.
          available = available || NumUpNodes() > 0;
        } else {
          uint32_t node_id = (slot + p->segmentation.node_offset) % ring.num_nodes();
          available = available || nodes_[node_id]->up();
        }
      }
      if (!available) return false;
    }
  }
  return true;
}

Result<ProjectionStorageConfig> Cluster::MakeStorageConfig(const ProjectionDef& def,
                                                           uint32_t node_id) const {
  return MakeStorageConfig(def, node_id, ring());
}

Result<ProjectionStorageConfig> Cluster::MakeStorageConfig(
    const ProjectionDef& def, uint32_t node_id, const SegmentationRing& ring) const {
  STRATICA_ASSIGN_OR_RETURN(TableDef table, catalog_->GetTable(def.anchor_table));
  ProjectionStorageConfig cfg;
  cfg.projection = def.name;
  BindSchema proj_schema;
  for (const auto& pc : def.columns) {
    TypeId type = table.columns[pc.table_column].type;
    cfg.column_names.push_back(pc.name);
    cfg.column_types.push_back(type);
    cfg.encodings.push_back(pc.encoding);
    proj_schema.Add(pc.name, type);
  }
  cfg.sort_columns = def.sort_columns;
  if (table.partition_by) {
    // Partitioning is a table property; projections lacking the partition
    // columns are stored unpartitioned (DESIGN.md).
    ExprPtr pe = CloneExpr(table.partition_by);
    if (BindExpr(pe, proj_schema).ok()) cfg.partition_expr = pe;
  }
  if (!def.segmentation.replicated) {
    ExprPtr se = CloneExpr(def.segmentation.expr);
    STRATICA_RETURN_NOT_OK(BindExpr(se, proj_schema));
    cfg.segmentation_expr = se;
    auto [lo, hi] = ring.RangeStoredBy(node_id, def.segmentation.node_offset);
    cfg.range_lo = lo;
    cfg.range_hi = hi;
    cfg.num_local_segments = cfg_.local_segments_per_node;
  } else {
    cfg.num_local_segments = 1;
  }
  cfg.wos_capacity_rows = cfg_.wos_capacity_rows;
  return cfg;
}

Status Cluster::SetupProjectionStorage(const ProjectionDef& def) {
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) {
    STRATICA_ASSIGN_OR_RETURN(ProjectionStorageConfig cfg,
                              MakeStorageConfig(def, nodes_[i]->id()));
    nodes_[i]->AddStorage(def.name, std::move(cfg));
  }
  return Status::OK();
}

Status Cluster::CreateProjectionWithBuddies(ProjectionDef def) {
  std::lock_guard lock(ddl_mu_);
  if (!def.segmentation.replicated && cfg_.k_safety >= num_nodes()) {
    return Status::InvalidArgument("k-safety ", cfg_.k_safety,
                                   " requires more than ", num_nodes(), " nodes");
  }
  STRATICA_RETURN_NOT_OK(catalog_->CreateProjection(def));
  STRATICA_ASSIGN_OR_RETURN(ProjectionDef stored, catalog_->GetProjection(def.name));
  STRATICA_RETURN_NOT_OK(SetupProjectionStorage(stored));
  // K-safety: replicated projections already live everywhere; segmented
  // projections get K buddies with rotated ring placement.
  if (!stored.segmentation.replicated) {
    for (uint32_t k = 1; k <= cfg_.k_safety; ++k) {
      ProjectionDef buddy = MakeBuddyProjection(stored, k);
      STRATICA_RETURN_NOT_OK(catalog_->CreateProjection(buddy));
      STRATICA_ASSIGN_OR_RETURN(ProjectionDef stored_buddy,
                                catalog_->GetProjection(buddy.name));
      STRATICA_RETURN_NOT_OK(SetupProjectionStorage(stored_buddy));
    }
  }
  return Status::OK();
}

Status Cluster::CreateTableWithSuperProjection(TableDef table) {
  std::string name = table.name;
  STRATICA_RETURN_NOT_OK(catalog_->CreateTable(std::move(table)));
  STRATICA_ASSIGN_OR_RETURN(TableDef stored, catalog_->GetTable(name));
  return CreateProjectionWithBuddies(MakeDefaultSuperProjection(stored));
}

Status Cluster::DropTable(const std::string& table) {
  // Owner lock (Table 1: compatible with nothing): freeing storage must
  // not race DML or a tuple-mover pass still holding pointers into it.
  // Snapshot queries take no locks — catalog versioning, not locking, is
  // how Vertica isolates those; see DESIGN.md §9 limitations.
  auto txn = txns_.Begin();
  Status locked = locks_.Acquire(txn->id(), table, LockMode::kO);
  if (!locked.ok()) {
    txns_.Rollback(txn);
    return locked;
  }
  Status st = Status::OK();
  {
    std::lock_guard lock(ddl_mu_);
    auto projections = catalog_->ProjectionsForTable(table);
    st = catalog_->DropTable(table);
    if (st.ok()) {
      for (const auto& p : projections) {
        for (auto& node : nodes_) node->DropStorage(p.name);
      }
    }
  }
  txns_.Rollback(txn);
  return st;
}

Status Cluster::DropProjectionWithBuddies(const std::string& projection) {
  // Owner lock on the anchor table: the background tuple mover caches
  // ProjectionStorage pointers for the duration of its per-table pass
  // (under T), so freeing them here without a conflicting lock would be a
  // use-after-free.
  auto def = catalog_->GetProjection(projection);
  TransactionPtr txn;
  if (def.ok()) {
    txn = txns_.Begin();
    Status locked = locks_.Acquire(txn->id(), def.value().anchor_table, LockMode::kO);
    if (!locked.ok()) {
      txns_.Rollback(txn);
      return locked;
    }
  }
  Status st = Status::OK();
  {
    std::lock_guard lock(ddl_mu_);
    std::vector<std::string> names{projection};
    for (const auto& name : catalog_->ProjectionNames()) {
      auto p = catalog_->GetProjection(name);
      if (p.ok() && p.value().buddy_of == projection) names.push_back(name);
    }
    for (const auto& name : names) {
      Status dropped = catalog_->DropProjection(name);
      if (!dropped.ok() && st.ok()) st = dropped;
      for (auto& node : nodes_) node->DropStorage(name);
    }
  }
  if (txn) txns_.Rollback(txn);
  return st;
}

Status Cluster::RouteAndInsert(const ProjectionDef& proj, RowBlock rows,
                               Transaction* txn, bool direct_ros) {
  const size_t n_rows = rows.NumRows();
  if (n_rows == 0) return Status::OK();
  uint64_t block_bytes = rows.MemoryBytes();
  // Topology snapshot for the whole routing pass. DML holds the table's I
  // lock, and the rebalance swap holds S on every table, so the snapshot
  // cannot go stale mid-route.
  SegmentationRing ring = this->ring();
  uint32_t num = ring.num_nodes();
  ProjectionStorage* any_ps = nodes_[0]->GetStorage(proj.name);
  if (!any_ps) return Status::Internal("missing storage for ", proj.name);
  STRATICA_ASSIGN_OR_RETURN(RingSplit split, Route(proj, any_ps->config(), rows, ring));
  // The last up node that gets every row takes the block itself.
  uint32_t taker = num;
  for (uint32_t n = 0; n < num; ++n) {
    if (split.counts[n] == n_rows && nodes_[n]->up()) taker = n;
  }
  for (uint32_t n = 0; n < num; ++n) {
    if (split.counts[n] == 0) continue;
    // Rows destined to a down node are skipped; the node recovers them from
    // this projection's buddy after it rejoins (Section 5.2).
    if (!nodes_[n]->up()) continue;
    auto* ps = nodes_[n]->GetStorage(proj.name);
    if (!ps) return Status::Internal("missing storage for ", proj.name);
    // Gather the node's rows column at a time.
    bool whole = split.counts[n] == n_rows;
    RowBlock part = n == taker ? std::move(rows)
                    : whole    ? rows
                               : ApplyPermutation(rows, split.rows[n]);
    if (n != 0) AddNetworkBytes(whole ? block_bytes : part.MemoryBytes());
    // A saturated WOS takes no more rows: the load goes direct to ROS on
    // this copy (Section 4).
    Status st = direct_ros || ps->WosSaturated() ? ps->InsertDirectRos(std::move(part), txn)
                                                 : ps->InsertWos(std::move(part), txn);
    // A node crashing between the up() check above and the insert is the
    // same case as failing the check: skip it, the buddy recovers the rows.
    if (st.code() == StatusCode::kClusterUnavailable) continue;
    STRATICA_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<LoadResult> Cluster::Load(const std::string& table, const RowBlock& rows,
                                 Transaction* txn, bool direct_ros) {
  if (!HasQuorum())
    return Status::ClusterUnavailable("quorum lost: ", NumUpNodes(), " of ",
                                      num_nodes(), " nodes up");
  STRATICA_ASSIGN_OR_RETURN(TableDef def, catalog_->GetTable(table));
  if (rows.NumColumns() != def.columns.size())
    return Status::InvalidArgument("column count mismatch loading ", table);
  if (!catalog_->HasSuperProjection(table))
    return Status::InvalidArgument("table ", table, " has no super projection");
  STRATICA_RETURN_NOT_OK(locks_.Acquire(txn->id(), table, LockMode::kI));

  LoadResult result;
  // Schema conformance: reject rows with NULLs in non-nullable columns.
  RowBlock flat = rows;
  flat.DecodeAll();
  std::vector<uint8_t> keep(flat.NumRows(), 1);
  for (size_t c = 0; c < def.columns.size(); ++c) {
    if (def.columns[c].nullable) continue;
    for (size_t r = 0; r < flat.NumRows(); ++r) {
      if (keep[r] && flat.columns[c].IsNull(r)) {
        keep[r] = 0;
        result.rejected.push_back(
            {r, "NULL in non-nullable column " + def.columns[c].name});
      }
    }
  }
  // The accepted rows are `flat` itself, or one gather of its kept rows.
  RowBlock accepted;
  if (result.rejected.empty()) {
    accepted = std::move(flat);
  } else {
    std::vector<uint32_t> kept;
    kept.reserve(keep.size() - result.rejected.size());
    for (size_t r = 0; r < keep.size(); ++r) {
      if (keep[r]) kept.push_back(static_cast<uint32_t>(r));
    }
    accepted = ApplyPermutation(flat, kept);
    flat = RowBlock();
  }
  // The accepted columns carry the table's declared types.
  for (size_t c = 0; c < def.columns.size(); ++c)
    accepted.columns[c].type = def.columns[c].type;
  result.rows_loaded = accepted.NumRows();

  if (!direct_ros && accepted.NumRows() >= cfg_.direct_ros_row_threshold) {
    direct_ros = true;  // large loads waste WOS memory (Section 7)
  }

  // Each projection stores the accepted rows' columns it names.
  for (const auto& proj : catalog_->ProjectionsForTable(table)) {
    RowBlock proj_rows;
    for (const auto& pc : proj.columns)
      proj_rows.columns.push_back(accepted.columns[pc.table_column]);
    STRATICA_RETURN_NOT_OK(RouteAndInsert(proj, std::move(proj_rows), txn, direct_ros));
  }
  return result;
}

Result<Epoch> Cluster::Commit(const TransactionPtr& txn) {
  // Nodes injected with a commit failure are ejected from the cluster
  // (Section 5: "nodes either successfully complete the commit or are
  // ejected"); the commit itself succeeds if a quorum remains.
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) {
    if (nodes_[i]->up() && nodes_[i]->ConsumeCommitFailure()) {
      (void)MarkNodeDown(nodes_[i]->id());
    }
  }
  if (!HasQuorum()) {
    txns_.Rollback(txn);
    return Status::ClusterUnavailable("commit failed: quorum lost");
  }
  return txns_.Commit(txn);
}

Status Cluster::MarkNodeDown(uint32_t node_id) {
  if (node_id >= num_nodes()) return Status::InvalidArgument("no such node");
  Node* node = nodes_[node_id].get();
  node->set_up(false);
  for (const auto& name : node->StorageNames()) {
    node->GetStorage(name)->CrashVolatileState();
  }
  return Status::OK();
}

Status Cluster::AdvanceAhm() {
  // The AHM does not advance while nodes are down, preserving the history
  // needed to replay DML during recovery (Section 5.1).
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) {
    if (!nodes_[i]->up()) return Status::OK();
  }
  Epoch min_lge = epochs_.LatestQueryableEpoch();
  for (uint32_t i = 0; i < n; ++i) {
    for (const auto& name : nodes_[i]->StorageNames()) {
      auto* ps = nodes_[i]->GetStorage(name);
      if (ps) min_lge = std::min(min_lge, ps->lge());
    }
  }
  epochs_.AdvanceAhm(min_lge);
  return Status::OK();
}

Status Cluster::RunTupleMover() {
  // One pass at a time: TupleMover is thread-compatible, not thread-safe,
  // and the background service may run concurrently with manual calls.
  std::lock_guard tm_lock(tuple_mover_mu_);
  // Per-table T lock (Table 1): compatible with queries and inserts, but
  // incompatible with X, so no delete transaction can be registering or
  // stamping delete vectors while moveout/mergeout translate them. A busy
  // table (live X holder) is skipped and retried on the next pass rather
  // than stalling the mover.
  for (const auto& table : catalog_->TableNames()) {
    auto txn = txns_.Begin();
    Status locked = locks_.Acquire(txn->id(), table, LockMode::kT,
                                   std::chrono::milliseconds(1000));
    if (!locked.ok()) {
      txns_.Rollback(txn);
      continue;
    }
    Status st = Status::OK();
    for (const auto& proj : catalog_->ProjectionsForTable(table)) {
      uint32_t n = num_nodes();
      for (uint32_t i = 0; i < n; ++i) {
        Node* node = nodes_[i].get();
        if (!node->up()) continue;
        auto* ps = node->GetStorage(proj.name);
        // Dropped concurrently, or quarantined: the repair below rebuilds a
        // damaged copy before the mover touches it again.
        if (ps == nullptr || ps->quarantined()) continue;
        st = node->mover()->Moveout(ps);
        if (st.ok()) st = node->mover()->MergeoutAll(ps);
        if (st.ok()) st = node->mover()->MoveDeleteVectors(ps);
        // Reclaim mergeout-replaced files whose snapshots have drained —
        // every tick, not only when new merge work exists.
        ps->GcRetired();
        // A mover read that quarantined the copy, as a query's would, ends
        // only this copy's work for the pass.
        if (!st.ok() && ps->quarantined()) st = Status::OK();
        if (!st.ok()) break;
      }
      if (!st.ok()) break;
    }
    txns_.Rollback(txn);  // bookkeeping txn held no data; releases the T lock
    STRATICA_RETURN_NOT_OK(st);
  }
  // Opportunistic re-recovery of quarantined projection copies rides the
  // mover tick; a failed repair keeps its flag set and retries next pass.
  (void)RepairQuarantined();
  return Status::OK();
}

Cluster::StorageCensus Cluster::Census(const std::string& projection) const {
  StorageCensus census;
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) {
    auto* ps = nodes_[i]->GetStorage(projection);
    if (!ps) continue;
    for (const auto& c : ps->Containers()) {
      ++census.containers;
      census.files += c->columns.size() * 2 + (c->epoch_data_path.empty() ? 0 : 2) + 1;
      census.bytes += c->total_bytes;
      census.raw_bytes += c->raw_bytes;
      census.rows += c->row_count;
    }
  }
  return census;
}

Result<uint64_t> Cluster::Backup(const std::string& label) {
  // Snapshot the catalog, then hard-link every data file (Section 5.2):
  // links pin the bytes while the backup is copied off-cluster, and storage
  // reclaims automatically when the links are dropped.
  STRATICA_RETURN_NOT_OK(catalog_->Save(fs_, "backup/" + label + "/catalog"));
  uint64_t files = 0;
  uint32_t n = num_nodes();
  for (uint32_t i = 0; i < n; ++i) {
    STRATICA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              fs_->List(nodes_[i]->BaseDir() + "/"));
    for (const auto& name : names) {
      STRATICA_RETURN_NOT_OK(fs_->HardLink(name, "backup/" + label + "/" + name));
      ++files;
    }
  }
  return files;
}

}  // namespace stratica
