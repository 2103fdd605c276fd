#include "opt/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "exec/exchange.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {

namespace {

/// A materialize-once broadcast: every consumer replays the same blocks
/// (used for the inner side of non-co-located joins).
class BroadcastState {
 public:
  explicit BroadcastState(OperatorPtr child) : child_(std::move(child)) {}

  Status Materialize(ExecContext* ctx) {
    std::lock_guard lock(mu_);
    if (done_) return status_;
    done_ = true;
    status_ = child_->Open(ctx);
    rows_ = RowBlock(child_->OutputTypes());
    while (status_.ok()) {
      RowBlock block;
      status_ = child_->GetNext(&block);
      if (!status_.ok() || block.NumRows() == 0) break;
      block.DecodeAll();
      if (ctx->stats) ctx->stats->exchange_bytes.fetch_add(block.MemoryBytes());
      rows_.AppendRange(block, 0, block.NumRows());
    }
    if (status_.ok()) status_ = child_->Close();
    return status_;
  }

  const RowBlock& rows() const { return rows_; }
  Operator* child() const { return child_.get(); }

 private:
  OperatorPtr child_;
  std::mutex mu_;
  bool done_ = false;
  Status status_;
  RowBlock rows_;
};

class BroadcastConsumerOperator : public Operator {
 public:
  BroadcastConsumerOperator(std::shared_ptr<BroadcastState> state, bool primary)
      : state_(std::move(state)), primary_(primary) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    cursor_ = 0;
    return state_->Materialize(ctx);
  }
  Status GetNext(RowBlock* out) override {
    const RowBlock& rows = state_->rows();
    *out = RowBlock(OutputTypes());
    if (cursor_ >= rows.NumRows()) return Status::OK();
    size_t take = std::min(ctx_->vector_size, rows.NumRows() - cursor_);
    out->AppendRange(rows, cursor_, take);
    cursor_ += take;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    return state_->child()->OutputTypes();
  }
  std::vector<std::string> OutputNames() const override {
    return state_->child()->OutputNames();
  }
  std::string DebugString() const override { return "Recv(broadcast)"; }
  std::vector<Operator*> Children() const override {
    if (primary_) return {state_->child()};
    return {};
  }

 private:
  std::shared_ptr<BroadcastState> state_;
  bool primary_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr result;
  for (const auto& c : conjuncts) {
    result = result ? And(result, c) : c;
  }
  return result;
}

/// Does a bound predicate reject NULLs of the given column range? A plain
/// comparison or IS NOT NULL on those columns does.
bool NullRejecting(const Expr& e, int col_lo, int col_hi) {
  std::vector<int> cols;
  CollectColumns(e, &cols);
  bool touches = false;
  for (int c : cols) touches |= (c >= col_lo && c < col_hi);
  if (!touches) return false;
  if (e.kind == ExprKind::kCompare) return true;
  if (e.kind == ExprKind::kIsNull && e.negated) return true;
  return false;
}

}  // namespace

/// One resolved FROM entry.
struct Planner::TableSlot {
  std::string alias;
  TableDef def;
  ProjectionDef projection;             // chosen physical source
  int schema_offset = 0;                // column offset in the combined schema
  JoinType join_type = JoinType::kInner;
  uint64_t est_rows = 0;

  std::vector<ExprPtr> local_predicates;  // bound to the combined schema
  // Scan units: (storage, covering node) pairs; one per up node normally,
  // with buddies substituted for down nodes.
  std::vector<ProjectionStorage*> units;
  std::vector<uint32_t> unit_hosts;  // node id serving each unit (error context)
  // Remaining family copies per unit, health-checked again at hedge time so
  // a straggling or dead unit can be re-issued against a buddy mid-query.
  std::vector<std::vector<ProjectionStorage*>> unit_alts;
  uint32_t unit_offset = 0;  // ring offset of the projection serving units
};

struct Planner::Scope {
  std::vector<TableSlot> tables;
  BindSchema schema;  // combined: "alias.col" names
};

Result<PhysicalPlan> Planner::PlanSelect(const SelectStmt& stmt,
                                         size_t intra_node_parallelism) {
  Catalog* catalog = cluster_->catalog();
  Scope scope;

  // ---- resolve FROM ---------------------------------------------------------
  for (const auto& ref : stmt.from) {
    TableSlot slot;
    slot.alias = ref.alias.empty() ? ref.table : ref.alias;
    STRATICA_ASSIGN_OR_RETURN(slot.def, catalog->GetTable(ref.table));
    slot.join_type = ref.join_type;
    slot.schema_offset = static_cast<int>(scope.schema.size());
    for (const auto& c : slot.def.columns) {
      scope.schema.Add(slot.alias + "." + c.name, c.type);
    }
    scope.tables.push_back(std::move(slot));
  }

  // ---- bind -----------------------------------------------------------------
  SelectStmt bound = stmt;  // shallow: ExprPtr shared; clone what we mutate
  std::vector<ExprPtr> conjuncts;
  if (bound.where) {
    ExprPtr where = CloneExpr(bound.where);
    STRATICA_RETURN_NOT_OK(BindExpr(where, scope.schema));
    SplitConjuncts(where, &conjuncts);
  }
  // ON clauses: equality keys + residuals.
  struct JoinEdge {
    size_t left_table, right_table;  // indexes into scope.tables
    std::vector<int> left_cols, right_cols;  // combined-schema indexes
  };
  std::vector<JoinEdge> edges;
  std::vector<ExprPtr> residuals;
  auto table_of_column = [&](int col) -> size_t {
    for (size_t t = scope.tables.size(); t-- > 0;) {
      if (col >= scope.tables[t].schema_offset) return t;
    }
    return 0;
  };
  auto classify = [&](const ExprPtr& conjunct) {
    std::vector<int> cols;
    CollectColumns(*conjunct, &cols);
    std::set<size_t> tables;
    for (int c : cols) tables.insert(table_of_column(c));
    if (tables.size() <= 1) {
      size_t t = tables.empty() ? 0 : *tables.begin();
      scope.tables[t].local_predicates.push_back(conjunct);
      return;
    }
    if (tables.size() == 2 && conjunct->kind == ExprKind::kCompare &&
        conjunct->cmp == CompareOp::kEq &&
        conjunct->children[0]->kind == ExprKind::kColumnRef &&
        conjunct->children[1]->kind == ExprKind::kColumnRef) {
      int a = conjunct->children[0]->column_index;
      int b = conjunct->children[1]->column_index;
      size_t ta = table_of_column(a), tb = table_of_column(b);
      if (ta > tb) {
        std::swap(a, b);
        std::swap(ta, tb);
      }
      // Attach to an existing edge between the pair if present.
      for (auto& edge : edges) {
        if (edge.left_table == ta && edge.right_table == tb) {
          edge.left_cols.push_back(a);
          edge.right_cols.push_back(b);
          return;
        }
      }
      edges.push_back({ta, tb, {a}, {b}});
      return;
    }
    residuals.push_back(conjunct);
  };
  for (auto& c : conjuncts) classify(c);
  for (size_t t = 1; t < scope.tables.size(); ++t) {
    if (!stmt.from[t].on) continue;
    ExprPtr on = CloneExpr(stmt.from[t].on);
    STRATICA_RETURN_NOT_OK(BindExpr(on, scope.schema));
    std::vector<ExprPtr> on_conjuncts;
    SplitConjuncts(on, &on_conjuncts);
    for (auto& c : on_conjuncts) classify(c);
  }

  // Outer-to-inner conversion: a null-rejecting WHERE predicate on the
  // nullable side of an outer join converts it to inner (Section 6.2).
  for (size_t t = 1; t < scope.tables.size(); ++t) {
    TableSlot& slot = scope.tables[t];
    if (slot.join_type != JoinType::kLeft) continue;
    int lo = slot.schema_offset;
    int hi = lo + static_cast<int>(slot.def.columns.size());
    for (const auto& pred : slot.local_predicates) {
      if (NullRejecting(*pred, lo, hi)) {
        slot.join_type = JoinType::kInner;
        break;
      }
    }
  }

  // Transitive predicates across join keys (Section 6.2): an equality/range
  // literal predicate on one side of a join equality applies to the other.
  for (const auto& edge : edges) {
    for (size_t k = 0; k < edge.left_cols.size(); ++k) {
      for (size_t t : {edge.left_table, edge.right_table}) {
        int from_col = t == edge.left_table ? edge.left_cols[k] : edge.right_cols[k];
        int to_col = t == edge.left_table ? edge.right_cols[k] : edge.left_cols[k];
        size_t to_table = t == edge.left_table ? edge.right_table : edge.left_table;
        if (scope.tables[to_table].join_type != JoinType::kInner) continue;
        for (const auto& pred : scope.tables[t].local_predicates) {
          if (pred->kind != ExprKind::kCompare) continue;
          if (pred->children[0]->kind != ExprKind::kColumnRef ||
              pred->children[0]->column_index != from_col ||
              pred->children[1]->kind != ExprKind::kLiteral) {
            continue;
          }
          ExprPtr derived = Cmp(pred->cmp,
                                ColIdx(to_col, scope.schema.types[to_col]),
                                Lit(pred->children[1]->literal));
          derived->children[0]->column_name = scope.schema.names[to_col];
          bool dup = false;
          for (const auto& existing : scope.tables[to_table].local_predicates) {
            dup |= existing->ToString() == derived->ToString();
          }
          if (!dup) scope.tables[to_table].local_predicates.push_back(derived);
        }
      }
    }
  }

  // ---- choose projections + scan units (buddy substitution on failure) -----
  // Capture the topology under a shared lock so an elastic rebalance can't
  // swap storages mid-selection: every unit, host id and ring slot below
  // must come from one consistent node count. A plan captured just before a
  // swap keeps working — retired storages stay alive and readable.
  auto topology = cluster_->LockTopologyShared();
  for (auto& slot : scope.tables) {
    auto candidates = catalog->ProjectionsForTable(slot.def.name);
    // Needed columns of this table.
    std::set<std::string> needed;
    for (const auto& c : slot.def.columns) needed.insert(c.name);  // supers cover all
    const ProjectionDef* best = nullptr;
    int64_t best_score = INT64_MIN;
    for (const auto& p : candidates) {
      if (p.segmentation.node_offset != 0) continue;  // buddies join via units
      if (!p.is_super) continue;  // narrow projections need column analysis; a
                                  // super always works — prefer it unless a
                                  // narrow one scores higher below.
      int64_t score = 0;
      // Compression-aware I/O proxy: smaller stored footprint wins.
      uint64_t bytes = 0;
      for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
        auto* ps = cluster_->node(n)->GetStorage(p.name);
        if (ps) bytes += ps->TotalRosBytes();
      }
      score -= static_cast<int64_t>(bytes / 1024);
      // Sorted-prefix predicate bonus: fast pruning and merge scans.
      if (!p.sort_columns.empty()) {
        const std::string& first_sort = p.columns[p.sort_columns[0]].name;
        for (const auto& pred : slot.local_predicates) {
          if (pred->kind == ExprKind::kCompare &&
              pred->children[0]->kind == ExprKind::kColumnRef) {
            std::string bare = pred->children[0]->column_name;
            auto dot = bare.rfind('.');
            if (dot != std::string::npos) bare = bare.substr(dot + 1);
            if (bare == first_sort) score += 1000000;
          }
        }
      }
      if (!best || score > best_score) {
        best = &p;
        best_score = score;
      }
    }
    if (!best) return Status::Internal("no projection for table ", slot.def.name);
    slot.projection = *best;

    // Scan units with buddy substitution: for every ring slot pick an up
    // node among the projection family (replan-with-buddy, Section 6.2).
    // A quarantined copy (persistent read failure / corruption, DESIGN.md
    // §10) is as unusable as a down node: skip it and let a buddy serve
    // the slot until re-recovery clears the flag.
    if (slot.projection.segmentation.replicated) {
      std::vector<ProjectionStorage*> alts;
      for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
        auto* ps = cluster_->node(n)->GetStorage(slot.projection.name);
        if (!ps) continue;
        if (slot.units.empty() && cluster_->node(n)->up() && !ps->quarantined()) {
          slot.units = {ps};
          slot.unit_hosts = {n};
        } else {
          alts.push_back(ps);
        }
      }
      if (slot.units.empty())
        return Status::ClusterUnavailable("no healthy copy of ",
                                          slot.projection.name);
      slot.unit_alts = {std::move(alts)};
    } else {
      std::vector<ProjectionDef> family = {slot.projection};
      for (const auto& p : candidates) {
        if (p.buddy_of == slot.projection.name) family.push_back(p);
      }
      for (uint32_t ring_slot = 0; ring_slot < cluster_->num_nodes(); ++ring_slot) {
        ProjectionStorage* unit = nullptr;
        uint32_t unit_host = 0;
        std::vector<ProjectionStorage*> alts;
        for (const auto& copy : family) {
          uint32_t host =
              (ring_slot + copy.segmentation.node_offset) % cluster_->num_nodes();
          auto* ps = cluster_->node(host)->GetStorage(copy.name);
          if (!ps) continue;
          if (!unit && cluster_->node(host)->up() && !ps->quarantined()) {
            unit = ps;
            unit_host = host;
          } else {
            alts.push_back(ps);
          }
        }
        if (!unit) {
          return Status::ClusterUnavailable(
              "data unavailable: no live copy of ", slot.projection.name,
              " for ring slot ", ring_slot, " (K-safety exhausted)");
        }
        slot.units.push_back(unit);
        slot.unit_hosts.push_back(unit_host);
        slot.unit_alts.push_back(std::move(alts));
      }
    }
    slot.est_rows = 0;
    for (auto* ps : slot.units) slot.est_rows += ps->TotalRosRows() + ps->WosRowCount();
  }

  // ---- join order (StarOpt heuristic) ---------------------------------------
  // Probe stream = largest table (the fact); inner/build sides joined in
  // ascending size order, most selective dimensions first. Only pure-INNER
  // plans are reordered.
  std::vector<size_t> order(scope.tables.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  bool all_inner = true;
  for (size_t t = 1; t < scope.tables.size(); ++t) {
    all_inner &= scope.tables[t].join_type == JoinType::kInner;
  }
  if (all_inner && scope.tables.size() > 1) {
    size_t fact = 0;
    for (size_t t = 1; t < scope.tables.size(); ++t) {
      if (scope.tables[t].est_rows > scope.tables[fact].est_rows) fact = t;
    }
    std::vector<size_t> rest;
    for (size_t t = 0; t < scope.tables.size(); ++t) {
      if (t != fact) rest.push_back(t);
    }
    // Selectivity-first: tables with local predicates join earlier; size
    // breaks ties.
    std::stable_sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
      size_t pa = scope.tables[a].local_predicates.size();
      size_t pb = scope.tables[b].local_predicates.size();
      if (pa != pb) return pa > pb;
      return scope.tables[a].est_rows < scope.tables[b].est_rows;
    });
    order.clear();
    order.push_back(fact);
    // Greedy: append tables connected to the joined set first.
    std::set<size_t> joined = {fact};
    while (!rest.empty()) {
      size_t pick = SIZE_MAX;
      for (size_t i = 0; i < rest.size(); ++i) {
        for (const auto& edge : edges) {
          bool connects = (joined.count(edge.left_table) && edge.right_table == rest[i]) ||
                          (joined.count(edge.right_table) && edge.left_table == rest[i]);
          if (connects) {
            pick = i;
            break;
          }
        }
        if (pick != SIZE_MAX) break;
      }
      if (pick == SIZE_MAX) pick = 0;  // cross join fallback
      joined.insert(rest[pick]);
      order.push_back(rest[pick]);
      rest.erase(rest.begin() + pick);
    }
  }

  // ---- build scan specs ------------------------------------------------------
  // The combined stream schema after all joins, in join order.
  BindSchema stream_schema;
  for (size_t oi : order) {
    const TableSlot& slot = scope.tables[oi];
    for (size_t c = 0; c < slot.def.columns.size(); ++c) {
      stream_schema.Add(slot.alias + "." + slot.def.columns[c].name,
                        slot.def.columns[c].type);
    }
  }
  auto rebind_to_stream = [&](const ExprPtr& e) -> Result<ExprPtr> {
    ExprPtr copy = CloneExpr(e);
    // Reset bound indexes, rebind by name against the stream schema.
    std::vector<Expr*> stack = {copy.get()};
    while (!stack.empty()) {
      Expr* cur = stack.back();
      stack.pop_back();
      if (cur->kind == ExprKind::kColumnRef) cur->column_index = -1;
      for (auto& ch : cur->children) stack.push_back(ch.get());
    }
    STRATICA_RETURN_NOT_OK(BindExpr(copy, stream_schema));
    return copy;
  };

  struct TablePlan {
    ScanSpec spec;                      // per-unit template
    std::vector<std::shared_ptr<SipFilter>> sips;  // attached later
  };
  std::vector<TablePlan> table_plans(scope.tables.size());
  for (size_t t = 0; t < scope.tables.size(); ++t) {
    TableSlot& slot = scope.tables[t];
    TablePlan& tp = table_plans[t];
    // Scan outputs every table column (projection order mapped to table
    // order) so stream offsets are predictable.
    BindSchema scan_schema;
    for (size_t c = 0; c < slot.def.columns.size(); ++c) {
      int proj_col = slot.projection.FindColumn(slot.def.columns[c].name);
      if (proj_col < 0)
        return Status::Internal("projection misses column ", slot.def.columns[c].name);
      tp.spec.projection_columns.push_back(proj_col);
      tp.spec.output_names.push_back(slot.alias + "." + slot.def.columns[c].name);
      tp.spec.output_types.push_back(slot.def.columns[c].type);
      scan_schema.Add(slot.alias + "." + slot.def.columns[c].name,
                      slot.def.columns[c].type);
    }
    // Push local predicates into the scan, extracting prune bounds.
    for (const auto& pred : slot.local_predicates) {
      ExprPtr local = CloneExpr(pred);
      std::vector<Expr*> stack = {local.get()};
      while (!stack.empty()) {
        Expr* cur = stack.back();
        stack.pop_back();
        if (cur->kind == ExprKind::kColumnRef) cur->column_index = -1;
        for (auto& ch : cur->children) stack.push_back(ch.get());
      }
      STRATICA_RETURN_NOT_OK(BindExpr(local, scan_schema));
      AddScanConjunct(&tp.spec, local);
    }
  }

  // ---- SIP filters -----------------------------------------------------------
  // The fact (first in join order) scans everything; joins against later
  // tables install SIP filters on it when the join type filters probe rows.
  size_t fact = order[0];
  for (size_t j = 1; j < order.size(); ++j) {
    size_t t = order[j];
    JoinType jt = scope.tables[t].join_type;
    if (jt != JoinType::kInner && jt != JoinType::kSemi) continue;
    for (const auto& edge : edges) {
      size_t other = SIZE_MAX;
      const std::vector<int>* fact_cols = nullptr;
      if (edge.left_table == fact && edge.right_table == t) {
        other = t;
        fact_cols = &edge.left_cols;
      } else if (edge.right_table == fact && edge.left_table == t) {
        other = t;
        fact_cols = &edge.right_cols;
      }
      if (other == SIZE_MAX) continue;
      auto sip = std::make_shared<SipFilter>();
      for (int c : *fact_cols) {
        sip->probe_columns.push_back(c - scope.tables[fact].schema_offset);
      }
      table_plans[fact].spec.sips.push_back(sip);
      table_plans[t].sips.push_back(sip);  // the join for table t fills it
    }
  }

  // ---- per-unit pipelines -----------------------------------------------------
  // Co-location: a join is fully local when both sides have the same number
  // of units and the build side is replicated, or both are segmented by
  // HASH of exactly their join keys with equal ring offsets.
  size_t num_units = scope.tables[fact].units.size();
  auto seg_matches_keys = [&](const TableSlot& slot,
                              const std::vector<int>& key_cols) {
    if (slot.projection.segmentation.replicated) return false;
    const ExprPtr& seg = slot.projection.segmentation.expr;
    if (!seg || seg->kind != ExprKind::kFunc || seg->func != FuncKind::kHash)
      return false;
    if (seg->children.size() != key_cols.size()) return false;
    std::set<std::string> seg_cols, join_cols;
    for (const auto& ch : seg->children) {
      if (ch->kind != ExprKind::kColumnRef) return false;
      std::string bare = ch->column_name;
      auto dot = bare.rfind('.');
      if (dot != std::string::npos) bare = bare.substr(dot + 1);
      seg_cols.insert(bare);
    }
    for (int c : key_cols) {
      std::string bare = scope.schema.names[c];
      auto dot = bare.rfind('.');
      if (dot != std::string::npos) bare = bare.substr(dot + 1);
      join_cols.insert(bare);
    }
    return seg_cols == join_cols;
  };

  // Pre-create broadcast states for non-co-located build sides.
  std::vector<std::shared_ptr<BroadcastState>> broadcasts(scope.tables.size());
  std::vector<bool> colocated(scope.tables.size(), false);
  for (size_t j = 1; j < order.size(); ++j) {
    size_t t = order[j];
    const JoinEdge* edge = nullptr;
    for (const auto& e : edges) {
      if ((e.left_table == t && order[0] == e.right_table) ||
          (e.right_table == t && order[0] == e.left_table) ||
          e.left_table == t || e.right_table == t) {
        edge = &e;
        break;
      }
    }
    bool replicated = scope.tables[t].projection.segmentation.replicated;
    bool both_segmented_alike = false;
    if (edge && !replicated &&
        scope.tables[t].units.size() == num_units) {
      const auto& t_cols = edge->left_table == t ? edge->left_cols : edge->right_cols;
      size_t o = edge->left_table == t ? edge->right_table : edge->left_table;
      const auto& o_cols = edge->left_table == t ? edge->right_cols : edge->left_cols;
      both_segmented_alike = seg_matches_keys(scope.tables[t], t_cols) &&
                             seg_matches_keys(scope.tables[o], o_cols) &&
                             scope.tables[t].unit_offset == scope.tables[o].unit_offset;
    }
    colocated[t] = replicated || both_segmented_alike;
    if (!colocated[t]) {
      // Gather the build side once; every unit replays it (broadcast). Each
      // gather leg carries its host for error context plus a rebuild recipe
      // so a straggling or dead leg re-issues against a buddy copy.
      std::vector<ExchangeProducerSpec> scans;
      const TableSlot& tslot = scope.tables[t];
      for (size_t i = 0; i < tslot.units.size(); ++i) {
        ScanSpec s = table_plans[t].spec;
        s.storage = tslot.units[i];
        ExchangeProducerSpec spec;
        spec.op = std::make_unique<ScanOperator>(s);
        spec.origin = "node" + std::to_string(tslot.unit_hosts[i]);
        spec.rebuild = [tmpl = table_plans[t].spec,
                        alts = tslot.unit_alts[i], i]() -> Result<OperatorPtr> {
          for (auto* ps : alts) {
            if (!ps->HostUp() || ps->quarantined()) continue;
            ScanSpec rs = tmpl;
            rs.storage = ps;
            return OperatorPtr(std::make_unique<ScanOperator>(rs));
          }
          return Status::ClusterUnavailable(
              "no healthy buddy for broadcast leg ", i, " (K-safety exhausted)");
        };
        scans.push_back(std::move(spec));
      }
      OperatorPtr gathered = scans.size() == 1
                                 ? std::move(scans[0].op)
                                 : MakeUnionExchange(std::move(scans), "Recv", true);
      broadcasts[t] = std::make_shared<BroadcastState>(std::move(gathered));
    }
  }

  // ---- per-unit pipeline builder ---------------------------------------------
  // Join keys depend only on the join order, not the unit, so the join steps
  // are computed once; only the SIP attachment, the colocated build unit and
  // the fact storage vary per pipeline. Everything the builder needs is
  // captured by value so exchange hedging can re-invoke it mid-query to
  // construct a replacement pipeline against a buddy copy of the fact unit.
  struct JoinStep {
    JoinSpec jspec;                               // without sip
    std::shared_ptr<SipFilter> sip;               // primary of unit 0 populates
    bool colocated = false;
    ScanSpec build_spec;                          // colocated: per-unit scan
    std::vector<ProjectionStorage*> build_units;  //   "
    std::shared_ptr<BroadcastState> broadcast;    // else: shared materialization
  };
  auto steps = std::make_shared<std::vector<JoinStep>>();
  {
    std::vector<size_t> joined_order = {fact};
    for (size_t j = 1; j < order.size(); ++j) {
      size_t t = order[j];
      // Join keys between the current stream and table t.
      JoinStep step;
      step.jspec.type = scope.tables[t].join_type;
      auto stream_pos_of = [&](int combined_col) -> int {
        size_t owner = table_of_column(combined_col);
        int within = combined_col - scope.tables[owner].schema_offset;
        int pos = 0;
        for (size_t oi : joined_order) {
          if (oi == owner) return pos + within;
          pos += static_cast<int>(scope.tables[oi].def.columns.size());
        }
        return -1;
      };
      for (const auto& edge : edges) {
        const std::vector<int>* probe_side = nullptr;
        const std::vector<int>* build_side = nullptr;
        if (edge.right_table == t &&
            std::find(joined_order.begin(), joined_order.end(), edge.left_table) !=
                joined_order.end()) {
          probe_side = &edge.left_cols;
          build_side = &edge.right_cols;
        } else if (edge.left_table == t &&
                   std::find(joined_order.begin(), joined_order.end(),
                             edge.right_table) != joined_order.end()) {
          probe_side = &edge.right_cols;
          build_side = &edge.left_cols;
        }
        if (!probe_side) continue;
        for (size_t k = 0; k < probe_side->size(); ++k) {
          step.jspec.probe_keys.push_back(
              static_cast<uint32_t>(stream_pos_of((*probe_side)[k])));
          step.jspec.build_keys.push_back(static_cast<uint32_t>(
              (*build_side)[k] - scope.tables[t].schema_offset));
        }
      }
      if (step.jspec.probe_keys.empty() && order.size() > 1)
        return Status::NotImplemented("cross joins without predicates");
      // SIP: one filter slot per (fact,t) edge was pre-created.
      if (!table_plans[t].sips.empty()) step.sip = table_plans[t].sips[0];
      step.colocated = colocated[t];
      if (step.colocated) {
        step.build_spec = table_plans[t].spec;
        step.build_units = scope.tables[t].units;
      } else {
        step.broadcast = broadcasts[t];
      }
      steps->push_back(std::move(step));
      joined_order.push_back(t);
    }
  }
  // Residual predicates (multi-table non-equi) are unit-independent: bind
  // them once and share the expression, as per-unit scans already do for
  // predicates and SIPs.
  ExprPtr residual_expr;
  if (!residuals.empty()) {
    std::vector<ExprPtr> rebound;
    for (const auto& r : residuals) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(r));
      rebound.push_back(e);
    }
    residual_expr = CombineConjuncts(rebound);
  }
  // ---- sort elimination (Section 6.2) ----------------------------------------
  // A single-table, single-unit SELECT whose ORDER BY is an ascending prefix
  // of the chosen projection's sort order reads pre-sorted storage: the scan
  // is planned order-carrying (sorted_output + merge across containers) and
  // the SortOperator is dropped. Restricted to one scan unit because a
  // union or exchange over several pipelines loses the order; the fan-out
  // gate below then records the morsel bypass this shape causes.
  bool sort_eliminated = false;
  if (!stmt.order_by.empty() && steps->empty() && scope.tables.size() == 1 &&
      num_units == 1 && !stmt.distinct && stmt.group_by.empty() &&
      stmt.having_aggs.empty()) {
    bool plain_select = true;
    for (const auto& item : stmt.items) {
      plain_select &= item.kind == SelectItem::Kind::kStar ||
                      item.kind == SelectItem::Kind::kExpr;
    }
    const TableSlot& fslot = scope.tables[fact];
    ScanSpec& ft = table_plans[fact].spec;
    bool ok = plain_select && stmt.order_by.size() <= fslot.projection.sort_columns.size();
    std::vector<uint32_t> key_outputs;
    for (size_t j = 0; ok && j < stmt.order_by.size(); ++j) {
      const auto& [oe, desc] = stmt.order_by[j];
      if (desc || oe->kind != ExprKind::kColumnRef) {
        ok = false;
        break;
      }
      // The key must also be a select output, so the query shapes that the
      // Sort path would reject stay rejected.
      bool in_output = false;
      for (const auto& item : stmt.items) {
        in_output |= item.kind == SelectItem::Kind::kStar ||
                     (item.kind == SelectItem::Kind::kExpr &&
                      (item.alias == oe->column_name ||
                       item.expr->ToString() == oe->ToString()));
      }
      auto bound = rebind_to_stream(oe);
      if (!in_output || !bound.ok() ||
          bound.value()->kind != ExprKind::kColumnRef) {
        ok = false;
        break;
      }
      int scan_col = bound.value()->column_index;
      ok &= ft.projection_columns[scan_col] ==
            static_cast<int>(fslot.projection.sort_columns[j]);
      key_outputs.push_back(static_cast<uint32_t>(scan_col));
    }
    if (ok) {
      ft.sorted_output = true;
      ft.sort_key_outputs = std::move(key_outputs);
      sort_eliminated = true;
    }
  }

  // ---- intra-node fan-out gate (DESIGN.md §12) -------------------------------
  // A unit pipeline splits into `fanout` morsel-driven fragments when the
  // fact scan reads enough rows to amortize the extra pipelines and nothing
  // in the plan needs what fragments cannot give: an order-carrying scan
  // (sorted_output) would interleave arbitrarily under the ParallelUnion,
  // and RIGHT/FULL joins must emit unmatched build rows exactly once, which
  // a build shared across fragments cannot. The rows counted are the ones
  // the scan will read (KeptRows: the WOS plus the ROS blocks its prune
  // bounds keep), not the ones stored, so a scan pruned to a few blocks
  // plans one pipeline. It is a gate, not a cap: a scan that clears it gets
  // the full fan-out.
  size_t fanout = intra_node_parallelism == 0 ? 1 : intra_node_parallelism;
  bool morsel_bypass = false;
  if (fanout > 1) {
    constexpr uint64_t kMinParallelRowsPerUnit = 65536;  // four 16Ki-row blocks
    const ScanSpec& ft = table_plans[fact].spec;
    uint64_t kept_rows = 0;
    for (const ProjectionStorage* unit : scope.tables[fact].units) {
      kept_rows += KeptRows(*unit, ft);
    }
    bool ok = kept_rows >= kMinParallelRowsPerUnit * std::max<size_t>(num_units, 1);
    // Order-carrying scans are planned serial *explicitly* and recorded
    // (PhysicalPlan::morsel_bypass → ExecStats::morsel_bypasses), not
    // silently dropped, so fan-out accounting stays honest.
    if (ok && ft.sorted_output) morsel_bypass = true;
    ok &= !ft.sorted_output;
    for (const auto& step : *steps) {
      ok &= step.jspec.type != JoinType::kRight &&
            step.jspec.type != JoinType::kFull;
    }
    if (!ok) fanout = 1;
  }

  // ---- compressed execution (DESIGN.md §13) ----------------------------------
  // Emit encoded-or-decoded views from the fact scan when every consumer in
  // the chain is encoded-aware: single-table aggregation stacks (ExprEval
  // passthrough → Filter → GroupBy all consume runs/codes directly). Joins,
  // window functions and plain row-returning SELECTs keep decoded scans —
  // their consumers want flat vectors.
  {
    bool agg_query = !stmt.group_by.empty() || !stmt.having_aggs.empty();
    bool window_query = false;
    for (const auto& item : stmt.items) {
      agg_query |= item.kind == SelectItem::Kind::kAgg;
      window_query |= item.kind == SelectItem::Kind::kWindow;
    }
    ScanSpec& ft = table_plans[fact].spec;
    if (agg_query && !window_query && steps->empty() && !ft.sorted_output) {
      ft.encoded_output = true;
    }
  }

  // Applied to every fragment of a unit (serial plans: the one pipeline), so
  // per-fragment work — expression eval, partial aggregation — runs inside
  // the fragment, below the ParallelUnion, and fans out with the scan.
  using FragmentFinisher = std::function<Result<OperatorPtr>(OperatorPtr)>;

  auto build_unit_pipeline =
      [steps, fact_template = table_plans[fact].spec, residual_expr, fanout](
          ProjectionStorage* fact_storage, bool primary, size_t u,
          const FragmentFinisher& finish) -> Result<OperatorPtr> {
    // Fan-out state is created fresh per invocation: a hedge rebuild gets
    // its own dispenser and builds because the loser pipeline's entire
    // output (all its fragments) is dropped at the outer exchange slot.
    // Every join step gets one build, shared by all `fanout` fragments (a
    // serial plan is fan-out 1).
    std::shared_ptr<MorselDispenser> dispenser;
    if (fanout > 1) dispenser = std::make_shared<MorselDispenser>(fanout);
    std::vector<std::shared_ptr<SharedJoinBuild>> shared_builds;
    for (const auto& step : *steps) {
      OperatorPtr build_op;
      if (step.colocated) {
        ScanSpec s = step.build_spec;
        s.storage = step.build_units[u % step.build_units.size()];
        build_op = std::make_unique<ScanOperator>(s);
      } else {
        build_op = std::make_unique<BroadcastConsumerOperator>(
            step.broadcast, /*primary=*/primary && u == 0);
      }
      JoinSpec jspec = step.jspec;
      // Only the primary pipeline of unit 0 populates shared SIP filters,
      // exactly once inside the build and before any fragment's probe
      // opens. Hedge pipelines read them through their scans (a
      // not-yet-ready SIP passes rows through) but never write them, so a
      // replacement racing its orphaned primary cannot corrupt the filter.
      if (primary && u == 0) jspec.sip = step.sip;
      shared_builds.push_back(std::make_shared<SharedJoinBuild>(
          std::move(build_op), std::move(jspec), fanout));
    }
    auto build_fragment = [&](size_t f) -> Result<OperatorPtr> {
      ScanSpec fact_spec = fact_template;
      fact_spec.storage = fact_storage;
      fact_spec.morsels = dispenser;  // null = plain full-unit scan
      OperatorPtr stream = std::make_unique<ScanOperator>(fact_spec);
      for (size_t si = 0; si < steps->size(); ++si) {
        // Fragment 0 exposes the build subtree for EXPLAIN / memory
        // estimation.
        stream = std::make_unique<HashJoinOperator>(
            std::move(stream), shared_builds[si], /*show_build=*/f == 0);
      }
      if (residual_expr) {
        stream = std::make_unique<FilterOperator>(std::move(stream), residual_expr);
      }
      return finish(std::move(stream));
    };
    if (fanout <= 1) return build_fragment(0);
    std::vector<OperatorPtr> fragments;
    for (size_t f = 0; f < fanout; ++f) {
      STRATICA_ASSIGN_OR_RETURN(OperatorPtr frag, build_fragment(f));
      fragments.push_back(std::move(frag));
    }
    return OperatorPtr(MakeUnionExchange(std::move(fragments), "ParallelUnion",
                                         /*count_network=*/false));
  };
  // One exchange producer per fact unit: origin for error context, rebuild
  // recipe (first healthy buddy copy at hedge time) for stragglers and
  // mid-query node death.
  auto make_unit_specs =
      [&](const std::function<Result<OperatorPtr>(ProjectionStorage*, bool, size_t)>&
              build) -> Result<std::vector<ExchangeProducerSpec>> {
    std::vector<ExchangeProducerSpec> specs;
    const TableSlot& fslot = scope.tables[fact];
    for (size_t u = 0; u < num_units; ++u) {
      ExchangeProducerSpec spec;
      STRATICA_ASSIGN_OR_RETURN(spec.op, build(fslot.units[u], true, u));
      spec.origin = "node" + std::to_string(fslot.unit_hosts[u]);
      spec.rebuild = [build, alts = fslot.unit_alts[u], u]() -> Result<OperatorPtr> {
        for (auto* ps : alts) {
          if (!ps->HostUp() || ps->quarantined()) continue;
          return build(ps, false, u);
        }
        return Status::ClusterUnavailable("no healthy buddy for exchange partition ",
                                          u, " (K-safety exhausted)");
      };
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  // ---- aggregation / projection ----------------------------------------------
  bool has_aggs = !stmt.group_by.empty() || !stmt.having_aggs.empty();
  for (const auto& item : stmt.items) has_aggs |= item.kind == SelectItem::Kind::kAgg;
  bool has_windows = false;
  for (const auto& item : stmt.items)
    has_windows |= item.kind == SelectItem::Kind::kWindow;
  if (has_aggs && has_windows)
    return Status::NotImplemented("window functions with GROUP BY");

  PhysicalPlan plan;
  OperatorPtr root;

  if (has_aggs) {
    // Bind group keys + agg args against the stream schema.
    GroupBySpec gspec;
    std::vector<ExprPtr> group_exprs;
    std::vector<ExprPtr> agg_args;
    std::vector<AggSpec> aggs;
    for (const auto& g : stmt.group_by) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(g));
      group_exprs.push_back(e);
    }
    auto add_agg = [&](const AggCall& call) -> Status {
      AggSpec a;
      a.kind = call.kind;
      if (call.arg) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(call.arg));
        a.input_type = e->type;
        agg_args.push_back(e);
        a.input_column = static_cast<int>(group_exprs.size() + agg_args.size() - 1);
      }
      aggs.push_back(a);
      return Status::OK();
    };
    for (const auto& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kAgg) STRATICA_RETURN_NOT_OK(add_agg(item.agg));
    }
    for (const auto& call : stmt.having_aggs) STRATICA_RETURN_NOT_OK(add_agg(call));

    // Pipeline per unit: ExprEval computing (group keys..., agg args...),
    // then partial aggregation.
    bool partialable = true;
    for (const auto& a : aggs) partialable &= a.Partialable();

    std::vector<ExprPtr> eval_exprs = group_exprs;
    for (const auto& e : agg_args) eval_exprs.push_back(e);
    std::vector<std::string> eval_names;
    for (size_t i = 0; i < group_exprs.size(); ++i)
      eval_names.push_back("g" + std::to_string(i));
    for (size_t i = 0; i < agg_args.size(); ++i)
      eval_names.push_back("a" + std::to_string(i));
    if (eval_exprs.empty()) {
      // COUNT(*) with no grouping: keep one carrier column so row counts
      // survive the ExprEval.
      eval_exprs.push_back(Lit(Value::Int64(1)));
      eval_names.push_back("one");
    }

    GroupBySpec local;
    for (size_t i = 0; i < group_exprs.size(); ++i)
      local.group_columns.push_back(static_cast<uint32_t>(i));
    local.aggs = aggs;
    local.phase = partialable ? AggPhase::kPartial : AggPhase::kSingle;
    for (auto& name : eval_names) local.output_names.push_back(name);

    // Each local = unit pipeline + eval + partial aggregation; the whole
    // stack is rebuildable against a buddy copy, so hedged units redo their
    // partial aggregation from the replacement scan. The finisher runs per
    // fragment, so under fan-out each morsel fragment carries its own eval
    // + partial table and the aggregation parallelizes with the scan
    // (Figure 3's parallel prepass GroupBys; the morsel dispenser plays the
    // StorageUnion).
    auto build_local = [build_unit_pipeline, eval_exprs, eval_names, local,
                        partialable](ProjectionStorage* ps, bool primary,
                                     size_t u) -> Result<OperatorPtr> {
      FragmentFinisher finish = [eval_exprs, eval_names, local, partialable](
                                    OperatorPtr pipeline) -> Result<OperatorPtr> {
        auto eval = std::make_unique<ProjectOperator>(
            std::move(pipeline), std::vector<ExprPtr>(eval_exprs), eval_names);
        if (partialable) {
          return OperatorPtr(
              std::make_unique<HashGroupByOperator>(std::move(eval), local));
        }
        return OperatorPtr(std::move(eval));  // raw rows; single-stage at initiator
      };
      return build_unit_pipeline(ps, primary, u, finish);
    };
    STRATICA_ASSIGN_OR_RETURN(std::vector<ExchangeProducerSpec> locals,
                              make_unit_specs(build_local));
    OperatorPtr gathered =
        locals.size() == 1 ? std::move(locals[0].op)
                           : MakeUnionExchange(std::move(locals), "Recv", true);
    GroupBySpec final_spec = local;
    final_spec.phase = partialable ? AggPhase::kCombine : AggPhase::kSingle;
    final_spec.output_names.clear();
    for (size_t i = 0; i < group_exprs.size(); ++i)
      final_spec.output_names.push_back("g" + std::to_string(i));
    for (size_t i = 0; i < aggs.size(); ++i)
      final_spec.output_names.push_back("agg" + std::to_string(i));
    root = std::make_unique<HashGroupByOperator>(std::move(gathered), final_spec);

    // HAVING over (group cols..., agg outputs...).
    if (stmt.having) {
      BindSchema having_schema;
      for (size_t i = 0; i < group_exprs.size(); ++i)
        having_schema.Add("g" + std::to_string(i), group_exprs[i]->type);
      size_t select_aggs = aggs.size() - stmt.having_aggs.size();
      for (size_t i = 0; i < aggs.size(); ++i) {
        std::string name = "agg" + std::to_string(i);
        if (i >= select_aggs)
          name = "$having" + std::to_string(i - select_aggs);
        having_schema.Add(name, aggs[i].OutputType());
      }
      ExprPtr having = CloneExpr(stmt.having);
      STRATICA_RETURN_NOT_OK(BindExpr(having, having_schema));
      root = std::make_unique<FilterOperator>(std::move(root), having);
    }

    // Final projection mapping select items onto group/agg outputs.
    std::vector<ExprPtr> out_exprs;
    size_t agg_cursor = 0;
    for (const auto& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kAgg) {
        size_t col = group_exprs.size() + agg_cursor++;
        out_exprs.push_back(ColIdx(static_cast<int>(col), aggs[agg_cursor - 1].OutputType()));
        plan.column_names.push_back(item.alias.empty()
                                        ? std::string(AggKindName(item.agg.kind))
                                        : item.alias);
      } else if (item.kind == SelectItem::Kind::kExpr) {
        // Must match a group-by expression.
        ExprPtr bound_item;
        STRATICA_ASSIGN_OR_RETURN(bound_item, rebind_to_stream(item.expr));
        int found = -1;
        for (size_t g = 0; g < group_exprs.size(); ++g) {
          if (group_exprs[g]->ToString() == bound_item->ToString())
            found = static_cast<int>(g);
        }
        if (found < 0)
          return Status::AnalysisError("select expression not in GROUP BY: ",
                                       item.expr->ToString());
        out_exprs.push_back(ColIdx(found, group_exprs[found]->type));
        plan.column_names.push_back(item.alias.empty() ? item.expr->ToString()
                                                       : item.alias);
      } else {
        return Status::AnalysisError("SELECT * not valid with GROUP BY");
      }
    }
    std::vector<std::string> out_names = plan.column_names;
    root = std::make_unique<ProjectOperator>(std::move(root), out_exprs, out_names);
  } else {
    // No aggregation: gather rows, then project.
    auto build_plain = [build_unit_pipeline](ProjectionStorage* ps, bool primary,
                                             size_t u) -> Result<OperatorPtr> {
      FragmentFinisher identity = [](OperatorPtr op) -> Result<OperatorPtr> {
        return OperatorPtr(std::move(op));
      };
      return build_unit_pipeline(ps, primary, u, identity);
    };
    STRATICA_ASSIGN_OR_RETURN(std::vector<ExchangeProducerSpec> unit_pipelines,
                              make_unit_specs(build_plain));
    OperatorPtr gathered = unit_pipelines.size() == 1
                               ? std::move(unit_pipelines[0].op)
                               : MakeUnionExchange(std::move(unit_pipelines), "Recv",
                                                   true);
    // Window functions: sort by (partition, order) then Analytic.
    std::vector<TypeId> window_types;
    if (has_windows) {
      AnalyticSpec aspec;
      bool first_window = true;
      size_t stream_width = stream_schema.size();
      std::vector<ExprPtr> pre_exprs;   // pass-through stream + computed keys
      for (size_t c = 0; c < stream_width; ++c)
        pre_exprs.push_back(ColIdx(static_cast<int>(c), stream_schema.types[c]));
      std::vector<std::string> pre_names = stream_schema.names;
      std::vector<SortKey> sort_keys;
      for (const auto& item : stmt.items) {
        if (item.kind != SelectItem::Kind::kWindow) continue;
        const WindowCall& w = item.window;
        if (first_window) {
          for (const auto& pe : w.partition_by) {
            STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(pe));
            if (e->kind != ExprKind::kColumnRef)
              return Status::NotImplemented("non-column PARTITION BY");
            aspec.partition_columns.push_back(
                static_cast<uint32_t>(e->column_index));
            sort_keys.push_back({static_cast<uint32_t>(e->column_index), false});
          }
          for (const auto& [oe, desc] : w.order_by) {
            STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(oe));
            if (e->kind != ExprKind::kColumnRef)
              return Status::NotImplemented("non-column window ORDER BY");
            aspec.order_keys.push_back({static_cast<uint32_t>(e->column_index), desc});
            sort_keys.push_back({static_cast<uint32_t>(e->column_index), desc});
          }
          first_window = false;
        }
        WindowSpec ws;
        ws.func = w.func;
        if (w.arg) {
          STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(w.arg));
          if (e->kind != ExprKind::kColumnRef)
            return Status::NotImplemented("non-column window argument");
          ws.input_column = e->column_index;
        }
        ws.output_name = item.alias.empty() ? WindowFuncName(w.func) : item.alias;
        window_types.push_back(ws.OutputType(stream_schema.types));
        aspec.windows.push_back(ws);
      }
      gathered = std::make_unique<SortOperator>(std::move(gathered), sort_keys);
      gathered = std::make_unique<AnalyticOperator>(std::move(gathered), aspec);
    }

    std::vector<ExprPtr> out_exprs;
    size_t window_cursor = 0;
    size_t stream_width = stream_schema.size();
    for (const auto& item : stmt.items) {
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          for (size_t c = 0; c < stream_width; ++c) {
            out_exprs.push_back(ColIdx(static_cast<int>(c), stream_schema.types[c]));
            plan.column_names.push_back(stream_schema.names[c]);
          }
          break;
        case SelectItem::Kind::kExpr: {
          STRATICA_ASSIGN_OR_RETURN(ExprPtr e, rebind_to_stream(item.expr));
          out_exprs.push_back(e);
          plan.column_names.push_back(item.alias.empty() ? item.expr->ToString()
                                                         : item.alias);
          break;
        }
        case SelectItem::Kind::kWindow: {
          int col = static_cast<int>(stream_width + window_cursor);
          out_exprs.push_back(ColIdx(col, window_types[window_cursor]));
          ++window_cursor;
          plan.column_names.push_back(item.alias.empty()
                                          ? WindowFuncName(item.window.func)
                                          : item.alias);
          break;
        }
        case SelectItem::Kind::kAgg:
          return Status::Internal("agg item in non-agg path");
      }
    }
    // Window output types need correction after Analytic wiring.
    root = std::make_unique<ProjectOperator>(std::move(gathered), out_exprs,
                                             plan.column_names);
  }

  // DISTINCT: group-by over every output column.
  if (stmt.distinct) {
    GroupBySpec dspec;
    auto types = root->OutputTypes();
    for (size_t c = 0; c < types.size(); ++c)
      dspec.group_columns.push_back(static_cast<uint32_t>(c));
    dspec.output_names = plan.column_names;
    root = std::make_unique<HashGroupByOperator>(std::move(root), dspec);
  }

  // ORDER BY over the output schema (unless the scan already carries it).
  if (!stmt.order_by.empty() && !sort_eliminated) {
    BindSchema out_schema;
    auto types = root->OutputTypes();
    for (size_t c = 0; c < plan.column_names.size(); ++c)
      out_schema.Add(plan.column_names[c], types[c]);
    std::vector<SortKey> keys;
    for (const auto& [oe, desc] : stmt.order_by) {
      ExprPtr e = CloneExpr(oe);
      int idx = -1;
      // Match by alias/name first, then by rendered expression.
      if (e->kind == ExprKind::kColumnRef) {
        idx = out_schema.Find(e->column_name);
      }
      if (idx < 0) {
        std::string rendered = e->ToString();
        for (size_t c = 0; c < plan.column_names.size(); ++c) {
          if (plan.column_names[c] == rendered) idx = static_cast<int>(c);
        }
      }
      if (idx < 0)
        return Status::AnalysisError("ORDER BY must reference an output column: ",
                                     e->ToString());
      keys.push_back({static_cast<uint32_t>(idx), desc});
    }
    // A LIMIT above the Sort fuses into a top-k heap: the sort keeps only
    // limit+offset rows buffered and never externalizes (DESIGN.md §8).
    // The heap itself never spills, so huge limits (where top-k barely
    // beats a full sort anyway) stay on the externalizing path; LIMIT 0
    // still sorts as top-1 rather than sorting everything for no rows.
    constexpr uint64_t kMaxTopKHint = 128 * 1024;
    uint64_t limit_hint = 0;
    if (stmt.limit >= 0) {
      uint64_t k = static_cast<uint64_t>(stmt.limit) + static_cast<uint64_t>(stmt.offset);
      if (k <= kMaxTopKHint) limit_hint = k > 0 ? k : 1;
    }
    root = std::make_unique<SortOperator>(std::move(root), keys, limit_hint);
  }

  if (stmt.limit >= 0) {
    root = std::make_unique<LimitOperator>(std::move(root),
                                           static_cast<uint64_t>(stmt.limit),
                                           static_cast<uint64_t>(stmt.offset));
  }

  plan.column_types = root->OutputTypes();
  plan.estimated_memory_bytes = EstimatePlanMemory(*root);
  plan.fanout = fanout;
  plan.morsel_bypass = morsel_bypass;
  plan.root = std::move(root);
  return plan;
}

Result<std::string> Planner::Explain(const SelectStmt& stmt,
                                     size_t intra_node_parallelism) {
  STRATICA_ASSIGN_OR_RETURN(PhysicalPlan plan,
                            PlanSelect(stmt, intra_node_parallelism));
  return ExplainTree(*plan.root);
}

}  // namespace stratica
