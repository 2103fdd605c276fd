// The copy path (Section 5.2): node recovery, quarantine repair, projection
// refresh and elastic rebalance all copy epoch-stamped rows and delete
// markers from live copies the same way. The slot source picks the copy
// serving each ring slot (the projection's own, then its buddies); the
// gather reads those slots into one block in the caller's column order; the
// replay routes the rows by the ring, ingests the ones committed after
// `from` with their epochs, and re-resolves later deletes of older rows on
// the destination by content (the "separate plan" the paper uses to move
// delete vectors).
//
// Recovery first truncates the node to its Last Good Epoch (WOS contents
// died with it), then runs the path in two phases: a lock-free historical
// phase covering (LGE, Eh], then a current phase under a Shared table lock
// covering (Eh, now].
#include <algorithm>
#include <unordered_map>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "exec/scan.h"
#include "storage/sort_util.h"

namespace stratica {

namespace {

/// Re-target the deletes of `deleted` (rows, each deleted at its
/// `del_epochs` entry) onto `ps` by content: scan the destination's live
/// rows with their positions as of `read_at`, match each deleted row's twin
/// and register delete-vector chunks carrying the original delete epochs.
/// Replay's step for deletes of rows the destination already holds.
Status TranslateDeletesByContent(FileSystem* fs, ProjectionStorage* ps,
                                 const RowBlock& deleted,
                                 const std::vector<Epoch>& del_epochs, Epoch read_at) {
  if (deleted.NumRows() == 0) return Status::OK();
  STRATICA_ASSIGN_OR_RETURN(RowBlock own,
                            ScanCopy(fs, ps, read_at, {kScanTarget, kScanPosition}));
  const size_t ncols = deleted.columns.size();
  std::vector<std::pair<size_t, size_t>> cols;
  for (size_t c = 0; c < ncols; ++c) cols.emplace_back(c, c);
  std::vector<int64_t> match = MatchByContent(own, deleted, cols);
  std::map<uint64_t, DeleteList> found;  // target -> (position, delete epoch)
  for (size_t w = 0; w < match.size(); ++w) {
    if (match[w] < 0) continue;
    found[static_cast<uint64_t>(own.columns[ncols].ints[match[w]])].push_back(
        {static_cast<uint64_t>(own.columns[ncols + 1].ints[match[w]]), del_epochs[w]});
  }
  for (auto& [target, list] : found)
    ps->AdoptContainer(nullptr, {MakeDeleteChunk(target, std::move(list))});
  return Status::OK();
}

/// Which copies may serve a copy range (needed_from, now]?
///
/// A quarantined copy that still has its data IS usable: its reads are
/// checksum-verified end to end, so either the copy serves correct bytes or
/// the copy fails cleanly and is retried — and recovery_mu_ guarantees
/// no repair is concurrently rebuilding it under us. Rejecting it instead
/// deadlocks the common double-fault: the quarantined copy's buddy goes
/// down, each side is the only possible source for the other.
///
/// A copy a failed repair *gutted* is the exception: its files are
/// checksum-clean but history below the gut point is gone. It kept
/// receiving every commit since the gut, so it is complete — and usable —
/// only for ranges starting at or after that point.
bool UsableAsSource(const ProjectionStorage* cand, Epoch needed_from) {
  if (cand == nullptr) return false;
  if (cand->repair_gutted()) return cand->gutted_at() <= needed_from;
  return true;
}

template <typename T>
std::vector<T> Pick(const std::vector<T>& v, const std::vector<uint32_t>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (uint32_t i : idx) out.push_back(v[i]);
  return out;
}

}  // namespace

std::vector<int64_t> MatchByContent(const RowBlock& rows, const RowBlock& wanted,
                                    const std::vector<std::pair<size_t, size_t>>& cols) {
  auto hash = [&](const RowBlock& block, bool is_wanted, size_t r) {
    uint64_t h = 0xbdd1;
    for (const auto& [rc, wc] : cols)
      h = HashCombine(h, block.columns[is_wanted ? wc : rc].HashEntry(r));
    return h;
  };
  std::unordered_multimap<uint64_t, size_t> index;
  index.reserve(rows.NumRows());
  for (size_t r = 0; r < rows.NumRows(); ++r) index.emplace(hash(rows, false, r), r);
  std::vector<int64_t> match(wanted.NumRows(), -1);
  for (size_t w = 0; w < wanted.NumRows(); ++w) {
    auto [lo, hi] = index.equal_range(hash(wanted, true, w));
    for (auto it = lo; it != hi; ++it) {
      bool equal = std::all_of(cols.begin(), cols.end(), [&](const auto& c) {
        return ColumnVector::CompareEntries(rows.columns[c.first], it->second,
                                            wanted.columns[c.second], w) == 0;
      });
      if (!equal) continue;
      match[w] = static_cast<int64_t>(it->second);
      index.erase(it);  // a row matches at most once
      break;
    }
  }
  return match;
}

Cluster::CopyRows Cluster::CopyRows::Select(const std::vector<uint32_t>& idx) const {
  return {ApplyPermutation(rows, idx), Pick(epochs, idx), Pick(deletes, idx),
          Pick(hosts, idx)};
}

ProjectionStorage* Cluster::SlotSource(const ProjectionDef& def, uint32_t slot,
                                       Epoch needed_from,
                                       const std::vector<uint32_t>& exclude,
                                       uint32_t* host) {
  uint32_t n = num_nodes();
  std::string family = def.buddy_of.empty() ? def.name : def.buddy_of;
  std::vector<ProjectionDef> copies{def};
  for (auto& copy : catalog_->ProjectionsForTable(def.anchor_table)) {
    std::string copy_family = copy.buddy_of.empty() ? copy.name : copy.buddy_of;
    if (copy_family == family && copy.name != def.name) copies.push_back(std::move(copy));
  }
  for (const auto& copy : copies) {
    // A segmented copy stores the slot on one node; a replicated one on all.
    bool replicated = copy.segmentation.replicated;
    for (uint32_t i = 0; i < (replicated ? n : 1); ++i) {
      uint32_t h = replicated ? i : (slot + copy.segmentation.node_offset) % n;
      if (std::count(exclude.begin(), exclude.end(), h) || !nodes_[h]->up()) continue;
      auto* cand = nodes_[h]->GetStorage(copy.name);
      if (!UsableAsSource(cand, needed_from)) continue;
      *host = h;
      return cand;
    }
  }
  return nullptr;
}

Result<Cluster::CopyRows> Cluster::Gather(const ProjectionDef& src,
                                          const std::vector<ProjectionColumnDef>& columns,
                                          Epoch needed_from, Epoch at,
                                          std::optional<uint32_t> slot,
                                          const std::vector<uint32_t>& exclude) {
  // Map the caller's columns onto the source's once: every copy in a buddy
  // family shares one column layout.
  std::vector<size_t> src_cols;
  for (const auto& c : columns) {
    size_t s = 0;
    while (s < src.columns.size() && src.columns[s].table_column != c.table_column) ++s;
    if (s == src.columns.size())
      return Status::Internal("projection ", src.name, " lacks column ", c.name);
    src_cols.push_back(s);
  }
  uint32_t num_slots = src.segmentation.replicated ? 1 : num_nodes();
  CopyRows out;
  for (uint32_t s = slot.value_or(0); s < (slot ? *slot + 1 : num_slots); ++s) {
    std::vector<uint32_t> skip = exclude;  // and each node whose copy failed to read
    Result<RowBlock> part = RowBlock();
    uint32_t host = 0;
    for (;; skip.push_back(host)) {
      ProjectionStorage* ps = SlotSource(src, s, needed_from, skip, &host);
      if (!ps) {
        return Status::ClusterUnavailable(
            "no live copy of ", src.name, " serves ring slot ", s,
            part.ok() ? "" : " (last read error: " + part.status().ToString() + ")");
      }
      part = ScanCopy(fs_, ps, at, {kScanCommitEpoch, kScanDeleteEpoch});
      if (part.ok()) break;
    }
    const RowBlock& rows = part.value();
    const size_t ncols = rows.columns.size() - 2;  // then the two epoch columns
    if (out.rows.columns.empty()) {
      for (size_t sc : src_cols) out.rows.columns.emplace_back(rows.columns[sc].type);
    }
    for (size_t c = 0; c < src_cols.size(); ++c)
      out.rows.columns[c].AppendRange(rows.columns[src_cols[c]], 0, rows.NumRows());
    const auto& epochs = rows.columns[ncols].ints;
    const auto& deletes = rows.columns[ncols + 1].ints;
    out.epochs.insert(out.epochs.end(), epochs.begin(), epochs.end());
    out.deletes.insert(out.deletes.end(), deletes.begin(), deletes.end());
    out.hosts.insert(out.hosts.end(), rows.NumRows(), host);
  }
  return out;
}

Result<Cluster::RingSplit> Cluster::Route(const ProjectionDef& proj,
                                          const ProjectionStorageConfig& cfg,
                                          const RowBlock& rows,
                                          const SegmentationRing& ring) {
  const size_t n_rows = rows.NumRows();
  RingSplit split;
  split.rows.resize(ring.num_nodes());
  if (proj.segmentation.replicated) {
    split.counts.assign(ring.num_nodes(), n_rows);
    return split;
  }
  split.counts.assign(ring.num_nodes(), 0);
  ColumnVector hashes;
  STRATICA_RETURN_NOT_OK(EvalExpr(*cfg.segmentation_expr, rows, &hashes));
  auto target = [&](size_t r) {
    return ring.NodeFor(static_cast<uint64_t>(hashes.ints[r]),
                        proj.segmentation.node_offset);
  };
  for (size_t r = 0; r < n_rows; ++r) ++split.counts[target(r)];
  if (std::find(split.counts.begin(), split.counts.end(), n_rows) == split.counts.end()) {
    for (uint32_t n = 0; n < ring.num_nodes(); ++n) split.rows[n].reserve(split.counts[n]);
    for (size_t r = 0; r < n_rows; ++r)
      split.rows[target(r)].push_back(static_cast<uint32_t>(r));
  }
  return split;
}

Status Cluster::Replay(const ProjectionDef& def, const CopyRows& src,
                       const SegmentationRing& ring,
                       const std::vector<ProjectionStorage*>& targets, Epoch from,
                       Epoch to) {
  auto first = std::find_if(targets.begin(), targets.end(),
                            [](const ProjectionStorage* ps) { return ps != nullptr; });
  if (first == targets.end()) return Status::OK();
  STRATICA_ASSIGN_OR_RETURN(RingSplit split, Route(def, (*first)->config(), src.rows, ring));
  const size_t n_rows = src.rows.NumRows();
  for (uint32_t node = 0; node < targets.size(); ++node) {
    ProjectionStorage* ps = targets[node];
    if (ps == nullptr) continue;
    // Rows committed after `from` are copied; deletes after `from` of older
    // rows must be re-targeted at the copy's existing rows by content.
    std::vector<uint32_t> copy, late_deletes;
    uint64_t moved = 0;
    bool every_row = split.counts[node] == n_rows;
    for (size_t i = 0; i < split.counts[node]; ++i) {
      uint32_t r = every_row ? static_cast<uint32_t>(i) : split.rows[node][i];
      if (src.epochs[r] > from) {
        copy.push_back(r);
        moved += src.hosts[r] != node;
      } else if (src.deletes[r] > from) {
        late_deletes.push_back(r);
      }
    }
    AddNetworkBytes(64 * moved);  // coarse per-row transfer accounting
    CopyRows mine = src.Select(copy);
    STRATICA_RETURN_NOT_OK(ps->IngestRecovered(std::move(mine.rows), std::move(mine.epochs),
                                               std::move(mine.deletes), to));
    CopyRows late = src.Select(late_deletes);
    STRATICA_RETURN_NOT_OK(TranslateDeletesByContent(fs_, ps, late.rows, late.deletes, from));
  }
  return Status::OK();
}

Status Cluster::RecoverProjectionOnNode(const ProjectionDef& def, uint32_t node_id,
                                        Epoch up_to, bool take_lock, uint64_t txn_id,
                                        bool full_rebuild) {
  Node* node = nodes_[node_id].get();
  auto* ps = node->GetStorage(def.name);
  if (!ps) return Status::Internal("recovering node lacks storage for ", def.name);

  if (take_lock) {
    STRATICA_RETURN_NOT_OK(locks_.Acquire(txn_id, def.anchor_table, LockMode::kS));
    // Resample the horizon now that inserts are fenced: a commit that
    // landed between the caller sampling `up_to` and the lock grant is
    // otherwise invisible to the copy and lost on this node.
    up_to = epochs_.LatestQueryableEpoch();
  }

  Epoch start = full_rebuild ? 0 : ps->lge();
  SegmentationRing ring = this->ring();
  uint32_t slot = def.segmentation.replicated
                      ? 0
                      : ring.SlotStoredBy(node_id, def.segmentation.node_offset);
  STRATICA_ASSIGN_OR_RETURN(
      CopyRows rows, Gather(def, def.columns, start, up_to, slot, {node_id}));
  if (full_rebuild) {
    // Only now — with the source's full view safely in memory — destroy
    // the damaged copy. Ordering the read before the wipe means a source
    // that dies or errors mid-read leaves this copy untouched (still
    // quarantined, still revalidatable, still holding its history), rather
    // than gutted with no way to rebuild. The gut horizon records the last
    // epoch the wipe discards; every later commit still lands here, so even
    // if the ingest below fails, the copy remains a valid source for
    // post-horizon ranges.
    ps->MarkRepairGutted(up_to);
    ps->Clear(/*delete_files=*/true);
    STRATICA_RETURN_NOT_OK(ps->ScrubFiles().status());
  }
  std::vector<ProjectionStorage*> targets(ring.num_nodes(), nullptr);
  targets[node_id] = ps;
  return Replay(def, rows, ring, targets, start, up_to);
}

Status Cluster::RecoverNode(uint32_t node_id) {
  if (node_id >= num_nodes()) return Status::InvalidArgument("no such node");
  Node* node = nodes_[node_id].get();
  if (node->up()) return Status::InvalidArgument("node ", node_id, " is not down");
  // One whole-copy recovery at a time: a quarantine repair interleaving
  // with node recovery on the same storage truncates under the other's
  // ingest and double-applies the overlapping epoch range (duplicate rows).
  std::lock_guard recovery_lock(recovery_mu_);

  // Phase 0: truncate everything past the LGE so the node starts from a
  // consistent prefix of history, then scrub the disk — files orphaned by
  // transactions that died with the node, and torn writes that never got
  // their rename, are GC'd instead of failing replay (DESIGN.md §10).
  for (const auto& name : node->StorageNames()) {
    auto* ps = node->GetStorage(name);
    ps->TruncateForRecovery(ps->lge());
    auto scrubbed = ps->ScrubFiles();
    if (!scrubbed.ok()) return scrubbed.status();
  }

  auto txn = txns_.Begin();
  // Both copy phases early-return on I/O, corruption or lock errors. Route
  // every exit through a single cleanup: an error must not leak the
  // bookkeeping txn or the current phase's S locks (a leaked S lock wedges
  // all future DML on the anchor table).
  Status st = [&]() -> Status {
    // Historical phase: no locks, copy up to the epoch horizon sampled now.
    Epoch horizon = epochs_.LatestQueryableEpoch();
    for (const auto& name : node->StorageNames()) {
      STRATICA_ASSIGN_OR_RETURN(ProjectionDef def, catalog_->GetProjection(name));
      STRATICA_RETURN_NOT_OK(RecoverProjectionOnNode(def, node_id, horizon,
                                                     /*take_lock=*/false, txn->id()));
    }
    // Current phase: catch the tail under Shared locks, then rejoin.
    Epoch now = epochs_.LatestQueryableEpoch();
    for (const auto& name : node->StorageNames()) {
      STRATICA_ASSIGN_OR_RETURN(ProjectionDef def, catalog_->GetProjection(name));
      STRATICA_RETURN_NOT_OK(RecoverProjectionOnNode(def, node_id, now,
                                                     /*take_lock=*/true, txn->id()));
    }
    return Status::OK();
  }();
  // Rejoin while the S locks are still held: inserts take I locks (which S
  // blocks), so no commit can land between "caught up to now" and "marked
  // up". Flipping up() after the release would let a commit slip into that
  // window, skip the still-down node, and leave its copy short forever.
  if (st.ok()) {
    for (const auto& name : node->StorageNames()) {
      auto* ps = node->GetStorage(name);
      // A copy a failed repair gutted before this node went down still has
      // its pre-gut hole: recovery replayed (lge, now], and moveout may
      // have pushed lge past the gut point. Leave it quarantined —
      // RepairQuarantined rebuilds it from the buddy once we are back up.
      if (!ps->repair_gutted()) ps->ClearQuarantine();
    }
    node->set_up(true);
  }
  txns_.Rollback(txn);  // bookkeeping txn held no data; releases all S locks
  return st;
}

Result<uint64_t> Cluster::RepairQuarantined() {
  // Re-recover projection copies quarantined by scans after a persistent
  // read failure (DESIGN.md §10). The copy is rebuilt wholesale from a
  // buddy — same machinery as node recovery, scoped to one projection. A
  // failed repair (e.g. no live buddy right now) keeps the quarantine flag
  // set and is retried on the next tuple-mover tick, so the error state is
  // never silently dropped.
  std::lock_guard recovery_lock(recovery_mu_);  // see RecoverNode
  uint64_t repaired = 0;
  uint32_t num = num_nodes();
  for (uint32_t ni = 0; ni < num; ++ni) {
    Node* node = nodes_[ni].get();
    if (!node->up()) continue;
    for (const auto& name : node->StorageNames()) {
      auto* ps = node->GetStorage(name);
      if (!ps || !ps->quarantined()) continue;
      auto def = catalog_->GetProjection(name);
      if (!def.ok()) continue;  // dropped concurrently; flag dies with storage
      auto txn = txns_.Begin();
      Status st = [&]() -> Status {
        // Fence inserts *before* touching the copy: Clear outside the lock
        // races a concurrent load routing rows into this storage — the
        // wipe would eat the in-flight chunk after the commit succeeded.
        STRATICA_RETURN_NOT_OK(
            locks_.Acquire(txn->id(), def.value().anchor_table, LockMode::kS));
        // Cheap path first: if a full checksummed read of the copy passes,
        // the quarantine came from since-cleared read errors, not damage —
        // lift it without a rebuild. This is also what breaks the deadlock
        // when every copy of a slot is quarantined at once: no copy could
        // serve as the other's rebuild source, but each can self-verify.
        // Never for a copy a previous failed repair already gutted: its
        // files are checksum-clean but the data is gone — a vacuous pass
        // here would put an empty copy back in service.
        if (!ps->repair_gutted() && ps->Revalidate().ok()) return Status::OK();
        // Real damage: rebuild wholesale from a buddy. The rebuild reads
        // the source's complete history into memory *before* it wipes this
        // copy (see RecoverProjectionOnNode), so a source that errors or
        // dies mid-read costs nothing — the copy keeps its data and the
        // repair is simply retried on a later tick.
        Epoch now = epochs_.LatestQueryableEpoch();
        return RecoverProjectionOnNode(def.value(), static_cast<uint32_t>(node->id()),
                                       now, /*take_lock=*/true, txn->id(),
                                       /*full_rebuild=*/true);
      }();
      if (st.ok()) ps->ClearQuarantine();  // before the S lock drops
      txns_.Rollback(txn);  // releases the S lock on every path
      if (!st.ok()) continue;
      ++repaired;
    }
  }
  return repaired;
}

Status Cluster::RefreshProjection(const std::string& projection) {
  STRATICA_ASSIGN_OR_RETURN(ProjectionDef def, catalog_->GetProjection(projection));

  // Source: a super projection of the anchor table outside the refreshed
  // projection's own buddy family, preferring one that holds data.
  std::string family = def.buddy_of.empty() ? def.name : def.buddy_of;
  std::vector<ProjectionDef> supers;
  for (const auto& p : catalog_->ProjectionsForTable(def.anchor_table)) {
    std::string p_family = p.buddy_of.empty() ? p.name : p.buddy_of;
    if (p.is_super && p_family != family) supers.push_back(p);
  }
  std::stable_sort(supers.begin(), supers.end(),
                   [&](const ProjectionDef& a, const ProjectionDef& b) {
                     auto rows = [&](const ProjectionDef& p) {
                       uint64_t total = 0;
                       uint32_t n = num_nodes();
                       for (uint32_t i = 0; i < n; ++i) {
                         auto* ps = nodes_[i]->GetStorage(p.name);
                         if (ps) total += ps->TotalRosRows() + ps->WosRowCount();
                       }
                       return total;
                     };
                     return rows(a) > rows(b);
                   });
  if (supers.empty())
    return Status::InvalidArgument("no super projection to refresh from");

  auto txn = txns_.Begin();
  // Refresh runs a historical copy then a brief locked current phase; our
  // in-process simulation folds both into one locked pass.
  STRATICA_RETURN_NOT_OK(
      locks_.Acquire(txn->id(), def.anchor_table, LockMode::kS));
  Epoch now = epochs_.LatestQueryableEpoch();
  Status st = RefreshProjectionLocked(def, supers.front(), now);
  // Release on every path — an early error return must not leak the S
  // lock (it would wedge all future DML on the anchor table).
  txns_.Rollback(txn);  // bookkeeping txn held no data
  return st;
}

Status Cluster::RefreshProjectionLocked(const ProjectionDef& def, const ProjectionDef& src,
                                        Epoch now) {
  // Every ring slot of the source, from any live copy, in the target's
  // column order.
  STRATICA_ASSIGN_OR_RETURN(CopyRows all, Gather(src, def.columns, 0, now));
  SegmentationRing ring = this->ring();
  std::vector<ProjectionStorage*> targets(ring.num_nodes(), nullptr);
  for (uint32_t ni = 0; ni < ring.num_nodes(); ++ni) {
    if (!nodes_[ni]->up()) continue;  // recovers the rows from a buddy later
    targets[ni] = nodes_[ni]->GetStorage(def.name);
    if (!targets[ni]) return Status::Internal("missing storage for ", def.name);
    targets[ni]->Clear(/*delete_files=*/true);
  }
  return Replay(def, all, ring, targets, 0, now);
}

Status Cluster::AddNodeAndRebalance() { return RebalanceToNodeCount(num_nodes() + 1); }

Status Cluster::RemoveLastNodeAndRebalance() {
  uint32_t n = num_nodes();
  if (n <= 1) return Status::InvalidArgument("cannot remove the last node");
  return RebalanceToNodeCount(n - 1);
}

Status Cluster::RebalanceToNodeCount(uint32_t new_count) {
  // Serialize against whole-copy recovery and DDL, but NOT against queries
  // or DML: the bulk copy below runs lock-free against an epoch snapshot.
  std::scoped_lock guard(recovery_mu_, ddl_mu_);
  uint32_t old_count = num_nodes();
  if (new_count == old_count) return Status::OK();
  if (new_count <= cfg_.k_safety)
    return Status::InvalidArgument("node count must exceed k-safety");
  if (new_count > cfg_.num_nodes + kMaxAddedNodes)
    return Status::InvalidArgument("cluster at maximum size");
  for (uint32_t i = 0; i < old_count; ++i) {
    if (!nodes_[i]->up())
      return Status::ClusterUnavailable(
          "rebalance requires all nodes up (recover node ", nodes_[i]->id(), " first)");
  }
  // Materialize Node objects for a grow. nodes_ was reserved at construction,
  // so push_back never reallocates under concurrent node(i) readers; the new
  // slots stay invisible until active_nodes_ is advanced at the swap.
  while (nodes_.size() < new_count) {
    nodes_.push_back(std::make_unique<Node>(static_cast<int>(nodes_.size()), fs_,
                                            &epochs_, cfg_.tuple_mover));
  }
  for (uint32_t i = old_count; i < new_count; ++i) nodes_[i]->set_up(true);

  uint32_t gen = ++rebalance_gen_;
  SegmentationRing new_ring(new_count);
  // Gather `def` at `to` from the active copies (num_nodes() advances only
  // at the swap) and replay (from, to] into its staged copies by the new ring.
  auto replay = [&](const ProjectionDef& def,
                    std::vector<std::unique_ptr<ProjectionStorage>>& staged, Epoch from,
                    Epoch to) -> Status {
    STRATICA_ASSIGN_OR_RETURN(CopyRows all, Gather(def, def.columns, from, to));
    std::vector<ProjectionStorage*> targets;
    for (auto& ps : staged) targets.push_back(ps.get());
    return Replay(def, all, new_ring, targets, from, to);
  };

  struct StagedProjection {
    ProjectionDef def;
    std::vector<std::unique_ptr<ProjectionStorage>> nodes;
  };
  std::vector<StagedProjection> staged;
  auto discard_staged = [&staged] {
    for (auto& sp : staged) {
      for (auto& ps : sp.nodes) {
        if (ps) ps->Clear(/*delete_files=*/true);
      }
    }
  };

  // ---- Phase 1 (lock-free): stage every projection under the new ring at a
  // sampled horizon. Concurrent DML keeps committing; anything past the
  // horizon is picked up by the delta replay in phase 2.
  Epoch horizon = epochs_.LatestQueryableEpoch();
  for (const auto& pname : catalog_->ProjectionNames()) {
    STRATICA_ASSIGN_OR_RETURN(ProjectionDef def, catalog_->GetProjection(pname));
    StagedProjection sp;
    sp.def = def;
    sp.nodes.resize(new_count);
    for (uint32_t i = 0; i < new_count; ++i) {
      STRATICA_ASSIGN_OR_RETURN(ProjectionStorageConfig cfg,
                                MakeStorageConfig(def, i, new_ring));
      sp.nodes[i] = std::make_unique<ProjectionStorage>(
          fs_, nodes_[i]->BaseDir() + "/" + pname + ".g" + std::to_string(gen),
          std::move(cfg));
    }
    Status s = replay(def, sp.nodes, /*from=*/0, /*to=*/horizon);
    if (!s.ok()) {
      discard_staged();
      return s;
    }
    staged.push_back(std::move(sp));
  }

  // ---- Phase 2: fence DML with S locks on every table (sorted, bounded
  // wait — a concurrent DropTable holds O and then wants ddl_mu_, which we
  // hold, so an unbounded wait here would deadlock), replay the
  // (horizon, now] delta, and swap the staged storages in.
  TransactionPtr txn = txns_.Begin();
  std::vector<std::string> tables = catalog_->TableNames();
  std::sort(tables.begin(), tables.end());
  for (const auto& t : tables) {
    Status s = locks_.Acquire(txn->id(), t, LockMode::kS,
                              std::chrono::milliseconds(2000));
    if (!s.ok()) {
      txns_.Rollback(txn);
      discard_staged();
      return s;
    }
  }
  Epoch now = epochs_.LatestQueryableEpoch();
  for (auto& sp : staged) {
    Status s = replay(sp.def, sp.nodes, /*from=*/horizon, /*to=*/now);
    if (!s.ok()) {
      txns_.Rollback(txn);
      discard_staged();
      return s;
    }
  }

  {
    // The swap itself: exclusive only for the pointer exchange. Planned
    // queries keep reading the retired storages, which stay alive until
    // cluster teardown.
    std::unique_lock topo(topology_mu_);
    for (auto& sp : staged) {
      for (uint32_t i = 0; i < new_count; ++i) {
        auto old = nodes_[i]->ReplaceStorage(sp.def.name, std::move(sp.nodes[i]));
        if (old) retired_storage_.push_back(std::move(old));
      }
      for (uint32_t i = new_count; i < old_count; ++i) {
        auto old = nodes_[i]->TakeStorage(sp.def.name);
        if (old) retired_storage_.push_back(std::move(old));
      }
    }
    active_nodes_.store(new_count, std::memory_order_release);
    for (uint32_t i = new_count; i < static_cast<uint32_t>(nodes_.size()); ++i) {
      nodes_[i]->set_up(false);
    }
  }
  txns_.Rollback(txn);  // bookkeeping only: releases the S locks
  return Status::OK();
}

}  // namespace stratica
