#include "storage/projection_storage.h"

#include <algorithm>
#include <set>

#include "common/checksum.h"
#include "common/hash.h"
#include "common/retry.h"
#include "storage/sort_util.h"

namespace stratica {

uint64_t StorageSnapshot::TotalRows() const {
  uint64_t n = 0;
  for (const auto& c : ros) n += c->row_count;
  for (const auto& w : wos) n += w->NumRows();
  return n;
}

ProjectionStorage::ProjectionStorage(FileSystem* fs, std::string base_dir,
                                     ProjectionStorageConfig cfg)
    : fs_(fs), base_dir_(std::move(base_dir)), cfg_(std::move(cfg)) {}

std::pair<uint64_t, std::string> ProjectionStorage::AllocateContainer() {
  uint64_t id = next_container_id_.fetch_add(1);
  return {id, base_dir_ + "/c" + std::to_string(id)};
}

uint32_t ProjectionStorage::LocalSegmentOf(uint64_t hash) const {
  if (cfg_.num_local_segments <= 1) return 0;
  uint64_t lo = cfg_.range_lo;
  uint64_t hi = cfg_.range_hi;
  if (hash < lo) hash = lo;
  if (hash > hi) hash = hi;
  unsigned __int128 span = static_cast<unsigned __int128>(hi) - lo + 1;
  unsigned __int128 off = static_cast<unsigned __int128>(hash - lo);
  return static_cast<uint32_t>((off * cfg_.num_local_segments) / span);
}

Status ProjectionStorage::SplitForStorage(
    const RowBlock& rows,
    std::map<std::pair<int64_t, uint32_t>, std::vector<uint32_t>>* groups) const {
  size_t n = rows.NumRows();
  ColumnVector keys, hashes;
  if (cfg_.partition_expr)
    STRATICA_RETURN_NOT_OK(EvalExpr(*cfg_.partition_expr, rows, &keys));
  if (cfg_.segmentation_expr && cfg_.num_local_segments > 1)
    STRATICA_RETURN_NOT_OK(EvalExpr(*cfg_.segmentation_expr, rows, &hashes));
  auto group_of = [&](size_t i) -> std::pair<int64_t, uint32_t> {
    int64_t part = keys.ints.empty() || keys.IsNull(i) ? kNoPartitionKey : keys.ints[i];
    uint32_t seg =
        hashes.ints.empty() ? 0 : LocalSegmentOf(static_cast<uint64_t>(hashes.ints[i]));
    return {part, seg};
  };
  // Count first so each group's index list is allocated once.
  std::map<std::pair<int64_t, uint32_t>, size_t> counts;
  for (size_t i = 0; i < n; ++i) ++counts[group_of(i)];
  for (const auto& [key, count] : counts) (*groups)[key].reserve(count);
  for (size_t i = 0; i < n; ++i) (*groups)[group_of(i)].push_back(static_cast<uint32_t>(i));
  return Status::OK();
}

Status ProjectionStorage::InsertWos(RowBlock rows, Transaction* txn) {
  rows.DecodeAll();
  auto chunk = std::make_shared<WosChunk>();
  chunk->txn_id = txn->id();
  chunk->rows = std::move(rows);
  {
    std::lock_guard lock(mu_);
    // Checked under mu_ so the insert is atomic with CrashVolatileState's
    // WOS wipe: MarkNodeDown clears the host-up flag before crashing, so a
    // chunk admitted here is either wiped by the crash or the host was
    // still up. Without this, an insert racing the crash lands *after* the
    // wipe — a committed "zombie" chunk recovery knows nothing about, whose
    // rows are then re-copied from the buddy (duplicates).
    if (!HostUp()) return Status::ClusterUnavailable("host node is down");
    chunk->start_pos = wos_next_pos_;
    wos_next_pos_ += chunk->NumRows();
    wos_.push_back(chunk);
  }
  txn->MarkDml();
  // Stamp under the storage mutex: GetSnapshot and the tuple mover read
  // chunk epochs under mu_, so an unlocked write here is a data race with
  // any concurrent snapshot read.
  txn->OnCommit([this, chunk](Epoch e) {
    std::lock_guard lock(mu_);
    chunk->epoch = e;
  });
  txn->OnRollback([this, chunk]() {
    std::lock_guard lock(mu_);
    wos_.erase(std::remove(wos_.begin(), wos_.end(), chunk), wos_.end());
  });
  return Status::OK();
}

std::vector<uint32_t> ProjectionStorage::SortRows(RowBlock* rows) const {
  std::vector<uint32_t> perm = ComputeSortPermutation(*rows, cfg_.sort_columns);
  if (std::is_sorted(perm.begin(), perm.end())) return {};
  *rows = ApplyPermutation(*rows, perm);
  return perm;
}

Result<std::vector<StoredContainer>> ProjectionStorage::WriteSorted(
    const RowBlock& sorted, const std::vector<Epoch>& epochs,
    const std::vector<Epoch>& deletes, Epoch uniform_epoch) {
  std::map<std::pair<int64_t, uint32_t>, std::vector<uint32_t>> groups;
  STRATICA_RETURN_NOT_OK(SplitForStorage(sorted, &groups));
  std::vector<StoredContainer> written;
  auto write = [&]() -> Status {
    for (const auto& [key, rows] : groups) {
      auto [id, dir] = AllocateContainer();
      // A single group is every row in order: write `sorted` itself, else
      // gather the group's rows and epochs.
      const bool whole = groups.size() == 1;
      RowBlock gathered;
      std::vector<Epoch> group_epochs;
      if (!whole) {
        gathered = ApplyPermutation(sorted, rows);
        if (!epochs.empty()) {
          group_epochs.reserve(rows.size());
          for (uint32_t r : rows) group_epochs.push_back(epochs[r]);
        }
      }
      DeleteList group_deletes;
      if (!deletes.empty()) {
        for (size_t i = 0; i < rows.size(); ++i) {
          if (deletes[rows[i]] != 0) group_deletes.push_back({i, deletes[rows[i]]});
        }
      }
      RosWriter writer(fs_, dir, id, cfg_.projection, cfg_.column_names,
                       cfg_.column_types, cfg_.encodings);
      STRATICA_RETURN_NOT_OK(
          writer.Append(whole ? sorted : gathered, whole ? epochs : group_epochs));
      STRATICA_ASSIGN_OR_RETURN(RosContainerPtr ros,
                                writer.Finish(key.first, key.second, uniform_epoch));
      StoredContainer& out = written.emplace_back();
      out.container = std::const_pointer_cast<RosContainer>(ros);
      if (!group_deletes.empty())
        out.dvs.push_back(MakeDeleteChunk(id, std::move(group_deletes)));
    }
    return Status::OK();
  };
  Status st = write();
  if (!st.ok()) {
    for (const auto& w : written) DeleteContainerFiles(*w.container, {});
    return st;
  }
  return written;
}

Status ProjectionStorage::InsertDirectRos(RowBlock rows, Transaction* txn) {
  rows.DecodeAll();
  // Input already in sort order (say, time-ordered readings) is written as
  // is, sparing a full copy. Otherwise the unsorted rows and the permutation
  // are released once applied, before encoding.
  SortRows(&rows);
  STRATICA_ASSIGN_OR_RETURN(std::vector<StoredContainer> written,
                            WriteSorted(rows, {}, {}, kUncommittedEpoch));
  std::vector<std::shared_ptr<RosContainer>> created;
  for (auto& w : written) {
    w.container->creating_txn = txn->id();
    created.push_back(std::move(w.container));
  }
  bool host_down = false;
  {
    std::lock_guard lock(mu_);
    // Atomic with CrashVolatileState, same reasoning as InsertWos.
    if (!HostUp()) {
      host_down = true;
    } else {
      for (const auto& c : created) ros_.push_back(c);
    }
  }
  if (host_down) {
    // Registration raced a node crash. The files were written before the
    // check; drop them rather than leaving orphans for the scrub to chase.
    for (const auto& c : created) DeleteContainerFiles(*c, {});
    return Status::ClusterUnavailable("host node is down");
  }
  txn->MarkDml();
  txn->OnCommit([this, created](Epoch e) {
    {
      // The in-memory stamp runs under mu_: container min/max epochs gate
      // snapshot visibility, so they may only change under the same mutex
      // GetSnapshot reads them with.
      std::lock_guard lock(mu_);
      for (const auto& c : created) {
        c->min_epoch = e;
        c->max_epoch = e;
        c->creating_txn = 0;
      }
      // Direct loads leave nothing pending in the WOS, so if the WOS is
      // empty the projection's Last Good Epoch advances with the commit.
      if (wos_.empty()) lge_ = std::max(lge_, e);
    }
    // Meta-file rewrites stay off the mutex (concurrent scans would stall
    // behind the I/O): commits are serialized by the transaction manager,
    // and the stamped fields above are final. Transient write errors are
    // retried with backoff; a terminal failure is recorded rather than
    // swallowed — the in-memory commit is authoritative and the meta file
    // is restored by the startup scrub or buddy recovery.
    for (const auto& c : created) {
      std::string meta_path = c->dir + "/meta";
      RetryPolicy policy;
      policy.jitter_seed = HashBytes(meta_path.data(), meta_path.size());
      uint64_t retries = 0;
      Status st = RetryTransient(policy, &retries,
                                 [&] { return WriteRosMeta(fs_, *c, meta_path); });
      commit_meta_retries_.fetch_add(retries, std::memory_order_relaxed);
      if (!st.ok()) commit_meta_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  });
  txn->OnRollback([this, created]() {
    std::lock_guard lock(mu_);
    for (const auto& c : created) {
      ros_.erase(std::remove(ros_.begin(), ros_.end(), c), ros_.end());
      DeleteContainerFiles(*c, {});
    }
  });
  return Status::OK();
}

Status ProjectionStorage::AddDeletes(uint64_t target_id, std::vector<uint64_t> positions,
                                     Transaction* txn) {
  if (positions.empty()) return Status::OK();
  std::sort(positions.begin(), positions.end());
  auto chunk = std::make_shared<DeleteVectorChunk>();
  chunk->target_id = target_id;
  chunk->txn_id = txn->id();
  chunk->positions = std::move(positions);
  chunk->epochs.assign(chunk->positions.size(), kUncommittedEpoch);
  {
    std::lock_guard lock(mu_);
    // Atomic with CrashVolatileState, same reasoning as InsertWos.
    if (!HostUp()) return Status::ClusterUnavailable("host node is down");
    pending_deletes_.push_back(chunk);
  }
  txn->MarkDml();
  // The commit merges the chunk into its target's list before the epoch
  // becomes queryable, so no snapshot at that epoch can miss it.
  txn->OnCommit([this, chunk](Epoch e) {
    std::lock_guard lock(mu_);
    auto it = std::find(pending_deletes_.begin(), pending_deletes_.end(), chunk);
    if (it == pending_deletes_.end()) return;  // lost with a crash
    pending_deletes_.erase(it);
    std::fill(chunk->epochs.begin(), chunk->epochs.end(), e);
    AddCommittedDeletesLocked(chunk);
  });
  txn->OnRollback([this, chunk]() {
    std::lock_guard lock(mu_);
    pending_deletes_.erase(
        std::remove(pending_deletes_.begin(), pending_deletes_.end(), chunk),
        pending_deletes_.end());
  });
  return Status::OK();
}

StorageSnapshot ProjectionStorage::GetSnapshot(Epoch epoch, uint64_t txn_id) const {
  std::lock_guard lock(mu_);
  StorageSnapshot snap;
  snap.epoch = epoch;
  for (const auto& c : ros_) {
    bool committed_visible = c->min_epoch != kUncommittedEpoch && c->min_epoch <= epoch;
    bool own = txn_id != 0 && c->creating_txn == txn_id;
    if (committed_visible || own) snap.ros.push_back(c);
  }
  for (const auto& w : wos_) {
    bool committed_visible = w->epoch != kUncommittedEpoch && w->epoch <= epoch;
    bool own = txn_id != 0 && w->txn_id == txn_id && w->epoch == kUncommittedEpoch;
    if (committed_visible || own) snap.wos.push_back(w);
  }
  snap.deletes = delete_lists_;
  for (const auto& d : pending_deletes_) {
    if (txn_id != 0 && d->txn_id == txn_id) snap.own_deletes.push_back(d);
  }
  return snap;
}

bool ProjectionStorage::DeletesPending(uint64_t target_id) const {
  std::lock_guard lock(mu_);
  return std::any_of(pending_deletes_.begin(), pending_deletes_.end(),
                     [&](const DeleteVectorChunkPtr& d) { return d->target_id == target_id; });
}

std::vector<RosContainerPtr> ProjectionStorage::Containers() const {
  std::lock_guard lock(mu_);
  std::vector<RosContainerPtr> out;
  out.reserve(ros_.size());
  for (const auto& c : ros_) out.push_back(c);
  return out;
}

std::vector<DeleteVectorChunkPtr> ProjectionStorage::ContainerDeleteChunks(
    uint64_t container_id) const {
  std::lock_guard lock(mu_);
  std::vector<DeleteVectorChunkPtr> out;
  for (const auto& d : deletes_) {
    if (d->target_id == container_id) out.push_back(d);
  }
  return out;
}

bool ProjectionStorage::MarkDeletesPersisted(const DeleteVectorChunkPtr& d,
                                             const std::string& path, uint64_t gen) {
  {
    std::lock_guard lock(mu_);
    if (generation_.load(std::memory_order_relaxed) == gen) {
      d->persisted = true;
      d->dv_path = path;
      return true;
    }
  }
  (void)fs_->Delete(path);
  return false;
}

Status ProjectionStorage::ApplyMoveout(const MoveoutApply& apply) {
  std::lock_guard lock(mu_);
  if (apply.base_generation != generation_.load(std::memory_order_relaxed)) {
    // A crash/truncate/scrub ran after the moveout sampled its inputs: the
    // consumed WOS chunks may be gone and the new files may have been
    // scrubbed. Registering the result would resurrect crashed rows or
    // point the manifest at deleted files.
    return Status::TxnAborted("storage generation changed during moveout");
  }
  if (DeletesChangedLocked(apply.read_deletes, kWosTargetId)) {
    return Status::TxnAborted("a delete committed against the WOS during moveout");
  }
  // Ranges of WOS positions consumed by the moveout.
  std::vector<std::pair<uint64_t, uint64_t>> consumed;
  for (const auto& chunk : apply.consumed_chunks) {
    consumed.emplace_back(chunk->start_pos, chunk->start_pos + chunk->NumRows());
    wos_.erase(std::remove(wos_.begin(), wos_.end(), chunk), wos_.end());
  }
  auto in_consumed = [&](uint64_t pos) {
    for (const auto& [lo, hi] : consumed) {
      if (pos >= lo && pos < hi) return true;
    }
    return false;
  };
  // Drop the WOS deletes of moved rows: they arrive re-targeted at the new
  // containers in apply.new_dvs.
  if (auto wos = delete_lists_.find(kWosTargetId); wos != delete_lists_.end()) {
    auto kept = std::make_shared<DeleteList>();
    for (const DeleteEntry& e : *wos->second) {
      if (!in_consumed(e.position)) kept->push_back(e);
    }
    wos->second = std::move(kept);
  }
  for (const auto& c : apply.new_containers) {
    ros_.push_back(c.container);
    for (const auto& d : c.dvs) AddCommittedDeletesLocked(d);
  }
  lge_ = std::max(lge_, apply.new_lge);
  return Status::OK();
}

Status ProjectionStorage::ApplyMergeout(const MergeoutApply& apply) {
  std::vector<StoredContainer> gc;
  {
    std::lock_guard lock(mu_);
    if (apply.base_generation != generation_.load(std::memory_order_relaxed)) {
      return Status::TxnAborted("storage generation changed during mergeout");
    }
    for (uint64_t id : apply.removed_container_ids) {
      if (DeletesChangedLocked(apply.read_deletes, id)) {
        return Status::TxnAborted("a delete committed against an input during mergeout");
      }
    }
    for (uint64_t id : apply.removed_container_ids) {
      auto it = std::find_if(ros_.begin(), ros_.end(),
                             [id](const auto& c) { return c->id == id; });
      std::vector<DeleteVectorChunkPtr> dvs = DropDeletesLocked(id);
      if (it == ros_.end()) continue;
      retired_.push_back({*it, std::move(dvs)});
      ros_.erase(it);
    }
    if (apply.new_container) ros_.push_back(apply.new_container);
    for (const auto& d : apply.new_dvs) AddCommittedDeletesLocked(d);
    CollectRetiredLocked(&gc);
  }
  // Replaced files are deleted only once the last query snapshot holding
  // them drains (with no concurrent readers this deletes immediately, as
  // before), and the deletion itself runs off the mutex so scans never
  // stall behind it. Hard-linked backups keep the bytes alive (§5.2).
  for (const auto& r : gc) DeleteContainerFiles(*r.container, r.dvs);
  return Status::OK();
}

void ProjectionStorage::DeleteContainerFiles(
    const RosContainer& c, const std::vector<DeleteVectorChunkPtr>& dvs) const {
  for (const auto& col : c.columns) {
    (void)fs_->Delete(col.data_path);
    (void)fs_->Delete(col.index_path);
  }
  if (!c.epoch_data_path.empty()) {
    (void)fs_->Delete(c.epoch_data_path);
    (void)fs_->Delete(c.epoch_index_path);
  }
  (void)fs_->Delete(c.dir + "/meta");
  for (const auto& d : dvs) {
    if (d->persisted) (void)fs_->Delete(d->dv_path);
  }
}

void ProjectionStorage::CollectRetiredLocked(std::vector<StoredContainer>* out) {
  for (auto it = retired_.begin(); it != retired_.end();) {
    // use_count()==1 means `retired_` holds the last reference: no snapshot
    // can still be scanning the container, and none can re-acquire it since
    // it left ros_ under this same mutex.
    if (it->container.use_count() == 1) {
      out->push_back(std::move(*it));
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

void ProjectionStorage::GcRetired() {
  std::vector<StoredContainer> gc;
  {
    std::lock_guard lock(mu_);
    CollectRetiredLocked(&gc);
  }
  for (const auto& r : gc) DeleteContainerFiles(*r.container, r.dvs);
}

void ProjectionStorage::AdoptContainer(std::shared_ptr<RosContainer> container,
                                       std::vector<DeleteVectorChunkPtr> dvs) {
  std::lock_guard lock(mu_);
  if (container) ros_.push_back(std::move(container));
  for (const auto& d : dvs) AddCommittedDeletesLocked(d);
}

void ProjectionStorage::AddCommittedDeletesLocked(const DeleteVectorChunkPtr& d) {
  // WOS deletes are never persisted; the WOS list is their only record
  // until moveout re-targets them.
  if (d->target_id != kWosTargetId) deletes_.push_back(d);
  delete_lists_[d->target_id] = MergeDeletes(delete_lists_[d->target_id], *d);
}

std::vector<DeleteVectorChunkPtr> ProjectionStorage::DropDeletesLocked(uint64_t target_id) {
  auto mine = std::stable_partition(deletes_.begin(), deletes_.end(),
                                    [target_id](const DeleteVectorChunkPtr& d) {
                                      return d->target_id != target_id;
                                    });
  std::vector<DeleteVectorChunkPtr> dropped(mine, deletes_.end());
  deletes_.erase(mine, deletes_.end());
  delete_lists_.erase(target_id);
  return dropped;
}

bool ProjectionStorage::DeletesChangedLocked(const std::map<uint64_t, DeleteListPtr>& read,
                                             uint64_t target) const {
  auto was = read.find(target);
  auto now = delete_lists_.find(target);
  return (was == read.end() ? nullptr : was->second) !=
         (now == delete_lists_.end() ? nullptr : now->second);
}

void ProjectionStorage::RebuildDeleteListsLocked() {
  std::map<uint64_t, std::shared_ptr<DeleteList>> lists;
  for (const auto& d : deletes_) {
    auto& list = lists[d->target_id];
    if (!list) list = std::make_shared<DeleteList>();
    for (size_t i = 0; i < d->size(); ++i) list->push_back({d->positions[i], d->epochs[i]});
  }
  delete_lists_.clear();
  for (auto& [target, list] : lists) {
    std::sort(list->begin(), list->end());
    delete_lists_[target] = std::move(list);
  }
}

Epoch ProjectionStorage::TruncateForRecovery(Epoch lge) {
  std::vector<StoredContainer> dropped;
  std::vector<std::string> stale_dvs;  // DVROS files of trimmed chunks
  Epoch trunc = lge;
  {
    std::lock_guard lock(mu_);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    wos_.clear();  // WOS content is gone after a failure anyway
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = ros_.begin(); it != ros_.end();) {
        if ((*it)->max_epoch == kUncommittedEpoch || (*it)->max_epoch > trunc) {
          // Mergeout may have mixed pre-LGE rows into this container; back
          // the truncation point off so the copy-back has no gaps.
          if ((*it)->min_epoch != kUncommittedEpoch && (*it)->min_epoch <= trunc) {
            trunc = (*it)->min_epoch - 1;
            changed = true;
          }
          dropped.push_back({*it, DropDeletesLocked((*it)->id)});
          it = ros_.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Drop the surviving containers' delete entries newer than the
    // truncation point. A committed chunk is never changed in place (the
    // mover reads it off the mutex): a trimmed chunk gives way to a new,
    // unpersisted one holding the entries it keeps, or to none, and its
    // DVROS file goes. The next mover pass persists the new chunk.
    for (auto& d : deletes_) {
      DeleteList keep;
      for (size_t i = 0; i < d->size(); ++i) {
        if (d->epochs[i] <= trunc) keep.push_back({d->positions[i], d->epochs[i]});
      }
      if (keep.size() == d->size()) continue;
      if (d->persisted) stale_dvs.push_back(d->dv_path);
      d = keep.empty() ? nullptr : MakeDeleteChunk(d->target_id, std::move(keep));
    }
    deletes_.erase(std::remove(deletes_.begin(), deletes_.end(), nullptr), deletes_.end());
    RebuildDeleteListsLocked();
    lge_ = std::min(lge_, trunc);
  }
  for (const auto& d : dropped) DeleteContainerFiles(*d.container, d.dvs);
  for (const auto& path : stale_dvs) (void)fs_->Delete(path);
  return trunc;
}

Status ProjectionStorage::IngestRecovered(RowBlock rows, std::vector<Epoch> row_epochs,
                                          std::vector<Epoch> delete_epochs,
                                          Epoch new_lge) {
  rows.DecodeAll();
  const size_t n = rows.NumRows();
  if (row_epochs.size() != n || delete_epochs.size() != n)
    return Status::Internal("IngestRecovered: vector size mismatch");
  if (n > 0) {
    // Sorted as a direct load is; the epochs follow their rows.
    std::vector<uint32_t> perm = SortRows(&rows);
    if (!perm.empty()) {
      for (std::vector<Epoch>* v : {&row_epochs, &delete_epochs}) {
        std::vector<Epoch> sorted(n);
        for (size_t i = 0; i < n; ++i) sorted[i] = (*v)[perm[i]];
        *v = std::move(sorted);
      }
    }
    STRATICA_ASSIGN_OR_RETURN(std::vector<StoredContainer> written,
                              WriteSorted(rows, row_epochs, delete_epochs, 0));
    for (auto& w : written) AdoptContainer(std::move(w.container), std::move(w.dvs));
  }
  std::lock_guard lock(mu_);
  lge_ = std::max(lge_, new_lge);
  return Status::OK();
}

Result<uint64_t> ProjectionStorage::DropPartition(int64_t partition_key) {
  std::vector<StoredContainer> dropped;
  {
    std::lock_guard lock(mu_);
    for (auto it = ros_.begin(); it != ros_.end();) {
      if ((*it)->partition_key == partition_key) {
        dropped.push_back({*it, DropDeletesLocked((*it)->id)});
        it = ros_.erase(it);
      } else {
        ++it;
      }
    }
  }
  uint64_t rows = 0;
  for (const auto& d : dropped) {
    rows += d.container->row_count;
    DeleteContainerFiles(*d.container, d.dvs);
  }
  return rows;
}

void ProjectionStorage::Clear(bool delete_files) {
  std::lock_guard lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  if (delete_files) {
    for (const auto& c : ros_) DeleteContainerFiles(*c, DropDeletesLocked(c->id));
    for (const auto& r : retired_) DeleteContainerFiles(*r.container, r.dvs);
  }
  wos_.clear();
  ros_.clear();
  retired_.clear();
  deletes_.clear();
  pending_deletes_.clear();
  delete_lists_.clear();
  wos_next_pos_ = 0;
  lge_ = 0;
}

void ProjectionStorage::CrashVolatileState() {
  std::lock_guard lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  wos_.clear();
  // Uncommitted containers and all in-memory (non-persisted) delete chunks
  // are lost with the node.
  ros_.erase(std::remove_if(ros_.begin(), ros_.end(),
                            [](const std::shared_ptr<RosContainer>& c) {
                              return c->min_epoch == kUncommittedEpoch;
                            }),
             ros_.end());
  // Moveout and direct loads advance the LGE past deletes not yet persisted,
  // so back it off to just before the oldest one lost: the copy stays whole
  // up to its LGE, and recovery replays every delete after it.
  for (const auto& d : deletes_) {
    if (d->persisted) continue;
    for (Epoch e : d->epochs) lge_ = std::min(lge_, e - 1);
  }
  deletes_.erase(std::remove_if(deletes_.begin(), deletes_.end(),
                                [](const DeleteVectorChunkPtr& d) {
                                  return !d->persisted;
                                }),
                 deletes_.end());
  pending_deletes_.clear();
  RebuildDeleteListsLocked();
}

void ProjectionStorage::Quarantine(uint64_t container_id, const std::string& reason) {
  std::lock_guard lock(mu_);
  if (quarantined_.load(std::memory_order_relaxed)) return;
  quarantined_container_ = container_id;
  quarantine_reason_ = reason;
  quarantined_.store(true, std::memory_order_release);
}

std::string ProjectionStorage::quarantine_reason() const {
  std::lock_guard lock(mu_);
  return quarantine_reason_;
}

void ProjectionStorage::ClearQuarantine() {
  std::lock_guard lock(mu_);
  quarantined_container_ = 0;
  quarantine_reason_.clear();
  repair_gutted_.store(false, std::memory_order_release);
  gutted_at_.store(0, std::memory_order_release);
  quarantined_.store(false, std::memory_order_release);
}

Result<uint64_t> ProjectionStorage::ScrubFiles() {
  std::set<std::string> referenced;
  std::vector<std::shared_ptr<RosContainer>> live;
  {
    std::lock_guard lock(mu_);
    // The scrub may delete files a concurrent tuple-mover operation is in
    // the middle of writing (they look like orphans until the apply step
    // registers them); bumping the generation first guarantees that apply
    // is rejected instead of publishing a container with scrubbed files.
    generation_.fetch_add(1, std::memory_order_acq_rel);
    auto add = [&](const RosContainer& c) {
      for (const auto& col : c.columns) {
        referenced.insert(col.data_path);
        referenced.insert(col.index_path);
      }
      if (!c.epoch_data_path.empty()) {
        referenced.insert(c.epoch_data_path);
        referenced.insert(c.epoch_index_path);
      }
      referenced.insert(c.dir + "/meta");
    };
    for (const auto& c : ros_) {
      add(*c);
      live.push_back(c);
    }
    auto add_dvs = [&](const std::vector<DeleteVectorChunkPtr>& dvs) {
      for (const auto& d : dvs) {
        if (d->persisted && !d->dv_path.empty()) referenced.insert(d->dv_path);
      }
    };
    for (const auto& r : retired_) {
      add(*r.container);
      add_dvs(r.dvs);
    }
    add_dvs(deletes_);
  }
  // Heal referenced meta files that are missing or fail their checksum:
  // after replay the in-memory manifest is the source of truth, so a torn
  // meta is rewritten rather than trusted.
  for (const auto& c : live) {
    std::string meta_path = c->dir + "/meta";
    if (ReadRosMeta(fs_, meta_path).ok()) continue;
    STRATICA_RETURN_NOT_OK(WriteRosMeta(fs_, *c, meta_path));
  }
  // Everything else under the projection directory is an orphan — residue
  // of a transaction that died before commit, or a torn write that never
  // got its rename. Replay tolerates them by deletion, not by failure.
  STRATICA_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            fs_->List(base_dir_ + "/"));
  uint64_t removed = 0;
  for (const auto& f : files) {
    if (referenced.count(f)) continue;
    if (fs_->Delete(f).ok()) ++removed;
  }
  return removed;
}

Status ProjectionStorage::Revalidate() const {
  std::vector<std::shared_ptr<RosContainer>> live;
  std::vector<std::string> dv_paths;
  {
    std::lock_guard lock(mu_);
    live = ros_;
    for (const auto& d : deletes_) {
      if (d->persisted && !d->dv_path.empty()) dv_paths.push_back(d->dv_path);
    }
  }
  // Off-mutex: full checksummed read of every file the manifest references.
  // ColumnReader verifies the index footer at Open and per-block CRCs in
  // ReadAll; meta and DVROS files carry whole-file footers.
  for (const auto& c : live) {
    STRATICA_RETURN_NOT_OK(ReadRosMeta(fs_, c->dir + "/meta").status());
    for (size_t col = 0; col < c->columns.size(); ++col) {
      STRATICA_ASSIGN_OR_RETURN(ColumnReader reader, OpenRosColumn(fs_, *c, col));
      ColumnVector scratch;
      STRATICA_RETURN_NOT_OK(reader.ReadAll(&scratch));
    }
    if (!c->epoch_data_path.empty()) {
      STRATICA_ASSIGN_OR_RETURN(
          ColumnReader reader,
          ColumnReader::Open(fs_, c->epoch_data_path, c->epoch_index_path));
      ColumnVector scratch;
      STRATICA_RETURN_NOT_OK(reader.ReadAll(&scratch));
    }
  }
  for (const auto& path : dv_paths) {
    STRATICA_RETURN_NOT_OK(ReadFileChecksummed(fs_, path).status());
  }
  return Status::OK();
}

uint64_t ProjectionStorage::WosRowCount() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& w : wos_) n += w->NumRows();
  return n;
}

bool ProjectionStorage::WosSaturated() const {
  return WosRowCount() >= cfg_.wos_capacity_rows;
}

Epoch ProjectionStorage::lge() const {
  std::lock_guard lock(mu_);
  return lge_;
}

size_t ProjectionStorage::NumContainers() const {
  std::lock_guard lock(mu_);
  return ros_.size();
}

uint64_t ProjectionStorage::TotalRosBytes() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& c : ros_) n += c->total_bytes;
  return n;
}

uint64_t ProjectionStorage::TotalRosRows() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& c : ros_) n += c->row_count;
  return n;
}

}  // namespace stratica
