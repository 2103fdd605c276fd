// Per-(node, projection) storage runtime: the WOS, the set of ROS
// containers, and the delete vectors (Sections 3.5-3.7).
//
// Concurrency model follows the paper's never-modify-in-place policy:
// ROS containers and committed WOS chunks are immutable; all mutations are
// list swaps under a mutex, and scans operate on snapshots.
#ifndef STRATICA_STORAGE_PROJECTION_STORAGE_H_
#define STRATICA_STORAGE_PROJECTION_STORAGE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/row_block.h"
#include "common/status.h"
#include "expr/expr.h"
#include "storage/delete_vector.h"
#include "storage/ros.h"
#include "txn/transaction.h"

namespace stratica {

/// \brief One uncommitted-or-committed batch of WOS rows.
///
/// The WOS is in memory and unencoded (Section 3.7); rows are segmented for
/// this node but unsorted. `start_pos` gives the chunk's rows global WOS
/// positions for delete-vector targeting.
struct WosChunk {
  uint64_t start_pos = 0;
  Epoch epoch = kUncommittedEpoch;
  uint64_t txn_id = 0;
  RowBlock rows;  // flat, projection column order

  size_t NumRows() const { return rows.NumRows(); }
};

using WosChunkPtr = std::shared_ptr<WosChunk>;

/// Static configuration for a projection's storage on one node.
struct ProjectionStorageConfig {
  std::string projection;
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
  std::vector<EncodingId> encodings;
  std::vector<uint32_t> sort_columns;

  /// Bound against the projection schema; null = unpartitioned. (Partition
  /// expressions referencing columns a narrow projection lacks leave that
  /// projection unpartitioned; bulk drop then falls back to delete vectors.)
  ExprPtr partition_expr;
  /// Bound against the projection schema; null = replicated projection.
  ExprPtr segmentation_expr;

  /// Local segments (Section 3.6): tuples are kept physically segregated
  /// within the node to make rebalance a wholesale file transfer.
  uint32_t num_local_segments = 3;
  /// This node's slice of the segmentation ring, set by the cluster layer.
  uint64_t range_lo = 0;
  uint64_t range_hi = UINT64_MAX;

  /// WOS capacity in rows; beyond this the WOS is "saturated" and loads
  /// spill directly to new ROS containers (Section 4).
  uint64_t wos_capacity_rows = 1 << 20;
};

/// Consistent view of a projection's storage for one scan.
struct StorageSnapshot {
  Epoch epoch = 0;
  std::vector<RosContainerPtr> ros;
  std::vector<std::shared_ptr<const WosChunk>> wos;
  /// Each target's committed delete list, shared with the storage (the
  /// snapshot copies pointers, never positions); entries newer than `epoch`
  /// are skipped at read time.
  std::map<uint64_t, DeleteListPtr> deletes;
  /// The reading transaction's own uncommitted delete chunks.
  std::vector<DeleteVectorChunkPtr> own_deletes;
  uint64_t TotalRows() const;

  /// Call fn(position, delete_epoch) for every delete of `target` in
  /// positions [lo, hi) visible at this snapshot: committed deletes at or
  /// before `epoch` (a lower_bound into the sorted list, so a reader pays
  /// only for the deletes in the range it reads), then the transaction's
  /// own, which carry kUncommittedEpoch.
  template <typename Fn>
  void ForEachDelete(uint64_t target, uint64_t lo, uint64_t hi, Fn&& fn) const {
    auto it = deletes.find(target);
    if (it != deletes.end()) {
      const DeleteList& list = *it->second;
      for (auto e = std::lower_bound(list.begin(), list.end(), DeleteEntry{lo, 0});
           e != list.end() && e->position < hi; ++e) {
        if (e->epoch <= epoch) fn(e->position, e->epoch);
      }
    }
    for (const auto& d : own_deletes) {
      if (d->target_id != target) continue;
      for (uint64_t p : d->positions) {
        if (p >= lo && p < hi) fn(p, kUncommittedEpoch);
      }
    }
  }
};

/// A ROS container with its committed delete chunks: what the container
/// writer produces, and what the container removal deletes the files of.
struct StoredContainer {
  std::shared_ptr<RosContainer> container;
  std::vector<DeleteVectorChunkPtr> dvs;
};

/// Result of one moveout, applied atomically.
struct MoveoutApply {
  std::vector<std::shared_ptr<const WosChunk>> consumed_chunks;
  /// With the moved rows' WOS deletes, re-targeted at them.
  std::vector<StoredContainer> new_containers;
  Epoch new_lge = 0;
  /// Storage generation sampled before the moveout read its inputs; the
  /// apply is rejected (TxnAborted) if recovery mutated the storage since.
  uint64_t base_generation = 0;
  /// The delete lists the moveout read. The apply is rejected (TxnAborted)
  /// if the WOS's changed meanwhile: the output would lose a delete.
  std::map<uint64_t, DeleteListPtr> read_deletes;
};

/// Result of one mergeout operation, applied atomically.
struct MergeoutApply {
  std::vector<uint64_t> removed_container_ids;
  std::shared_ptr<RosContainer> new_container;
  std::vector<DeleteVectorChunkPtr> new_dvs;
  uint64_t base_generation = 0;  ///< See MoveoutApply::base_generation.
  /// The delete lists the mergeout read; rejected if an input's changed.
  std::map<uint64_t, DeleteListPtr> read_deletes;
};

/// \brief Storage state and operations for one projection on one node.
class ProjectionStorage {
 public:
  ProjectionStorage(FileSystem* fs, std::string base_dir, ProjectionStorageConfig cfg);

  const ProjectionStorageConfig& config() const { return cfg_; }
  FileSystem* fs() const { return fs_; }
  const std::string& base_dir() const { return base_dir_; }

  // --- write path ----------------------------------------------------------

  /// Buffer rows in the WOS as an uncommitted chunk owned by `txn`
  /// (stamped/discarded via the transaction's callbacks).
  Status InsertWos(RowBlock rows, Transaction* txn);

  /// Bulk-load path that bypasses the WOS: sort, split by (partition, local
  /// segment) and write ROS containers directly (Section 7, "Direct
  /// Loading to the ROS").
  Status InsertDirectRos(RowBlock rows, Transaction* txn);

  /// Record deletions of `positions` on `target_id` (container id or
  /// kWosTargetId), attached to `txn`.
  Status AddDeletes(uint64_t target_id, std::vector<uint64_t> positions,
                    Transaction* txn);

  // --- read path -----------------------------------------------------------

  /// Snapshot for reads at `epoch`; `txn_id` additionally exposes that
  /// transaction's own uncommitted data (read-your-writes).
  StorageSnapshot GetSnapshot(Epoch epoch, uint64_t txn_id = 0) const;

  // --- tuple mover interface ------------------------------------------------

  /// True while an uncommitted delete chunk targets `target_id`.
  bool DeletesPending(uint64_t target_id) const;

  /// Every container, committed or not, and one container's committed
  /// delete chunks (the DVWOS/DVROS persistence units).
  std::vector<RosContainerPtr> Containers() const;
  std::vector<DeleteVectorChunkPtr> ContainerDeleteChunks(uint64_t container_id) const;
  /// DVWOS -> DVROS: mark the committed chunk `d` persisted in the DVROS
  /// file `path`, written after the tuple mover sampled generation `gen`.
  /// Under the storage mutex, so a crash, a scrub or a revalidation sees
  /// the chunk unpersisted, or persisted with its file. If the generation
  /// moved since (a crash, recovery or scrub), it marks nothing, removes
  /// the file and returns false.
  bool MarkDeletesPersisted(const DeleteVectorChunkPtr& d, const std::string& path,
                            uint64_t gen);

  Status ApplyMoveout(const MoveoutApply& apply);
  Status ApplyMergeout(const MergeoutApply& apply);

  /// The one container writer (direct load, moveout, recovery ingest).
  /// Splits `sorted` (rows in sort order) by (partition, local segment) and
  /// writes one container per group, in key order. `epochs`, one per row,
  /// are the rows' commit epochs and go into an epoch column; empty means
  /// every row gets `uniform_epoch` and there is no epoch file. A non-zero
  /// `deletes` entry (empty = none) deletes its row at that epoch, in a
  /// chunk targeting the row's container. All or nothing: on an error no
  /// written container's files remain. Registers nothing.
  Result<std::vector<StoredContainer>> WriteSorted(const RowBlock& sorted,
                                                   const std::vector<Epoch>& epochs,
                                                   const std::vector<Epoch>& deletes,
                                                   Epoch uniform_epoch);

  /// The one container removal: delete every file `c` owns (column, index,
  /// epoch and meta files) and the DVROS files of its delete chunks `dvs`.
  /// Failures are ignored: a crash or a scrub may have removed some already.
  void DeleteContainerFiles(const RosContainer& c,
                            const std::vector<DeleteVectorChunkPtr>& dvs) const;

  /// Register a container built externally (recovery, refresh, rebalance).
  void AdoptContainer(std::shared_ptr<RosContainer> container,
                      std::vector<DeleteVectorChunkPtr> dvs);

  /// Recovery truncation (Section 5.2: "the node truncates all tuples that
  /// were inserted after its LGE"). Drops every container holding any row
  /// newer than the LGE; if a merged container mixed older rows in, the
  /// truncation point backs off so no surviving epoch range has gaps.
  /// Returns the final truncation epoch (all remaining data is <= it).
  Epoch TruncateForRecovery(Epoch lge);

  /// Ingest rows copied from a buddy during recovery/refresh/rebalance:
  /// sorts them and writes them through WriteSorted as committed containers
  /// carrying the original per-row epochs, with delete vectors rebuilt from
  /// `delete_epochs` (0 = row is live). Advances the LGE to `new_lge`.
  Status IngestRecovered(RowBlock rows, std::vector<Epoch> row_epochs,
                         std::vector<Epoch> delete_epochs, Epoch new_lge);

  /// Drop every container whose partition key matches (fast bulk deletion,
  /// Section 3.5: "as simple as deleting files from a filesystem").
  /// Returns the number of rows dropped.
  Result<uint64_t> DropPartition(int64_t partition_key);

  /// Remove all state (node crash simulation / DROP PROJECTION). WOS and
  /// uncommitted data are lost; ROS files are deleted when `delete_files`.
  void Clear(bool delete_files);

  /// Wipe volatile state only (what a node loses on failure: WOS content,
  /// uncommitted artifacts, in-memory DVWOS entries), and lower the LGE to
  /// just before the oldest DVWOS entry lost, so the copy stays whole up
  /// to its LGE.
  void CrashVolatileState();

  /// Delete the files of retired (mergeout-replaced) containers no query
  /// snapshot references anymore. The tuple-mover pass calls this every
  /// tick so retention stays bounded even when no new merges happen.
  void GcRetired();

  // --- fault handling (DESIGN.md §10) ---------------------------------------

  /// Mark this projection copy damaged after a persistent read failure on
  /// `container_id`. A quarantined copy is skipped by the planner (treated
  /// like a down node, buddies serve its ring slot) until re-recovery
  /// clears it. Idempotent; keeps the first reason.
  void Quarantine(uint64_t container_id, const std::string& reason);
  bool quarantined() const { return quarantined_.load(std::memory_order_acquire); }
  std::string quarantine_reason() const;
  void ClearQuarantine();

  /// Set by repair right before it guts the copy (Clear + rebuild). While
  /// set, the copy is incomplete by construction, so a checksum-clean
  /// Revalidate must NOT lift the quarantine — only a successful rebuild
  /// (which calls ClearQuarantine) may. `horizon` is the queryable epoch at
  /// gut time: commits keep landing in the copy afterwards, so it remains a
  /// valid recovery *source* for epoch ranges starting at or after it.
  void MarkRepairGutted(Epoch horizon) {
    gutted_at_.store(horizon, std::memory_order_release);
    repair_gutted_.store(true, std::memory_order_release);
  }
  bool repair_gutted() const { return repair_gutted_.load(std::memory_order_acquire); }
  Epoch gutted_at() const { return gutted_at_.load(std::memory_order_acquire); }

  /// Startup / recovery scrub: reconcile on-disk files against the
  /// in-memory manifest. Orphaned files (from a crashed transaction or a
  /// torn write) are deleted instead of failing replay; a referenced meta
  /// file that is missing or fails its checksum is rewritten from the
  /// manifest. Returns the number of orphans removed.
  Result<uint64_t> ScrubFiles();

  /// End-to-end integrity pass: read every live container column (index
  /// footer + per-block CRCs) and persisted delete vector. OK means the
  /// on-disk copy is provably intact — a quarantine caused by injected or
  /// environmental read errors can be lifted without a buddy rebuild;
  /// a Corruption/IoError result means the copy really needs one.
  Status Revalidate() const;

  /// Commit-path telemetry: transient meta-write retries and terminal
  /// failures (the in-memory commit is authoritative; a lost meta file is
  /// restored by scrub or buddy recovery).
  uint64_t commit_meta_retries() const { return commit_meta_retries_.load(); }
  uint64_t commit_meta_failures() const { return commit_meta_failures_.load(); }

  /// Liveness flag of the node hosting this copy (null = standalone, always
  /// up). Scans re-check it *after* snapshotting: MarkNodeDown clears the
  /// flag before crashing volatile state, so a snapshot taken while the
  /// flag still reads true is guaranteed pre-crash and complete.
  void SetHostUpFlag(const std::atomic<bool>* up) { host_up_ = up; }
  bool HostUp() const {
    return host_up_ == nullptr || host_up_->load(std::memory_order_acquire);
  }

  /// Bumped by every destructive recovery mutation (crash, truncate, clear,
  /// scrub). A tuple-mover operation samples it before reading its inputs;
  /// ApplyMoveout/ApplyMergeout reject the result if it changed, because
  /// the inputs may be gone and the freshly written output files may
  /// already have been scrubbed as orphans.
  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  // --- stats ----------------------------------------------------------------
  uint64_t WosRowCount() const;
  bool WosSaturated() const;
  Epoch lge() const;
  size_t NumContainers() const;
  uint64_t TotalRosBytes() const;
  uint64_t TotalRosRows() const;

  /// Allocate a container id + directory (also used by the tuple mover).
  std::pair<uint64_t, std::string> AllocateContainer();

  /// Local segment of a segmentation-hash value within this node's range.
  uint32_t LocalSegmentOf(uint64_t hash) const;

 private:
  /// Split rows into (partition_key, local_segment) groups.
  Status SplitForStorage(
      const RowBlock& rows,
      std::map<std::pair<int64_t, uint32_t>, std::vector<uint32_t>>* groups) const;
  /// Put `rows` in sort order. Returns the permutation applied, or nothing
  /// when the rows already were in order (they are then left as they are).
  std::vector<uint32_t> SortRows(RowBlock* rows) const;
  /// Move unreferenced retired containers into `out` (mergeout replaces
  /// containers while scans may still be reading the old ones; deleting
  /// eagerly would fail those scans). File deletion happens off-mutex.
  void CollectRetiredLocked(std::vector<StoredContainer>* out);
  /// Rebuild every target's delete list from the committed chunks in
  /// `deletes_` (after a crash or truncation dropped some of them).
  void RebuildDeleteListsLocked();
  /// Record committed chunk `d`: merge it into its target's list, and keep
  /// it for persistence unless it targets the WOS.
  void AddCommittedDeletesLocked(const DeleteVectorChunkPtr& d);
  /// Forget every delete of `target_id` (its container is gone); returns
  /// the chunks dropped, whose DVROS files go with the container.
  std::vector<DeleteVectorChunkPtr> DropDeletesLocked(uint64_t target_id);
  /// True if `target`'s list differs from the one `read` holds (none = null).
  bool DeletesChangedLocked(const std::map<uint64_t, DeleteListPtr>& read,
                            uint64_t target) const;

  FileSystem* fs_;
  std::string base_dir_;
  ProjectionStorageConfig cfg_;

  mutable std::mutex mu_;
  std::vector<WosChunkPtr> wos_;
  std::vector<std::shared_ptr<RosContainer>> ros_;
  /// Replaced by mergeout but possibly still referenced by live snapshots;
  /// each keeps its delete chunks, whose DVROS files go with it.
  std::vector<StoredContainer> retired_;
  /// Committed container delete chunks: the DVWOS/DVROS persistence units.
  std::vector<DeleteVectorChunkPtr> deletes_;
  /// Uncommitted delete chunks, visible only to their own transaction.
  std::vector<DeleteVectorChunkPtr> pending_deletes_;
  /// What readers use: one position-sorted list per target, swapped on
  /// every change and never mutated, so snapshots share it.
  std::map<uint64_t, DeleteListPtr> delete_lists_;
  uint64_t wos_next_pos_ = 0;
  Epoch lge_ = 0;
  std::atomic<uint64_t> next_container_id_{1};

  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> quarantined_{false};
  std::atomic<bool> repair_gutted_{false};
  std::atomic<Epoch> gutted_at_{0};
  std::string quarantine_reason_;        // under mu_
  uint64_t quarantined_container_ = 0;   // under mu_
  std::atomic<uint64_t> commit_meta_retries_{0};
  std::atomic<uint64_t> commit_meta_failures_{0};
  const std::atomic<bool>* host_up_ = nullptr;  // owned by the hosting Node
};

}  // namespace stratica

#endif  // STRATICA_STORAGE_PROJECTION_STORAGE_H_
