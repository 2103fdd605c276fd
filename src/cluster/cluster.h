// Simulated shared-nothing cluster (Sections 3.6, 5, 5.2, 5.3).
//
// Stratica models a Vertica cluster as N Node objects inside one process
// (DESIGN.md §4): identical segmentation / buddy / recovery / quorum logic,
// with in-process queues standing in for the interconnect. Nodes share the
// epoch sequence — the paper's distributed agreement protocol guarantees
// exactly this ("All nodes agree on the epoch in which each transaction
// commits"), so sharing the EpochManager models the protocol's outcome.
//
// Commit follows the paper's no-2PC rule: a commit succeeds if a quorum of
// nodes applies it; a node that fails mid-commit is ejected and later
// rejoins via recovery. The cluster also performs a safety shutdown when
// fewer than N/2+1 nodes remain (split-brain avoidance) or when a failure
// makes some segment's data unavailable despite K-safety.
#ifndef STRATICA_CLUSTER_CLUSTER_H_
#define STRATICA_CLUSTER_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/segmentation.h"
#include "common/fs.h"
#include "storage/projection_storage.h"
#include "tuplemover/tuple_mover.h"
#include "txn/transaction.h"

namespace stratica {

struct ClusterConfig {
  uint32_t num_nodes = 1;
  uint32_t k_safety = 0;  ///< Buddy copies per projection (Section 5.2).
  uint32_t local_segments_per_node = 3;
  /// Rows a projection copy's WOS holds before loads into it go direct to
  /// ROS (ProjectionStorage::WosSaturated).
  uint64_t wos_capacity_rows = 1 << 20;
  TupleMoverConfig tuple_mover;
  /// Loads at least this large bypass the WOS ("Direct Loading to the
  /// ROS", Section 7); UINT64_MAX turns automatic direct loading off.
  uint64_t direct_ros_row_threshold = 100000;
};

/// \brief One simulated node: its projection storage and tuple mover.
class Node {
 public:
  Node(int id, FileSystem* fs, EpochManager* epochs, TupleMoverConfig tm_cfg)
      : id_(id), fs_(fs), mover_(epochs, tm_cfg) {}

  int id() const { return id_; }
  bool up() const { return up_.load(std::memory_order_acquire); }
  void set_up(bool up) { up_.store(up, std::memory_order_release); }

  /// Inject a commit failure: the next commit this node participates in
  /// "fails", causing its ejection from the cluster (Section 5).
  void FailNextCommit() { fail_next_commit_ = true; }
  bool ConsumeCommitFailure() { return fail_next_commit_.exchange(false); }

  ProjectionStorage* GetStorage(const std::string& projection);
  ProjectionStorage* AddStorage(const std::string& projection,
                                ProjectionStorageConfig cfg);
  void DropStorage(const std::string& projection);
  /// Swap in a pre-built storage (rebalance): the old storage is returned
  /// alive, not destroyed, so scans planned against it keep valid pointers.
  std::unique_ptr<ProjectionStorage> ReplaceStorage(
      const std::string& projection, std::unique_ptr<ProjectionStorage> ps);
  /// Remove and return a storage without destroying it (node removal).
  std::unique_ptr<ProjectionStorage> TakeStorage(const std::string& projection);
  std::vector<std::string> StorageNames() const;

  TupleMover* mover() { return &mover_; }
  std::string BaseDir() const { return "node" + std::to_string(id_); }

 private:
  int id_;
  FileSystem* fs_;
  std::atomic<bool> up_{true};
  std::atomic<bool> fail_next_commit_{false};
  TupleMover mover_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ProjectionStorage>> storage_;
};

/// Per-row rejection from the bulk loader (Section 7: handling records that
/// do not conform "turned out to be important and complex to implement").
struct RejectedRecord {
  uint64_t row_index;
  std::string reason;
};

struct LoadResult {
  uint64_t rows_loaded = 0;
  std::vector<RejectedRecord> rejected;
};

/// \brief The cluster facade: DDL storage fan-out, segmented loads, quorum
/// commit, failure/recovery, refresh, rebalance and backup.
class Cluster {
 public:
  Cluster(ClusterConfig cfg, FileSystem* fs, Catalog* catalog);

  // --- topology --------------------------------------------------------------
  /// Active node count. Nodes beyond it exist in nodes_ (removed or being
  /// added by a rebalance) but hold no current data and serve no queries.
  uint32_t num_nodes() const { return active_nodes_.load(std::memory_order_acquire); }
  Node* node(uint32_t i) { return nodes_[i].get(); }
  /// Snapshot of the segmentation ring (by value: the ring is replaced
  /// atomically by an elastic rebalance, so callers hold a copy).
  SegmentationRing ring() const { return SegmentationRing(num_nodes()); }
  EpochManager* epochs() { return &epochs_; }
  LockManager* locks() { return &locks_; }
  TransactionManager* txns() { return &txns_; }
  FileSystem* fs() { return fs_; }
  Catalog* catalog() { return catalog_; }

  /// Shared guard for topology capture: a planner selecting scan units holds
  /// this while it reads (num_nodes, per-node storages) so an elastic
  /// rebalance cannot swap the topology out from under a half-built plan.
  /// The rebalance swap takes the exclusive side for microseconds.
  std::shared_lock<std::shared_mutex> LockTopologyShared() const {
    return std::shared_lock<std::shared_mutex>(topology_mu_);
  }

  size_t NumUpNodes() const;
  bool HasQuorum() const { return NumUpNodes() * 2 > num_nodes(); }

  /// True if every ring slot of every projection of `table` is served by at
  /// least one up node (considering buddies). False means the K-safety
  /// budget is exhausted and the database must shut down for this data.
  bool IsDataAvailable(const std::string& table) const;

  // --- DDL -------------------------------------------------------------------

  /// Register the projection in the catalog, create its K buddies, and
  /// instantiate storage for all copies on every node.
  Status CreateProjectionWithBuddies(ProjectionDef def);

  /// CREATE TABLE + default super projection (+ buddies).
  Status CreateTableWithSuperProjection(TableDef table);

  Status DropTable(const std::string& table);

  /// Drop a projection and its K buddies from the catalog and every node's
  /// storage (used to undo a CREATE PROJECTION whose refresh failed: an
  /// unpopulated projection would answer queries with missing rows).
  Status DropProjectionWithBuddies(const std::string& projection);

  // --- load path ---------------------------------------------------------------

  /// Route `rows` of `table` to every projection copy on every up node.
  /// `direct_ros` forces the WOS bypass; by default large loads, and loads
  /// into a copy whose WOS is saturated, bypass automatically per config.
  /// Non-conforming rows (NULL in a non-nullable
  /// column, missing prejoin dimension match) are rejected, not loaded.
  Result<LoadResult> Load(const std::string& table, const RowBlock& rows,
                          Transaction* txn, bool direct_ros = false);

  /// Quorum commit (Section 5): every up node either applies the commit or
  /// is ejected; the commit succeeds if a quorum remains.
  Result<Epoch> Commit(const TransactionPtr& txn);

  // --- failure & recovery -----------------------------------------------------

  /// Node failure: volatile state (WOS, uncommitted data) is lost.
  Status MarkNodeDown(uint32_t node_id);

  /// Rejoin protocol (Section 5.2): truncate to LGE, historical phase
  /// (lock-free copy from buddies), current phase (under S locks), then the
  /// node is marked up.
  Status RecoverNode(uint32_t node_id);

  /// AHM policy: advance to the minimum LGE across up nodes; held back
  /// automatically while any node is down (Section 5.1).
  Status AdvanceAhm();

  /// Re-recover every projection copy quarantined by a scan after a
  /// persistent read failure (DESIGN.md §10): rebuild it from a buddy, then
  /// clear the flag. Copies whose repair fails stay quarantined and are
  /// retried on the next call (the tuple-mover tick drives this). Returns
  /// the number of copies repaired.
  Result<uint64_t> RepairQuarantined();

  // --- online operations -------------------------------------------------------

  /// Populate a projection created after its table was loaded, reading from
  /// a super projection (Section 5.2 "refresh").
  Status RefreshProjection(const std::string& projection);

  /// Add a node and rebalance online (Section 3.6): phase 1 builds
  /// new-generation storages at a sampled epoch while queries and DML
  /// continue; phase 2 briefly fences DML (S locks, timeout-bounded),
  /// replays the delta and swaps the topology atomically. Requires all
  /// nodes up.
  Status AddNodeAndRebalance();

  /// Shrink the cluster by one node with the same two-phase protocol; the
  /// leaving node's rows re-segment onto the survivors.
  Status RemoveLastNodeAndRebalance();

  /// Hard-link backup of every data file plus a catalog snapshot
  /// (Section 5.2). Returns the number of files captured.
  Result<uint64_t> Backup(const std::string& label);

  // --- background services -----------------------------------------------------

  /// One tuple-mover pass over every (node, projection): moveout, then
  /// mergeout to quiescence, then DVWOS->DVROS moves.
  Status RunTupleMover();

  /// Storage census used by benches/examples (Figure 2 reproduction).
  struct StorageCensus {
    size_t containers = 0;
    size_t files = 0;
    uint64_t bytes = 0;
    uint64_t raw_bytes = 0;
    uint64_t rows = 0;
  };
  StorageCensus Census(const std::string& projection) const;

  /// Bytes "shipped" between nodes by loads and exchanges (the simulated
  /// interconnect's traffic counter).
  uint64_t network_bytes() const { return network_bytes_.load(); }
  void AddNetworkBytes(uint64_t n) { network_bytes_.fetch_add(n); }

 private:
  Status SetupProjectionStorage(const ProjectionDef& def);
  Result<ProjectionStorageConfig> MakeStorageConfig(const ProjectionDef& def,
                                                    uint32_t node_id) const;
  Result<ProjectionStorageConfig> MakeStorageConfig(const ProjectionDef& def,
                                                    uint32_t node_id,
                                                    const SegmentationRing& ring) const;
  /// Two-phase online rebalance core shared by add and remove.
  Status RebalanceToNodeCount(uint32_t new_count);
  Status RouteAndInsert(const ProjectionDef& proj, RowBlock rows, Transaction* txn,
                        bool direct_ros);
  /// Build prejoined rows for a prejoin projection (Section 3.3): N:1 join
  /// of `rows` (in anchor-table column order) with dimension rows live at
  /// `snapshot`; unmatched rows are rejected, in row order.
  Result<RowBlock> BuildPrejoinRows(const ProjectionDef& proj, const RowBlock& rows,
                                    std::vector<RejectedRecord>* rejected,
                                    Epoch snapshot);
  /// Copy epochs (lge, up_to] — or (0, up_to] when `full_rebuild`, which
  /// also guts the target copy, but only *after* the source read succeeded
  /// (a failed read must not destroy the last intact data of the copy).
  Status RecoverProjectionOnNode(const ProjectionDef& def, uint32_t node_id,
                                 Epoch up_to, bool take_lock, uint64_t txn_id,
                                 bool full_rebuild = false);
  /// RefreshProjection body; runs with the anchor table's S lock held so
  /// every error path still releases it in the caller.
  Status RefreshProjectionLocked(const ProjectionDef& def, const TableDef& table,
                                 const ProjectionDef& src, Epoch now);

  // --- copy path (Section 5.2): recovery, repair, refresh, rebalance and the
  // prejoin dimension read all run slot source -> gather -> route -> replay.

  /// Rows gathered from live copies: each with its commit epoch, its delete
  /// epoch (0 = live at the read epoch) and the node it was read from.
  struct CopyRows {
    RowBlock rows;
    std::vector<Epoch> epochs;
    std::vector<Epoch> deletes;
    std::vector<uint32_t> hosts;

    /// Rows `idx`, in that order, with their epochs and hosts.
    CopyRows Select(const std::vector<uint32_t>& idx) const;
  };
  /// Slot source: the up copy in `def`'s buddy family that serves ring slot
  /// `slot` (any slot of a replicated projection) for history after
  /// `needed_from`, never on a node in `exclude`. `def`'s own copy is
  /// preferred, then its buddies. Quarantined copies still holding
  /// their data qualify (reads are checksum-verified); a copy a failed
  /// repair gutted qualifies only when gutted at or before `needed_from`,
  /// since it is complete after the gut point only. Null when K-safety is
  /// exhausted for the slot; `*host` receives the serving node.
  ProjectionStorage* SlotSource(const ProjectionDef& def, uint32_t slot,
                                Epoch needed_from, const std::vector<uint32_t>& exclude,
                                uint32_t* host);
  /// Gather: read ring slot `slot` of `src` (every slot when unset) at
  /// `at`, each through SlotSource, into one block in the order of
  /// `columns` (matched to `src`'s by table column, else by name), never
  /// from a node in `exclude`. Each slot is a history scan of one copy; a
  /// copy whose read fails has its node excluded for the slot, and the slot
  /// is retried on the next copy until none is left.
  Result<CopyRows> Gather(const ProjectionDef& src,
                          const std::vector<ProjectionColumnDef>& columns,
                          Epoch needed_from, Epoch at,
                          std::optional<uint32_t> slot = std::nullopt,
                          const std::vector<uint32_t>& exclude = {});
  /// Route: split `rows` of `proj` (projection column order, segmentation
  /// bound in `cfg`) into per-node row index lists under `ring`. Counts
  /// come first so each list is allocated once; a node that gets every row
  /// (every node of a replicated projection) gets no list.
  struct RingSplit {
    std::vector<size_t> counts;
    std::vector<std::vector<uint32_t>> rows;
  };
  static Result<RingSplit> Route(const ProjectionDef& proj,
                                 const ProjectionStorageConfig& cfg,
                                 const RowBlock& rows, const SegmentationRing& ring);
  /// Replay: route `src` (in `def`'s column order) by `ring`; ingest each
  /// target's rows committed in (from, to] with their epochs, re-target
  /// deletes in (from, to] of older rows by content, and charge 64 B of
  /// network traffic per row landing on a node other than its source host.
  /// A node whose `targets` entry is null is skipped.
  Status Replay(const ProjectionDef& def, const CopyRows& src,
                const SegmentationRing& ring,
                const std::vector<ProjectionStorage*>& targets, Epoch from, Epoch to);

  ClusterConfig cfg_;
  FileSystem* fs_;
  Catalog* catalog_;
  EpochManager epochs_;
  LockManager locks_;
  TransactionManager txns_;
  /// Node objects never move or die once created: nodes_ only grows (within
  /// the capacity reserved by the constructor, so push_back never
  /// reallocates under concurrent node(i) readers), and removal just drops
  /// the active count. Concurrent paths iterate [0, num_nodes()), never
  /// nodes_.size().
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<uint32_t> active_nodes_{0};
  /// Extra node slots reserved beyond the configured size for elastic adds.
  static constexpr uint32_t kMaxAddedNodes = 128;
  mutable std::shared_mutex topology_mu_;  ///< see LockTopologyShared
  uint32_t rebalance_gen_ = 0;             ///< generation suffix for staged dirs
  /// Storages swapped out by a rebalance. Kept alive (files intact) until
  /// cluster teardown: scans planned before the swap still hold pointers
  /// into them, and buddy-rebuild closures may reroute onto them.
  std::vector<std::unique_ptr<ProjectionStorage>> retired_storage_;
  std::atomic<uint64_t> network_bytes_{0};
  mutable std::mutex ddl_mu_;
  /// Serializes tuple-mover passes (manual RunTupleMover vs the Database's
  /// background service thread).
  std::mutex tuple_mover_mu_;
  /// Serializes whole-copy recovery paths (RecoverNode vs RepairQuarantined):
  /// both truncate/clear a copy and re-ingest from a buddy, and two of them
  /// interleaving on one storage double-applies the overlapping epoch range.
  std::mutex recovery_mu_;
};

/// Match rows by content, for deletes a copy cannot place by position (a
/// narrow projection in DML, a replayed delete in the copy path): pairs each
/// row of `wanted` with a distinct row of `rows` equal in every (column of
/// `rows`, column of `wanted`) pair of `cols`. Returns, per wanted row, the
/// matched row of `rows`, or -1.
std::vector<int64_t> MatchByContent(const RowBlock& rows, const RowBlock& wanted,
                                    const std::vector<std::pair<size_t, size_t>>& cols);

}  // namespace stratica

#endif  // STRATICA_CLUSTER_CLUSTER_H_
