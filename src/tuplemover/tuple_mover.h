// The Tuple Mover (Section 4): the automatic background system that
// rearranges physical data files.
//
//   Moveout  — asynchronously moves committed WOS data into sorted,
//              encoded ROS containers (advancing the Last Good Epoch).
//   Mergeout — merges small ROS containers into exponentially-sized strata,
//              purging history older than the Ancient History Mark. Output
//              always lands in at least one stratum above its inputs and
//              never exceeds the max container size, strongly bounding how
//              many times any tuple is rewritten. WOS and ROS data are
//              never intermixed in one operation: each mergeout reads each
//              tuple from disk once and writes it once.
//
// Both operations preserve partition and local-segment boundaries and are
// planned per node with no cross-cluster coordination (container layouts
// are private to every node).
//
// Each drains one serial sorted history scan (DESIGN.md §7) of a snapshot of
// its inputs; the scan merges them and supplies every row's commit and
// delete epoch, and a read fault quarantines the copy as a query's does.
#ifndef STRATICA_TUPLEMOVER_TUPLE_MOVER_H_
#define STRATICA_TUPLEMOVER_TUPLE_MOVER_H_

#include <cstdint>

#include "storage/projection_storage.h"
#include "txn/epoch.h"

namespace stratica {

struct TupleMoverConfig {
  /// Upper bound of stratum 0 in encoded bytes.
  uint64_t strata_base_bytes = 1 << 20;
  /// Exponential growth factor between strata.
  double strata_factor = 8.0;
  /// Trigger mergeout when a (partition, segment, stratum) group holds at
  /// least this many containers.
  size_t merge_fanin_min = 2;
  size_t merge_fanin_max = 16;
  /// Never produce a container larger than this (the paper uses 2TB).
  uint64_t max_ros_bytes = 2ull << 40;
};

struct TupleMoverStats {
  uint64_t moveouts = 0;
  uint64_t mergeouts = 0;
  uint64_t rows_moved_out = 0;
  uint64_t rows_merged = 0;        ///< Rows read+written by mergeout (rewrites).
  uint64_t rows_purged = 0;        ///< Deleted-before-AHM rows elided.
  uint64_t dv_chunks_persisted = 0;
  /// Moveout/mergeout results discarded because recovery (crash, truncate,
  /// clear, scrub) mutated the storage, its host went down, or a delete
  /// committed against an input while the operation ran.
  uint64_t stale_applies = 0;
};

/// \brief Per-node tuple mover. Thread-compatible: callers serialize
/// operations per ProjectionStorage (the background service does).
class TupleMover {
 public:
  explicit TupleMover(EpochManager* epochs, TupleMoverConfig cfg = {})
      : epochs_(epochs), cfg_(cfg) {}

  /// Move all committed WOS data (epoch <= latest queryable) to new ROS
  /// containers and advance the projection's LGE. The sorted scan's rows
  /// and both epoch columns go to the storage's one container writer
  /// (ProjectionStorage::WriteSorted): one container per (partition, local
  /// segment), each with a per-row epoch column, even for a single chunk,
  /// and the WOS deletes of moved rows re-targeted at it. Skipped (OK) when
  /// an in-flight delete transaction still targets the WOS.
  Status Moveout(ProjectionStorage* ps);

  /// One mergeout operation: pick the lowest-stratum candidate group and
  /// merge it. Returns true if a merge happened.
  Result<bool> MergeoutOnce(ProjectionStorage* ps);

  /// Run mergeout to quiescence.
  Status MergeoutAll(ProjectionStorage* ps);

  /// Persist committed in-memory delete-vector chunks to DVROS files.
  Status MoveDeleteVectors(ProjectionStorage* ps);

  /// Stratum of a container of `bytes` encoded bytes.
  int Stratum(uint64_t bytes) const;

  const TupleMoverStats& stats() const { return stats_; }
  const TupleMoverConfig& config() const { return cfg_; }

 private:
  /// The outcome of an input read that failed with `st`: OK (stale) when
  /// the storage generation moved past `gen` or the host went down, else
  /// `st`.
  Status ReadFailed(ProjectionStorage* ps, uint64_t gen, Status st);

  EpochManager* epochs_;
  TupleMoverConfig cfg_;
  TupleMoverStats stats_;
};

}  // namespace stratica

#endif  // STRATICA_TUPLEMOVER_TUPLE_MOVER_H_
