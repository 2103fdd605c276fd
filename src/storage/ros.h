// ROS containers (Section 3.7): immutable on-disk units of a projection.
//
// Each container holds complete tuples sorted by the projection's sort
// order, stored as a pair of files (data + position index) per column.
// Positions are implicit. Containers never change after being written; the
// tuple mover replaces sets of containers wholesale. Each container belongs
// to exactly one (partition key, local segment) pair (Sections 3.5, 3.6).
//
// Epochs: a direct load's container has no epoch file; all its rows share
// the one commit epoch stamped into its meta at commit. Moveout, mergeout
// and recovery output carry a per-row implicit epoch column (Section 5:
// "implemented as implicit 64-bit integral columns"), even when every row
// has the same epoch; RLE collapses it to almost nothing.
#ifndef STRATICA_STORAGE_ROS_H_
#define STRATICA_STORAGE_ROS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/row_block.h"
#include "common/status.h"
#include "storage/column_file.h"
#include "txn/epoch.h"

namespace stratica {

/// Partition key used when a table (or projection) is unpartitioned.
constexpr int64_t kNoPartitionKey = std::numeric_limits<int64_t>::min();

struct RosColumnInfo {
  std::string name;
  TypeId type = TypeId::kInt64;
  EncodingId encoding = EncodingId::kAuto;
  std::string data_path;
  std::string index_path;
  ColumnFileMeta meta;
};

/// \brief Immutable container metadata. Shared (const) across threads.
struct RosContainer {
  uint64_t id = 0;
  std::string projection;
  std::string dir;  ///< Container directory; meta file lives at dir + "/meta".
  uint64_t row_count = 0;
  int64_t partition_key = kNoPartitionKey;
  uint32_t local_segment = 0;
  uint64_t creating_txn = 0;  ///< Non-persistent; read-your-writes visibility.

  std::vector<RosColumnInfo> columns;  // projection column order

  /// Epoch range of contained rows. A direct load's is one epoch, stamped
  /// at commit; moveout, mergeout and recovery output has an epoch column
  /// file giving each row's.
  Epoch min_epoch = kUncommittedEpoch;
  Epoch max_epoch = kUncommittedEpoch;
  std::string epoch_data_path;   // empty for a direct load's container
  std::string epoch_index_path;

  uint64_t total_bytes = 0;  ///< Encoded bytes across all files (strata input).
  uint64_t raw_bytes = 0;    ///< Pre-encoding footprint (compression reporting).

  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

using RosContainerPtr = std::shared_ptr<const RosContainer>;

/// \brief Streams sorted rows (plus their epochs) into a new ROS container.
///
/// The caller guarantees sort order; the writer builds per-column files and
/// the container metadata. Rows are appended in vectorized batches, so
/// mergeout can stream arbitrarily large merges with bounded memory. Files
/// are written by Finish; a writer destroyed after a Finish that failed
/// removes every file of its container, so a failed write leaves none.
class RosWriter {
 public:
  /// `dir` is the container directory (e.g. "node0/proj_sales/c42").
  RosWriter(FileSystem* fs, std::string dir, uint64_t container_id,
            std::string projection, std::vector<std::string> column_names,
            std::vector<TypeId> column_types, std::vector<EncodingId> encodings,
            size_t rows_per_block = kDefaultRowsPerBlock);
  ~RosWriter();
  RosWriter(const RosWriter&) = delete;
  RosWriter& operator=(const RosWriter&) = delete;

  /// Append a batch. `epochs` must be empty (all rows get the epoch passed
  /// to Finish) or have one entry per row; every batch of a container
  /// carries epochs or none does.
  Status Append(const RowBlock& rows, const std::vector<Epoch>& epochs);

  uint64_t rows_written() const { return rows_written_; }

  /// Close files and produce the container. `uniform_epoch` applies when no
  /// per-row epochs were appended (kUncommittedEpoch for loads that will be
  /// stamped at commit time).
  Result<RosContainerPtr> Finish(int64_t partition_key, uint32_t local_segment,
                                 Epoch uniform_epoch);

 private:
  FileSystem* fs_;
  std::string dir_;
  uint64_t id_;
  std::string projection_;
  std::vector<std::string> names_;
  std::vector<TypeId> types_;
  std::vector<EncodingId> encodings_;
  std::vector<std::unique_ptr<ColumnWriter>> writers_;
  std::unique_ptr<ColumnWriter> epoch_writer_;
  Epoch min_epoch_ = kUncommittedEpoch, max_epoch_ = 0;
  uint64_t rows_written_ = 0;
  size_t rows_per_block_;
  bool partial_ = false;  ///< Finish began writing files and has not succeeded
};

/// Open a reader for one column of a container.
Result<ColumnReader> OpenRosColumn(const FileSystem* fs, const RosContainer& ros,
                                   size_t column_idx);

/// Read every row of a container into a block: the tests' reference reader,
/// independent of the scan. Per-row epochs are returned when present.
Status ReadRosContainer(const FileSystem* fs, const RosContainer& ros,
                        RowBlock* out, std::vector<Epoch>* epochs);

/// Serialize container metadata to its meta file / parse it back (used by
/// backup and by catalog-less container discovery in tests).
std::string SerializeRosMeta(const RosContainer& ros);
Result<RosContainer> ParseRosMeta(const std::string& data);

/// Write / read a container's meta file with the integrity footer. Reading
/// a torn or bit-flipped meta returns Corruption (startup scrub relies on
/// this to distinguish orphans from live containers).
Status WriteRosMeta(FileSystem* fs, const RosContainer& ros,
                    const std::string& meta_path);
Result<RosContainer> ReadRosMeta(const FileSystem* fs, const std::string& meta_path);

}  // namespace stratica

#endif  // STRATICA_STORAGE_ROS_H_
