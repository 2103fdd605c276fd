// Delete vectors (Section 3.7.1).
//
// Data is never modified in place: deleting a row appends (position,
// delete-epoch) to a delete vector targeting the row's container (or the
// WOS). Delete vectors are stored in the same format as user data — an
// in-memory DVWOS first, moved to DVROS files on disk by the tuple mover
// using the regular column encodings (positions delta-encode superbly).
// SQL UPDATE is a delete plus an insert.
#ifndef STRATICA_STORAGE_DELETE_VECTOR_H_
#define STRATICA_STORAGE_DELETE_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "txn/epoch.h"

namespace stratica {

/// Target id used for delete vectors that point at WOS positions.
constexpr uint64_t kWosTargetId = UINT64_MAX;

/// \brief One chunk of deletions against one target (container or WOS).
///
/// Starts life in memory (DVWOS); MoveToDvRos persists it via the column
/// encodings. Epochs are kUncommittedEpoch until the owning transaction
/// commits.
struct DeleteVectorChunk {
  uint64_t target_id = kWosTargetId;
  uint64_t txn_id = 0;
  std::vector<uint64_t> positions;  // sorted ascending
  std::vector<Epoch> epochs;        // parallel to positions

  bool persisted = false;  // true once written to a DVROS file pair
  std::string dv_path;     // DVROS file (positions + epochs, encoded)

  size_t size() const { return positions.size(); }
};

using DeleteVectorChunkPtr = std::shared_ptr<DeleteVectorChunk>;

/// Persist a chunk to `path` using delta/RLE encodings (tuple mover's
/// DVWOS -> DVROS move). The chunk must be committed (real epochs).
Status WriteDvRos(FileSystem* fs, const DeleteVectorChunk& chunk,
                  const std::string& path);

/// Load a DVROS file back (recovery, tests).
Result<DeleteVectorChunkPtr> ReadDvRos(const FileSystem* fs, const std::string& path,
                                       uint64_t target_id);

/// One committed delete: a row position of a target and the epoch the
/// delete committed at.
struct DeleteEntry {
  uint64_t position = 0;
  Epoch epoch = 0;
  bool operator<(const DeleteEntry& o) const {
    return position != o.position ? position < o.position : epoch < o.epoch;
  }
};

/// \brief The committed deletes of one target (container or WOS), sorted by
/// position (DESIGN.md §1). Published immutable: a writer builds a new list
/// and swaps the pointer, so every snapshot shares the list it saw and
/// copies no positions.
using DeleteList = std::vector<DeleteEntry>;
using DeleteListPtr = std::shared_ptr<const DeleteList>;

/// A committed chunk of `target_id` holding `entries`, sorted by position.
DeleteVectorChunkPtr MakeDeleteChunk(uint64_t target_id, DeleteList entries);

/// `list` (may be null) with the entries of the committed `chunk` merged in.
DeleteListPtr MergeDeletes(const DeleteListPtr& list, const DeleteVectorChunk& chunk);

}  // namespace stratica

#endif  // STRATICA_STORAGE_DELETE_VECTOR_H_
