// K-way merge kernel shared by the Sort operator (spilled runs) and sorted
// merge scans, which the tuple mover reads through (DESIGN.md §8).
//
// A loser tree over k sorted inputs: each advance costs exactly one
// root-to-leaf replay (⌈log2 k⌉ comparisons) instead of the k-1
// comparisons of a scan-all-sources loop, and comparisons are memcmp over
// normalized keys (storage/sort_util) built once per block instead of
// per-row type switches. Output is appended in batches, with a
// run-extension fast path that bulk-copies every winner row that beats the
// current runner-up in one AppendRange.
#ifndef STRATICA_EXEC_MERGE_H_
#define STRATICA_EXEC_MERGE_H_

#include <memory>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"
#include "exec/spill.h"
#include "storage/sort_util.h"

namespace stratica {

/// \brief One sorted input of a k-way merge: a stream of flat blocks whose
/// concatenation is sorted by the merge keys. An empty block signals EOF.
class MergeInput {
 public:
  virtual ~MergeInput() = default;
  virtual Status NextBlock(RowBlock* out) = 0;
};

/// A single in-memory sorted block (the Sort operator's final in-memory
/// run).
class BlockMergeInput : public MergeInput {
 public:
  explicit BlockMergeInput(RowBlock block) : block_(std::move(block)) {}
  Status NextBlock(RowBlock* out) override {
    if (done_) {
      *out = RowBlock();
      return Status::OK();
    }
    done_ = true;
    *out = std::move(block_);
    return Status::OK();
  }

 private:
  RowBlock block_;
  bool done_ = false;
};

/// A sorted run spilled through exec/spill (external sort).
class SpillMergeInput : public MergeInput {
 public:
  SpillMergeInput(const FileSystem* fs, std::string path, std::vector<TypeId> types)
      : reader_(fs, std::move(path), std::move(types)) {}
  Status NextBlock(RowBlock* out) override {
    if (!opened_) {
      STRATICA_RETURN_NOT_OK(reader_.Open());
      opened_ = true;
    }
    return reader_.Next(out);
  }

 private:
  SpillReader reader_;
  bool opened_ = false;
};

/// \brief Streaming k-way merge of sorted inputs under directed sort keys.
///
/// Ties break toward the lower input index, so the merge is stable when
/// inputs are numbered in original order. The fan-in alone picks how rows
/// compare: memcmp over normalized keys for k > 2, CompareRowsDirected for
/// k <= 2. Both follow the same order (DESIGN.md §8).
class LoserTreeMerger {
 public:
  LoserTreeMerger(std::vector<std::unique_ptr<MergeInput>> inputs,
                  std::vector<SortKey> keys);

  /// Pull the first block of every input and build the tree.
  Status Init();

  bool Done() const;

  /// Append up to `max_rows` merged rows to *out (a flat block typed like
  /// the inputs). Appending zero rows means the merge is exhausted.
  Status Next(RowBlock* out, size_t max_rows);

 private:
  struct Cursor {
    std::unique_ptr<MergeInput> input;
    RowBlock block;
    NormalizedKeys keys;
    size_t pos = 0;  ///< current row within block
    bool exhausted = false;
  };

  Status Refill(size_t c);
  /// Append rows [cursor, take_end) of `leaf` to *out, advance the cursor,
  /// and return the row count.
  size_t EmitRows(size_t leaf, size_t take_end, RowBlock* out);
  /// Winner of the subtree rooted at `node`, recording losers on the way.
  size_t InitNode(size_t node);
  /// Re-seat leaf `leaf` after its cursor advanced (one root path).
  void Replay(size_t leaf);
  /// Would leaf `a` (at its cursor) win against leaf `b` (at its cursor)?
  bool LeafBeats(size_t a, size_t b) const;
  /// Would row `row` of leaf `a` win against leaf `b` at its cursor?
  bool RowBeats(size_t a, size_t row, size_t b) const;

  /// Consecutive wins by the same leaf before the run-extension fast path
  /// engages (short interleaved runs then never pay the challenger scan).
  static constexpr size_t kStreakForExtension = 4;

  std::vector<Cursor> cursors_;
  std::vector<SortKey> keys_;
  std::vector<size_t> tree_;  ///< [0] = winner; [1, k) = internal losers
  size_t k_ = 0;
  size_t streak_ = 0;             ///< current winner's consecutive wins
  size_t streak_leaf_ = SIZE_MAX; ///< leaf the streak belongs to
  const bool use_normalized_keys_;  ///< k > 2
};

}  // namespace stratica

#endif  // STRATICA_EXEC_MERGE_H_
