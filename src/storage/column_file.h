// Column files: the pair of files per column inside a ROS container
// (Section 3.7) — one holding encoded data blocks, one holding the position
// index. Positions are implicit (never stored): a value's position is its
// ordinal within the file. The position index stores per-block metadata
// (start position, min, max, null count) used for fast tuple reconstruction
// and for the min/max pruning of Section 3.5 / [22].
#ifndef STRATICA_STORAGE_COLUMN_FILE_H_
#define STRATICA_STORAGE_COLUMN_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/row_block.h"
#include "common/status.h"
#include "storage/encoding.h"

namespace stratica {

/// Default rows per encoded block. The index carries one entry (~40 bytes)
/// per block, keeping it around 1/1000 of typical raw column data, matching
/// the paper's sizing observation.
constexpr size_t kDefaultRowsPerBlock = 16384;

/// Per-block entry in the position index.
struct BlockMeta {
  uint64_t offset = 0;         ///< Byte offset of the block in the data file.
  uint32_t encoded_bytes = 0;  ///< Encoded size of the block.
  uint64_t row_start = 0;      ///< Position of the block's first row.
  uint32_t row_count = 0;
  Value min, max;              ///< Over non-null values (null when all-NULL).
  uint32_t null_count = 0;
  uint32_t crc = 0;            ///< CRC32C of the encoded block bytes.
};

/// Parsed position index plus summary stats for one column file.
struct ColumnFileMeta {
  TypeId type = TypeId::kInt64;
  uint64_t num_rows = 0;
  uint64_t raw_bytes = 0;      ///< Unencoded footprint (8B/value or string bytes).
  uint64_t encoded_bytes = 0;  ///< Data file size.
  std::vector<BlockMeta> blocks;

  Value min, max;  ///< Column-level bounds across blocks.
};

/// \brief Streams a column into block-encoded form and builds its index.
///
/// Usage: Append() any number of vectors, then Finish() to write the
/// (data, index) file pair through the FileSystem.
class ColumnWriter {
 public:
  ColumnWriter(TypeId type, EncodingId encoding,
               size_t rows_per_block = kDefaultRowsPerBlock);

  /// Append a non-RLE vector of values. Full blocks are encoded straight
  /// from `col`; only the last partial block is buffered. A dict-coded
  /// input is decoded once up front.
  Status Append(const ColumnVector& col);

  uint64_t rows_buffered_total() const { return total_rows_; }

  /// Encode remaining rows, then write both files. Returns the index
  /// metadata (also persisted in the index file).
  Result<ColumnFileMeta> Finish(FileSystem* fs, const std::string& data_path,
                                const std::string& index_path);

 private:
  /// Encode rows [start, start + count) of flat `src` as the next block.
  Status FlushBlock(const ColumnVector& src, size_t start, size_t count);

  TypeId type_;
  EncodingId encoding_;
  size_t rows_per_block_;
  ColumnVector buffer_;
  std::string data_;
  ColumnFileMeta meta_;
  uint64_t total_rows_ = 0;
};

/// \brief Random and sequential access to one column file pair.
///
/// Not thread-safe: each reader owns a scratch buffer reused across block
/// reads so the per-block heap allocation of the old path is gone. Parallel
/// scans give every worker pipeline its own readers.
class ColumnReader {
 public:
  /// Open by reading and parsing the index file; block data is fetched
  /// lazily with ranged reads.
  static Result<ColumnReader> Open(const FileSystem* fs, const std::string& data_path,
                                   const std::string& index_path);

  const ColumnFileMeta& meta() const { return meta_; }
  size_t num_blocks() const { return meta_.blocks.size(); }

  /// Decode block `idx` flat, appending to `out`. A non-null `sel` (one
  /// entry per block row) is the late-materialization read (DESIGN.md §7):
  /// only the rows with sel[i] != 0 are decoded. Null decodes every row.
  Status ReadBlock(size_t idx, ColumnVector* out,
                   const std::vector<uint8_t>* sel = nullptr) const;

  /// Compressed-execution read (DESIGN.md §13): decode block `idx` to its
  /// cheapest loss-free view — RLE keeps runs, BlockDict keeps codes plus a
  /// shared sorted dictionary, everything else decodes flat. The view owns
  /// its data and may outlive this reader.
  Status ReadBlockView(size_t idx, EncodedBlockView* out) const;

  /// Decode the whole column with a single ranged read of the data file.
  Status ReadAll(ColumnVector* out) const;

  /// Encoded bytes fetched through this reader (I/O amplification metric).
  uint64_t bytes_read() const { return bytes_read_; }

  /// Transient-error retries performed by this reader's fetches (rolled
  /// into ExecStats::io_retries by the scan, like bytes_read).
  uint64_t io_retries() const { return io_retries_; }

 private:
  ColumnReader(const FileSystem* fs, std::string data_path, ColumnFileMeta meta)
      : fs_(fs), data_path_(std::move(data_path)), meta_(std::move(meta)) {}

  Status FetchBlock(size_t idx) const;

  const FileSystem* fs_;
  std::string data_path_;
  ColumnFileMeta meta_;
  mutable std::string scratch_;       // reused block buffer
  mutable uint64_t bytes_read_ = 0;
  mutable uint64_t io_retries_ = 0;
};

/// Serialize / parse the index file representation (exposed for tests).
std::string SerializeColumnFileMeta(const ColumnFileMeta& meta);
Result<ColumnFileMeta> ParseColumnFileMeta(const std::string& data);

}  // namespace stratica

#endif  // STRATICA_STORAGE_COLUMN_FILE_H_
