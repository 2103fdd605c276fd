#include "storage/column_file.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/checksum.h"
#include "common/hash.h"
#include "common/retry.h"

namespace stratica {

ColumnWriter::ColumnWriter(TypeId type, EncodingId encoding, size_t rows_per_block)
    : type_(type), encoding_(encoding), rows_per_block_(rows_per_block), buffer_(type) {
  meta_.type = type;
}

Status ColumnWriter::Append(const ColumnVector& col) {
  if (col.IsRle()) return Status::Internal("ColumnWriter requires flat input");
  if (col.IsDictCoded()) return Append(col.Decoded());
  size_t n = col.PhysicalSize();
  total_rows_ += n;
  size_t pos = 0;
  // Top up a buffered tail to one full block first; every later full block
  // is encoded straight from `col` by offset, and only the last partial
  // block is buffered. Block boundaries fall every rows_per_block_ rows of
  // the column however it was chunked, so the bytes match a one-shot write.
  if (buffer_.PhysicalSize() > 0) {
    pos = std::min(n, rows_per_block_ - buffer_.PhysicalSize());
    buffer_.AppendRange(col, 0, pos);
    if (buffer_.PhysicalSize() < rows_per_block_) return Status::OK();
    STRATICA_RETURN_NOT_OK(FlushBlock(buffer_, 0, rows_per_block_));
    buffer_.Clear();
  }
  for (; n - pos >= rows_per_block_; pos += rows_per_block_)
    STRATICA_RETURN_NOT_OK(FlushBlock(col, pos, rows_per_block_));
  buffer_.AppendRange(col, pos, n - pos);
  return Status::OK();
}

Status ColumnWriter::FlushBlock(const ColumnVector& src, size_t start, size_t count) {
  BlockMeta bm;
  bm.offset = data_.size();
  bm.row_start = meta_.num_rows;
  bm.row_count = static_cast<uint32_t>(count);
  // Track the first minimal and maximal entry by index and box only those
  // two as Values.
  const bool is_string = StorageClassOf(type_) == StorageClass::kString;
  size_t min_i = SIZE_MAX, max_i = SIZE_MAX;
  for (size_t i = start; i < start + count; ++i) {
    if (src.IsNull(i)) {
      ++bm.null_count;
      continue;
    }
    if (min_i == SIZE_MAX || ColumnVector::CompareEntries(src, i, src, min_i) < 0) min_i = i;
    if (max_i == SIZE_MAX || ColumnVector::CompareEntries(src, i, src, max_i) > 0) max_i = i;
    // Raw footprint: fixed 8 bytes for scalars, bytes+separator for strings.
    meta_.raw_bytes += is_string ? src.strings[i].size() + 1 : 8;
  }
  bm.min = min_i == SIZE_MAX ? Value::Null(type_) : src.GetValue(min_i);
  bm.max = max_i == SIZE_MAX ? Value::Null(type_) : src.GetValue(max_i);
  meta_.raw_bytes += bm.null_count * (is_string ? 1 : 8);
  STRATICA_RETURN_NOT_OK(EncodeBlock(encoding_, src, start, count, &data_));
  bm.encoded_bytes = static_cast<uint32_t>(data_.size() - bm.offset);
  bm.crc = Crc32c(data_.data() + bm.offset, bm.encoded_bytes);
  meta_.num_rows += count;
  if (!bm.min.is_null() && (meta_.min.is_null() || bm.min.Compare(meta_.min) < 0))
    meta_.min = bm.min;
  if (!bm.max.is_null() && (meta_.max.is_null() || bm.max.Compare(meta_.max) > 0))
    meta_.max = bm.max;
  meta_.blocks.push_back(std::move(bm));
  return Status::OK();
}

Result<ColumnFileMeta> ColumnWriter::Finish(FileSystem* fs, const std::string& data_path,
                                            const std::string& index_path) {
  if (buffer_.PhysicalSize() > 0) {
    STRATICA_RETURN_NOT_OK(FlushBlock(buffer_, 0, buffer_.PhysicalSize()));
    buffer_.Clear();
  }
  meta_.min = meta_.min.is_null() ? Value::Null(type_) : meta_.min;
  meta_.max = meta_.max.is_null() ? Value::Null(type_) : meta_.max;
  meta_.encoded_bytes = data_.size();
  STRATICA_RETURN_NOT_OK(fs->WriteFile(data_path, data_));
  // The data file's blocks are individually CRC-guarded via the index; the
  // index itself gets a whole-file footer so a torn index never parses.
  STRATICA_RETURN_NOT_OK(
      WriteFileChecksummed(fs, index_path, SerializeColumnFileMeta(meta_)));
  return meta_;
}

std::string SerializeColumnFileMeta(const ColumnFileMeta& meta) {
  std::string out;
  out.push_back(static_cast<char>(meta.type));
  PutVarint64(&out, meta.num_rows);
  PutVarint64(&out, meta.raw_bytes);
  PutVarint64(&out, meta.encoded_bytes);
  EncodeValue(&out, meta.min);
  EncodeValue(&out, meta.max);
  PutVarint64(&out, meta.blocks.size());
  for (const auto& b : meta.blocks) {
    PutVarint64(&out, b.offset);
    PutVarint64(&out, b.encoded_bytes);
    PutVarint64(&out, b.row_start);
    PutVarint64(&out, b.row_count);
    EncodeValue(&out, b.min);
    EncodeValue(&out, b.max);
    PutVarint64(&out, b.null_count);
    PutVarint64(&out, b.crc);
  }
  return out;
}

Result<ColumnFileMeta> ParseColumnFileMeta(const std::string& data) {
  ColumnFileMeta meta;
  size_t offset = 0;
  if (data.empty()) return Status::Corruption("index: empty");
  meta.type = static_cast<TypeId>(data[offset++]);
  uint64_t v;
  if (!GetVarint64(data, &offset, &v)) return Status::Corruption("index: rows");
  meta.num_rows = v;
  if (!GetVarint64(data, &offset, &v)) return Status::Corruption("index: raw");
  meta.raw_bytes = v;
  if (!GetVarint64(data, &offset, &v)) return Status::Corruption("index: enc");
  meta.encoded_bytes = v;
  STRATICA_RETURN_NOT_OK(DecodeValue(data, &offset, meta.type, &meta.min));
  STRATICA_RETURN_NOT_OK(DecodeValue(data, &offset, meta.type, &meta.max));
  uint64_t nblocks;
  if (!GetVarint64(data, &offset, &nblocks)) return Status::Corruption("index: nblocks");
  meta.blocks.resize(nblocks);
  for (auto& b : meta.blocks) {
    uint64_t x;
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: offset");
    b.offset = x;
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: bytes");
    b.encoded_bytes = static_cast<uint32_t>(x);
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: row_start");
    b.row_start = x;
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: row_count");
    b.row_count = static_cast<uint32_t>(x);
    STRATICA_RETURN_NOT_OK(DecodeValue(data, &offset, meta.type, &b.min));
    STRATICA_RETURN_NOT_OK(DecodeValue(data, &offset, meta.type, &b.max));
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: nulls");
    b.null_count = static_cast<uint32_t>(x);
    if (!GetVarint64(data, &offset, &x)) return Status::Corruption("index: crc");
    b.crc = static_cast<uint32_t>(x);
  }
  return meta;
}

namespace {

/// Reader-side retry policy: transient I/O errors back off and retry before
/// anything surfaces to the scan; the jitter seed is derived from the path
/// so concurrent readers of different files desynchronize.
RetryPolicy ReaderRetryPolicy(const std::string& path) {
  RetryPolicy p;
  p.jitter_seed = HashBytes(path.data(), path.size());
  return p;
}

}  // namespace

Result<ColumnReader> ColumnReader::Open(const FileSystem* fs, const std::string& data_path,
                                        const std::string& index_path) {
  std::string index_bytes;
  STRATICA_RETURN_NOT_OK(
      RetryTransient(ReaderRetryPolicy(index_path), nullptr, [&]() -> Status {
        STRATICA_ASSIGN_OR_RETURN(index_bytes, fs->ReadFile(index_path));
        return Status::OK();
      }));
  STRATICA_RETURN_NOT_OK(VerifyAndStripCrcFooter(&index_bytes, index_path));
  STRATICA_ASSIGN_OR_RETURN(ColumnFileMeta meta, ParseColumnFileMeta(index_bytes));
  return ColumnReader(fs, data_path, std::move(meta));
}

Status ColumnReader::FetchBlock(size_t idx) const {
  const BlockMeta& b = meta_.blocks[idx];
  STRATICA_RETURN_NOT_OK(
      RetryTransient(ReaderRetryPolicy(data_path_), &io_retries_, [&] {
        return fs_->ReadRangeInto(data_path_, b.offset, b.encoded_bytes, &scratch_);
      }));
  STRATICA_RETURN_NOT_OK(
      VerifyBlockCrc(scratch_, 0, b.encoded_bytes, b.crc, data_path_, b.offset));
  bytes_read_ += b.encoded_bytes;
  return Status::OK();
}

Status ColumnReader::ReadBlock(size_t idx, ColumnVector* out,
                               const std::vector<uint8_t>* sel) const {
  if (idx >= meta_.blocks.size()) return Status::InvalidArgument("block out of range");
  STRATICA_RETURN_NOT_OK(FetchBlock(idx));
  size_t offset = 0;
  return DecodeBlock(scratch_, &offset, meta_.type, out, sel);
}

Status ColumnReader::ReadBlockView(size_t idx, EncodedBlockView* out) const {
  if (idx >= meta_.blocks.size()) return Status::InvalidArgument("block out of range");
  STRATICA_RETURN_NOT_OK(FetchBlock(idx));
  size_t offset = 0;
  return DecodeBlockView(scratch_, &offset, meta_.type, out);
}

Status ColumnReader::ReadAll(ColumnVector* out) const {
  out->type = meta_.type;
  if (meta_.blocks.empty()) return Status::OK();
  // Blocks are written back to back, so the whole column is one contiguous
  // span: fetch it with a single ranged read into the reusable buffer
  // instead of one allocation per block.
  const BlockMeta& last = meta_.blocks.back();
  uint64_t span = last.offset + last.encoded_bytes;
  STRATICA_RETURN_NOT_OK(
      RetryTransient(ReaderRetryPolicy(data_path_), &io_retries_, [&] {
        return fs_->ReadRangeInto(data_path_, 0, span, &scratch_);
      }));
  bytes_read_ += span;
  out->Reserve(out->PhysicalSize() + meta_.num_rows);
  for (const BlockMeta& b : meta_.blocks) {
    STRATICA_RETURN_NOT_OK(VerifyBlockCrc(scratch_, b.offset, b.encoded_bytes, b.crc,
                                          data_path_, b.offset));
    size_t offset = b.offset;
    STRATICA_RETURN_NOT_OK(DecodeBlock(scratch_, &offset, meta_.type, out));
  }
  return Status::OK();
}

}  // namespace stratica
