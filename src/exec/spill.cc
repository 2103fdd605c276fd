#include "exec/spill.h"

#include "common/bitutil.h"
#include "storage/encoding.h"

namespace stratica {

std::string SerializeBlock(const RowBlock& block) {
  std::string out;
  PutVarint64(&out, block.NumColumns());
  for (const auto& col : block.columns) {
    ColumnVector flat = col.IsFlat() ? col : col.Decoded();
    out.push_back(static_cast<char>(flat.type));
    std::string payload;
    (void)EncodeBlock(EncodingId::kPlain, flat, 0, flat.PhysicalSize(), &payload);
    PutVarint64(&out, payload.size());
    out.append(payload);
  }
  return out;
}

Result<RowBlock> ParseBlock(const std::string& data, const std::vector<TypeId>& types) {
  size_t offset = 0;
  uint64_t ncols;
  if (!GetVarint64(data, &offset, &ncols)) return Status::Corruption("spill: ncols");
  if (ncols != types.size()) return Status::Corruption("spill: column count mismatch");
  RowBlock block(types);
  for (uint64_t c = 0; c < ncols; ++c) {
    if (offset >= data.size()) return Status::Corruption("spill: truncated");
    ++offset;  // type byte (redundant with `types`)
    uint64_t len;
    if (!GetVarint64(data, &offset, &len)) return Status::Corruption("spill: len");
    std::string payload = data.substr(offset, len);
    offset += len;
    size_t poff = 0;
    STRATICA_RETURN_NOT_OK(DecodeBlock(payload, &poff, types[c], &block.columns[c]));
  }
  return block;
}

Status SpillWriter::Append(const RowBlock& block) {
  // Empty blocks are EOF markers downstream; never write one mid-file.
  if (block.NumRows() == 0) return Status::OK();
  std::string bytes = SerializeBlock(block);
  PutVarint64(&buffer_, bytes.size());
  buffer_.append(bytes);
  rows_ += block.NumRows();
  return Status::OK();
}

Status SpillWriter::Finish() { return fs_->WriteFile(path_, buffer_); }

Status SpillReader::Open() {
  STRATICA_ASSIGN_OR_RETURN(data_, fs_->ReadFile(path_));
  offset_ = 0;
  return Status::OK();
}

Status SpillReader::Next(RowBlock* out) {
  *out = RowBlock(types_);
  while (out->NumRows() == 0) {
    if (offset_ >= data_.size()) return Status::OK();
    uint64_t len;
    if (!GetVarint64(data_, &offset_, &len))
      return Status::Corruption("spill: chunk len");
    std::string chunk = data_.substr(offset_, len);
    offset_ += len;
    STRATICA_ASSIGN_OR_RETURN(*out, ParseBlock(chunk, types_));
  }
  return Status::OK();
}

}  // namespace stratica
