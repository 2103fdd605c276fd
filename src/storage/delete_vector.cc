#include "storage/delete_vector.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/row_block.h"
#include "storage/encoding.h"

namespace stratica {

Status WriteDvRos(FileSystem* fs, const DeleteVectorChunk& chunk,
                  const std::string& path) {
  // Two encoded blocks in one file: positions (monotone -> common-delta or
  // delta-range) and epochs (long runs -> RLE). "Delete vectors are stored
  // in the same format as user data."
  ColumnVector pos(TypeId::kInt64), ep(TypeId::kInt64);
  pos.ints.reserve(chunk.positions.size());
  for (uint64_t p : chunk.positions) pos.ints.push_back(static_cast<int64_t>(p));
  ep.ints.reserve(chunk.epochs.size());
  for (Epoch e : chunk.epochs) ep.ints.push_back(static_cast<int64_t>(e));
  std::string data;
  STRATICA_RETURN_NOT_OK(
      EncodeBlock(EncodingId::kAuto, pos, 0, pos.ints.size(), &data));
  STRATICA_RETURN_NOT_OK(EncodeBlock(EncodingId::kRle, ep, 0, ep.ints.size(), &data));
  return WriteFileChecksummed(fs, path, std::move(data));
}

Result<DeleteVectorChunkPtr> ReadDvRos(const FileSystem* fs, const std::string& path,
                                       uint64_t target_id) {
  STRATICA_ASSIGN_OR_RETURN(std::string data, ReadFileChecksummed(fs, path));
  auto chunk = std::make_shared<DeleteVectorChunk>();
  chunk->target_id = target_id;
  chunk->persisted = true;
  chunk->dv_path = path;
  ColumnVector pos(TypeId::kInt64), ep(TypeId::kInt64);
  size_t offset = 0;
  STRATICA_RETURN_NOT_OK(DecodeBlock(data, &offset, TypeId::kInt64, &pos));
  STRATICA_RETURN_NOT_OK(DecodeBlock(data, &offset, TypeId::kInt64, &ep));
  if (pos.ints.size() != ep.ints.size())
    return Status::Corruption("dvros: position/epoch count mismatch");
  chunk->positions.reserve(pos.ints.size());
  for (int64_t v : pos.ints) chunk->positions.push_back(static_cast<uint64_t>(v));
  chunk->epochs.reserve(ep.ints.size());
  for (int64_t v : ep.ints) chunk->epochs.push_back(static_cast<Epoch>(v));
  return chunk;
}

DeleteVectorChunkPtr MakeDeleteChunk(uint64_t target_id, DeleteList entries) {
  std::sort(entries.begin(), entries.end());
  auto chunk = std::make_shared<DeleteVectorChunk>();
  chunk->target_id = target_id;
  for (const DeleteEntry& e : entries) {
    chunk->positions.push_back(e.position);
    chunk->epochs.push_back(e.epoch);
  }
  return chunk;
}

DeleteListPtr MergeDeletes(const DeleteListPtr& list, const DeleteVectorChunk& chunk) {
  auto out = std::make_shared<DeleteList>();
  out->reserve((list ? list->size() : 0) + chunk.size());
  if (list) *out = *list;
  auto mid = static_cast<std::ptrdiff_t>(out->size());
  for (size_t i = 0; i < chunk.size(); ++i)
    out->push_back({chunk.positions[i], chunk.epochs[i]});
  std::sort(out->begin() + mid, out->end());
  std::inplace_merge(out->begin(), out->begin() + mid, out->end());
  return out;
}

}  // namespace stratica
