#include "cstore/cstore_engine.h"

#include <algorithm>
#include <unordered_map>

#include "storage/column_file.h"
#include "storage/sort_util.h"

namespace stratica {

Status CStoreEngine::AddProjection(const std::string& name,
                                   std::vector<std::string> column_names,
                                   RowBlock rows, int sort_column) {
  CStoreProjection proj;
  proj.name = name;
  proj.column_names = std::move(column_names);
  rows.DecodeAll();
  std::vector<uint32_t> perm =
      ComputeSortPermutation(rows, {static_cast<uint32_t>(sort_column)});
  proj.columns = ApplyPermutation(rows, perm);
  proj.row_ids.resize(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) proj.row_ids[i] = perm[i];

  // Persist with C-Store's encodings: RLE on the sorted column, plain
  // elsewhere, and the explicit storage-id column (plain 8 bytes/row).
  // Blocks model 8KB disk pages (1024 values).
  constexpr size_t kPageRows = 1024;
  for (size_t c = 0; c < proj.columns.NumColumns(); ++c) {
    EncodingId enc = static_cast<int>(c) == sort_column ? EncodingId::kRle
                                                        : EncodingId::kPlain;
    ColumnWriter writer(proj.columns.columns[c].type, enc, kPageRows);
    STRATICA_RETURN_NOT_OK(writer.Append(proj.columns.columns[c]));
    STRATICA_ASSIGN_OR_RETURN(
        ColumnFileMeta meta,
        writer.Finish(fs_, "cstore/" + name + "/c" + std::to_string(c) + ".dat",
                      "cstore/" + name + "/c" + std::to_string(c) + ".idx"));
    proj.disk_bytes += meta.encoded_bytes;
  }
  {
    ColumnVector ids(TypeId::kInt64);
    ids.ints = proj.row_ids;
    ColumnWriter writer(TypeId::kInt64, EncodingId::kPlain);
    STRATICA_RETURN_NOT_OK(writer.Append(ids));
    STRATICA_ASSIGN_OR_RETURN(ColumnFileMeta meta,
                              writer.Finish(fs_, "cstore/" + name + "/rowids.dat",
                                            "cstore/" + name + "/rowids.idx"));
    proj.disk_bytes += meta.encoded_bytes;
  }
  projections_[name] = std::move(proj);
  return Status::OK();
}

Status CStoreEngine::AddJoinIndex(const std::string& from, const std::string& to,
                                  const std::string& fk_column,
                                  const std::string& pk_column) {
  auto fit = projections_.find(from);
  auto tit = projections_.find(to);
  if (fit == projections_.end() || tit == projections_.end())
    return Status::NotFound("projection missing for join index");
  int fk = fit->second.FindColumn(fk_column);
  int pk = tit->second.FindColumn(pk_column);
  if (fk < 0 || pk < 0) return Status::NotFound("join index column missing");

  std::unordered_map<int64_t, int64_t> pk_to_row;
  const auto& pk_col = tit->second.columns.columns[pk];
  for (size_t r = 0; r < pk_col.ints.size(); ++r) pk_to_row.emplace(pk_col.ints[r], r);

  CStoreJoinIndex index;
  index.from = from;
  index.to = to;
  const auto& fk_col = fit->second.columns.columns[fk];
  index.target_row.resize(fk_col.ints.size(), -1);
  for (size_t r = 0; r < fk_col.ints.size(); ++r) {
    auto it = pk_to_row.find(fk_col.ints[r]);
    if (it != pk_to_row.end()) index.target_row[r] = it->second;
  }
  // Persisted as an explicit 8-byte-per-row structure.
  ColumnVector targets(TypeId::kInt64);
  targets.ints = index.target_row;
  ColumnWriter writer(TypeId::kInt64, EncodingId::kPlain);
  STRATICA_RETURN_NOT_OK(writer.Append(targets));
  STRATICA_ASSIGN_OR_RETURN(
      ColumnFileMeta meta,
      writer.Finish(fs_, "cstore/ji_" + from + "_" + to + ".dat",
                    "cstore/ji_" + from + "_" + to + ".idx"));
  index.disk_bytes = meta.encoded_bytes;
  join_indices_[from] = std::move(index);
  return Status::OK();
}

const CStoreProjection* CStoreEngine::projection(const std::string& name) const {
  auto it = projections_.find(name);
  return it == projections_.end() ? nullptr : &it->second;
}

const CStoreJoinIndex* CStoreEngine::join_index(const std::string& from) const {
  auto it = join_indices_.find(from);
  return it == join_indices_.end() ? nullptr : &it->second;
}

uint64_t CStoreEngine::TotalDiskBytes() const {
  uint64_t n = 0;
  for (const auto& [name, p] : projections_) n += p.disk_bytes;
  for (const auto& [name, ji] : join_indices_) n += ji.disk_bytes;
  return n;
}

namespace {
class ProjectionRowSource : public CStoreEngine::RowSource {
 public:
  explicit ProjectionRowSource(const CStoreProjection* proj) : proj_(proj) {}
  int64_t GetInt(size_t row, int col) const override {
    return proj_->columns.columns[col].ints[row];
  }
  double GetDouble(size_t row, int col) const override {
    return proj_->columns.columns[col].doubles[row];
  }
  size_t NumRows() const override { return proj_->columns.NumRows(); }

 private:
  const CStoreProjection* proj_;
};
}  // namespace

std::unique_ptr<CStoreEngine::RowSource> CStoreEngine::OpenSource(
    const std::string& projection_name) const {
  const CStoreProjection* proj = projection(projection_name);
  if (!proj) return nullptr;
  return std::make_unique<ProjectionRowSource>(proj);
}

namespace {
class DecodedRowSource : public CStoreEngine::RowSource {
 public:
  explicit DecodedRowSource(RowBlock rows) : rows_(std::move(rows)) {}
  int64_t GetInt(size_t row, int col) const override {
    return rows_.columns[col].ints[row];
  }
  double GetDouble(size_t row, int col) const override {
    return rows_.columns[col].doubles[row];
  }
  size_t NumRows() const override { return rows_.NumRows(); }

 private:
  RowBlock rows_;
};
}  // namespace

std::unique_ptr<CStoreEngine::RowSource> CStoreEngine::OpenSourceFromDisk(
    const std::string& projection_name) const {
  const CStoreProjection* proj = projection(projection_name);
  if (!proj) return nullptr;
  RowBlock rows;
  for (size_t c = 0; c < proj->columns.NumColumns(); ++c) {
    std::string base = "cstore/" + projection_name + "/c" + std::to_string(c);
    auto reader = ColumnReader::Open(fs_, base + ".dat", base + ".idx");
    if (!reader.ok()) return nullptr;
    ColumnVector col(proj->columns.columns[c].type);
    if (!reader.value().ReadAll(&col).ok()) return nullptr;
    rows.columns.push_back(std::move(col));
  }
  return std::make_unique<DecodedRowSource>(std::move(rows));
}

namespace {
class PagedRowSource : public CStoreEngine::RowSource {
 public:
  PagedRowSource(std::vector<ColumnReader> readers, size_t rows)
      : readers_(std::move(readers)),
        cache_(readers_.size()),
        cached_block_(readers_.size(), SIZE_MAX),
        rows_(rows) {}

  int64_t GetInt(size_t row, int col) const override {
    return Page(row, col)->ints[row % kPage];
  }
  double GetDouble(size_t row, int col) const override {
    return Page(row, col)->doubles[row % kPage];
  }
  size_t NumRows() const override { return rows_; }

 private:
  static constexpr size_t kPage = 1024;
  const ColumnVector* Page(size_t row, int col) const {
    size_t block = row / kPage;
    if (cached_block_[col] != block) {
      cache_[col].Clear();
      cache_[col].type = readers_[col].meta().type;
      (void)readers_[col].ReadBlock(block, &cache_[col]);
      cached_block_[col] = block;
    }
    return &cache_[col];
  }
  std::vector<ColumnReader> readers_;
  mutable std::vector<ColumnVector> cache_;
  mutable std::vector<size_t> cached_block_;
  size_t rows_;
};
}  // namespace

std::unique_ptr<CStoreEngine::RowSource> CStoreEngine::OpenPagedSource(
    const std::string& projection_name) const {
  const CStoreProjection* proj = projection(projection_name);
  if (!proj) return nullptr;
  std::vector<ColumnReader> readers;
  for (size_t c = 0; c < proj->columns.NumColumns(); ++c) {
    std::string base = "cstore/" + projection_name + "/c" + std::to_string(c);
    auto reader = ColumnReader::Open(fs_, base + ".dat", base + ".idx");
    if (!reader.ok()) return nullptr;
    readers.push_back(std::move(reader).value());
  }
  return std::make_unique<PagedRowSource>(std::move(readers), proj->columns.NumRows());
}

Result<int64_t> CStoreEngine::ChaseJoin(const std::string& from, size_t row,
                                        const std::string& to_column) const {
  const CStoreJoinIndex* ji = join_index(from);
  if (!ji) return Status::NotFound("no join index from ", from);
  int64_t target = ji->target_row[row];
  if (target < 0) return Status::NotFound("dangling join index entry");
  const CStoreProjection* to = projection(ji->to);
  int col = to->FindColumn(to_column);
  if (col < 0) return Status::NotFound("column ", to_column);
  return to->columns.columns[col].ints[static_cast<size_t>(target)];
}

}  // namespace stratica
