#include "storage/ros.h"

#include <sstream>

#include "common/bitutil.h"
#include "common/checksum.h"

namespace stratica {

RosWriter::RosWriter(FileSystem* fs, std::string dir, uint64_t container_id,
                     std::string projection, std::vector<std::string> column_names,
                     std::vector<TypeId> column_types, std::vector<EncodingId> encodings,
                     size_t rows_per_block)
    : fs_(fs),
      dir_(std::move(dir)),
      id_(container_id),
      projection_(std::move(projection)),
      names_(std::move(column_names)),
      types_(std::move(column_types)),
      encodings_(std::move(encodings)),
      rows_per_block_(rows_per_block) {
  writers_.reserve(names_.size());
  for (size_t c = 0; c < names_.size(); ++c) {
    writers_.push_back(
        std::make_unique<ColumnWriter>(types_[c], encodings_[c], rows_per_block_));
  }
}

RosWriter::~RosWriter() {
  if (!partial_) return;
  // Finish failed part-way: remove whatever it wrote. Deleting a file it
  // never reached fails harmlessly.
  for (const auto& name : names_) {
    (void)fs_->Delete(dir_ + "/" + name + ".dat");
    (void)fs_->Delete(dir_ + "/" + name + ".idx");
  }
  (void)fs_->Delete(dir_ + "/__epoch.dat");
  (void)fs_->Delete(dir_ + "/__epoch.idx");
  (void)fs_->Delete(dir_ + "/meta");
}

Status RosWriter::Append(const RowBlock& rows, const std::vector<Epoch>& epochs) {
  if (rows.NumColumns() != writers_.size())
    return Status::Internal("RosWriter column count mismatch");
  // Every batch carries per-row epochs, or none does.
  if (rows_written_ > 0 && epochs.empty() == (epoch_writer_ != nullptr))
    return Status::Internal("RosWriter: batches mix rows with and without epochs");
  size_t n = rows.NumRows();
  for (size_t c = 0; c < writers_.size(); ++c) {
    const ColumnVector& col = rows.columns[c];
    if (col.IsRle()) {
      STRATICA_RETURN_NOT_OK(writers_[c]->Append(col.Decoded()));
    } else {
      STRATICA_RETURN_NOT_OK(writers_[c]->Append(col));
    }
  }
  if (!epochs.empty()) {
    if (epochs.size() != n) return Status::Internal("epoch vector size mismatch");
    if (!epoch_writer_) {
      // Epochs are long runs of equal values in commit order; RLE them.
      epoch_writer_ = std::make_unique<ColumnWriter>(TypeId::kInt64, EncodingId::kRle,
                                                     rows_per_block_);
    }
    ColumnVector ev(TypeId::kInt64);
    ev.ints.reserve(n);
    for (Epoch e : epochs) {
      ev.ints.push_back(static_cast<int64_t>(e));
      min_epoch_ = std::min(min_epoch_, e);
      max_epoch_ = std::max(max_epoch_, e);
    }
    STRATICA_RETURN_NOT_OK(epoch_writer_->Append(ev));
  }
  rows_written_ += n;
  return Status::OK();
}

Result<RosContainerPtr> RosWriter::Finish(int64_t partition_key, uint32_t local_segment,
                                          Epoch uniform_epoch) {
  partial_ = true;
  auto ros = std::make_shared<RosContainer>();
  ros->id = id_;
  ros->projection = projection_;
  ros->dir = dir_;
  ros->row_count = rows_written_;
  ros->partition_key = partition_key;
  ros->local_segment = local_segment;
  for (size_t c = 0; c < writers_.size(); ++c) {
    RosColumnInfo info;
    info.name = names_[c];
    info.type = types_[c];
    info.encoding = encodings_[c];
    info.data_path = dir_ + "/" + names_[c] + ".dat";
    info.index_path = dir_ + "/" + names_[c] + ".idx";
    STRATICA_ASSIGN_OR_RETURN(info.meta,
                              writers_[c]->Finish(fs_, info.data_path, info.index_path));
    ros->total_bytes += info.meta.encoded_bytes;
    // Index file participates in the on-disk footprint.
    STRATICA_ASSIGN_OR_RETURN(uint64_t idx_size, fs_->FileSize(info.index_path));
    ros->total_bytes += idx_size;
    ros->raw_bytes += info.meta.raw_bytes;
    ros->columns.push_back(std::move(info));
  }
  if (epoch_writer_) {
    ros->epoch_data_path = dir_ + "/__epoch.dat";
    ros->epoch_index_path = dir_ + "/__epoch.idx";
    STRATICA_ASSIGN_OR_RETURN(
        ColumnFileMeta em,
        epoch_writer_->Finish(fs_, ros->epoch_data_path, ros->epoch_index_path));
    ros->total_bytes += em.encoded_bytes;
    ros->min_epoch = rows_written_ ? min_epoch_ : uniform_epoch;
    ros->max_epoch = rows_written_ ? max_epoch_ : uniform_epoch;
  } else {
    ros->min_epoch = uniform_epoch;
    ros->max_epoch = uniform_epoch;
  }
  STRATICA_RETURN_NOT_OK(WriteRosMeta(fs_, *ros, dir_ + "/meta"));
  partial_ = false;
  return RosContainerPtr(ros);
}

Result<ColumnReader> OpenRosColumn(const FileSystem* fs, const RosContainer& ros,
                                   size_t column_idx) {
  if (column_idx >= ros.columns.size())
    return Status::InvalidArgument("column index out of range");
  const RosColumnInfo& info = ros.columns[column_idx];
  return ColumnReader::Open(fs, info.data_path, info.index_path);
}

Status ReadRosContainer(const FileSystem* fs, const RosContainer& ros, RowBlock* out,
                        std::vector<Epoch>* epochs) {
  out->columns.clear();
  for (size_t c = 0; c < ros.columns.size(); ++c) {
    STRATICA_ASSIGN_OR_RETURN(ColumnReader reader, OpenRosColumn(fs, ros, c));
    ColumnVector col(ros.columns[c].type);
    STRATICA_RETURN_NOT_OK(reader.ReadAll(&col));
    out->columns.push_back(std::move(col));
  }
  if (epochs) {
    epochs->clear();
    if (!ros.epoch_data_path.empty()) {
      STRATICA_ASSIGN_OR_RETURN(
          ColumnReader reader,
          ColumnReader::Open(fs, ros.epoch_data_path, ros.epoch_index_path));
      ColumnVector col(TypeId::kInt64);
      STRATICA_RETURN_NOT_OK(reader.ReadAll(&col));
      epochs->reserve(col.ints.size());
      for (int64_t v : col.ints) epochs->push_back(static_cast<Epoch>(v));
    } else {
      epochs->assign(ros.row_count, ros.min_epoch);
    }
  }
  return Status::OK();
}

std::string SerializeRosMeta(const RosContainer& ros) {
  std::ostringstream out;
  out << "ros_v1\n";
  out << ros.id << "\t" << ros.projection << "\t" << ros.row_count << "\t"
      << ros.partition_key << "\t" << ros.local_segment << "\t" << ros.min_epoch << "\t"
      << ros.max_epoch << "\t" << ros.total_bytes << "\t" << ros.raw_bytes << "\t"
      << ros.epoch_data_path << "\t" << ros.epoch_index_path << "\t" << ros.dir << "\n";
  for (const auto& c : ros.columns) {
    out << c.name << "\t" << static_cast<int>(c.type) << "\t"
        << static_cast<int>(c.encoding) << "\t" << c.data_path << "\t" << c.index_path
        << "\n";
  }
  return out.str();
}

Result<RosContainer> ParseRosMeta(const std::string& data) {
  std::istringstream in(data);
  std::string line;
  if (!std::getline(in, line) || line != "ros_v1")
    return Status::Corruption("bad ros meta header");
  RosContainer ros;
  if (!std::getline(in, line)) return Status::Corruption("short ros meta");
  {
    std::istringstream ls(line);
    std::string field;
    std::vector<std::string> f;
    while (std::getline(ls, field, '\t')) f.push_back(field);
    if (f.size() < 9) return Status::Corruption("bad ros meta line");
    ros.id = std::strtoull(f[0].c_str(), nullptr, 10);
    ros.projection = f[1];
    ros.row_count = std::strtoull(f[2].c_str(), nullptr, 10);
    ros.partition_key = std::strtoll(f[3].c_str(), nullptr, 10);
    ros.local_segment = static_cast<uint32_t>(std::strtoul(f[4].c_str(), nullptr, 10));
    ros.min_epoch = std::strtoull(f[5].c_str(), nullptr, 10);
    ros.max_epoch = std::strtoull(f[6].c_str(), nullptr, 10);
    ros.total_bytes = std::strtoull(f[7].c_str(), nullptr, 10);
    ros.raw_bytes = std::strtoull(f[8].c_str(), nullptr, 10);
    if (f.size() > 9) ros.epoch_data_path = f[9];
    if (f.size() > 10) ros.epoch_index_path = f[10];
    if (f.size() > 11) ros.dir = f[11];
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string field;
    std::vector<std::string> f;
    while (std::getline(ls, field, '\t')) f.push_back(field);
    if (f.size() != 5) return Status::Corruption("bad ros column line");
    RosColumnInfo c;
    c.name = f[0];
    c.type = static_cast<TypeId>(std::atoi(f[1].c_str()));
    c.encoding = static_cast<EncodingId>(std::atoi(f[2].c_str()));
    c.data_path = f[3];
    c.index_path = f[4];
    ros.columns.push_back(std::move(c));
  }
  return ros;
}

Status WriteRosMeta(FileSystem* fs, const RosContainer& ros,
                    const std::string& meta_path) {
  return WriteFileChecksummed(fs, meta_path, SerializeRosMeta(ros));
}

Result<RosContainer> ReadRosMeta(const FileSystem* fs, const std::string& meta_path) {
  STRATICA_ASSIGN_OR_RETURN(std::string data, ReadFileChecksummed(fs, meta_path));
  return ParseRosMeta(data);
}

}  // namespace stratica
