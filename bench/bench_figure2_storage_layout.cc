// Reproduces Figure 2: physical storage layout within a node — a table
// partitioned by month/year and segmented by HASH(cid), with three local
// segments, yielding one ROS container per (partition key, local segment)
// and two files per column per container.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"

int main() {
  using namespace stratica;
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.local_segments_per_node = 3;  // as in the figure
  Database db(opts);
  auto create = db.Execute(
      "CREATE TABLE txns (cid INT, t TIMESTAMP, amount FLOAT) "
      "PARTITION BY YEAR_MONTH(t)");
  if (!create.ok()) {
    std::fprintf(stderr, "%s\n", create.status().ToString().c_str());
    return 1;
  }
  // Four months of data: 3/2012 .. 6/2012, exactly as in the figure.
  RowBlock rows({TypeId::kInt64, TypeId::kTimestamp, TypeId::kFloat64});
  Rng rng(42);
  for (int month = 3; month <= 6; ++month) {
    for (int i = 0; i < 5000; ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, 99999));
      rows.columns[1].ints.push_back(MakeDate(2012, month, 1 + (i % 28)) * 86400LL *
                                     1000000LL);
      rows.columns[2].doubles.push_back(rng.NextDouble() * 500);
    }
  }
  if (!db.Load("txns", rows, /*direct=*/true).ok()) return 1;
  if (!db.RunTupleMover().ok()) return 1;

  std::printf("=== Figure 2: physical storage layout within one node ===\n");
  std::printf("table partitioned by YEAR_MONTH(t), segmented by HASH(cid), "
              "3 local segments\n\n");
  auto* ps = db.cluster()->node(0)->GetStorage("txns_super");
  std::map<int64_t, std::map<uint32_t, const RosContainer*>> layout;
  size_t files = 0;
  for (const auto& c : ps->Containers()) {
    layout[c->partition_key][c->local_segment] = c.get();
    files += c->columns.size() * 2;  // data + position index per column
  }
  for (const auto& [partition, segments] : layout) {
    std::printf("partition %ld (%ld/%ld):\n", static_cast<long>(partition),
                static_cast<long>(partition % 100),
                static_cast<long>(partition / 100));
    for (const auto& [segment, container] : segments) {
      std::printf("  local segment %u: container c%lu, %lu rows, %lu bytes, "
                  "%zu column file pairs\n",
                  segment, static_cast<unsigned long>(container->id),
                  static_cast<unsigned long>(container->row_count),
                  static_cast<unsigned long>(container->total_bytes),
                  container->columns.size());
    }
  }
  auto census = db.cluster()->Census("txns_super");
  std::printf("\ntotal: %zu ROS containers, %zu user-data files "
              "(figure: 14 containers would appear with uneven moveout timing; "
              "4 partitions x 3 local segments = 12 at quiescence)\n",
              census.containers, files);

  // Fast bulk drop (Section 3.5): dropping March = deleting files.
  uint64_t before = census.containers;
  std::vector<std::string> march_dirs;
  for (const auto& [segment, container] : layout[201203]) march_dirs.push_back(container->dir);
  auto dropped = ps->DropPartition(201203);
  std::printf("\nDROP PARTITION 2012-03: %s, %lu rows reclaimed immediately, "
              "containers %lu -> %zu\n",
              dropped.ok() ? "ok" : dropped.status().ToString().c_str(),
              dropped.ok() ? static_cast<unsigned long>(dropped.value()) : 0ul,
              static_cast<unsigned long>(before),
              db.cluster()->Census("txns_super").containers);
  size_t left = 0;
  for (const auto& dir : march_dirs) {
    auto files = db.fs()->List(dir + "/");
    left += files.ok() ? files.value().size() : 1;
  }
  std::printf("files left in the %zu dropped container directories: %zu\n",
              march_dirs.size(), left);
  // The figure's layout, and a drop that is nothing but file deletion.
  if (census.containers != 12 || !dropped.ok() || march_dirs.empty() || left != 0) {
    std::fprintf(stderr, "FAILED: expected 12 containers and no file left after the drop\n");
    return 1;
  }
  return 0;
}
