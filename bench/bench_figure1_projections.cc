// Reproduces Figure 1: the relationship between a table and its
// projections. The sales table gets (1) a super projection sorted by date
// and segmented by HASH(sale_id) and (2) a narrow (cust, price) projection
// sorted by cust and segmented by HASH(cust); the bench prints each node's
// physical contents of both.
#include <cstdio>

#include "api/database.h"
#include "cluster/cluster.h"
#include "exec/scan.h"

int main() {
  using namespace stratica;
  DatabaseOptions opts;
  opts.num_nodes = 3;
  opts.k_safety = 0;
  opts.local_segments_per_node = 1;
  Database db(opts);
  auto run = [&](const std::string& sql) {
    auto result = db.Execute(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "%s -> %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(result).value();
  };
  run("CREATE TABLE sales (sale_id INT, date DATE, cust VARCHAR, price FLOAT)");
  run("CREATE PROJECTION sales_by_cust (cust ENCODING RLE, price) AS "
      "SELECT cust, price FROM sales ORDER BY cust SEGMENTED BY HASH(cust)");
  // The 8 rows of Figure 1 (values representative).
  run("INSERT INTO sales VALUES "
      "(1, '2012-01-03', 'alice', 300.00), (2, '2012-01-05', 'bob', 190.00),"
      "(3, '2012-01-10', 'carol', 750.00), (4, '2012-02-02', 'alice', 99.00),"
      "(5, '2012-02-14', 'dave', 410.00), (6, '2012-03-01', 'bob', 680.00),"
      "(7, '2012-03-17', 'carol', 150.00), (8, '2012-03-21', 'alice', 220.00)");
  if (!db.RunTupleMover().ok()) return 1;

  std::printf("=== Figure 1: table -> projections ===\n\n");
  for (const auto& pname : db.catalog()->ProjectionNames()) {
    auto proj = db.catalog()->GetProjection(pname);
    if (!proj.ok()) continue;
    const auto& p = proj.value();
    std::printf("projection %s (%s%s): sort by", p.name.c_str(),
                p.is_super ? "super" : "non-super",
                p.buddy_of.empty() ? "" : ", buddy");
    auto table = db.catalog()->GetTable(p.anchor_table);
    for (uint32_t s : p.sort_columns) std::printf(" %s", p.columns[s].name.c_str());
    std::printf(", %s\n", p.segmentation.ToString().c_str());
    for (uint32_t n = 0; n < db.cluster()->num_nodes(); ++n) {
      auto* ps = db.cluster()->node(n)->GetStorage(p.name);
      if (!ps) continue;
      // Every stored row, deleted ones included (a history read).
      auto read = ScanCopy(db.fs(), ps, db.cluster()->epochs()->LatestQueryableEpoch(),
                           {kScanDeleteEpoch});
      if (!read.ok()) continue;
      RowBlock rows = std::move(read).value();
      rows.columns.pop_back();
      std::printf("  node %u (%zu rows):\n", n, rows.NumRows());
      std::string text = rows.ToString(10);
      // Indent.
      size_t pos = 0;
      while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) break;
        std::printf("    %s\n", text.substr(pos, eol - pos).c_str());
        pos = eol + 1;
      }
    }
    std::printf("\n");
  }
  std::printf("every row lives in the super projection on exactly one node "
              "(HASH(sale_id) ring);\nthe narrow projection re-segments the "
              "same logical rows by HASH(cust), sorted by cust.\n");
  return 0;
}
