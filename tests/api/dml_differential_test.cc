// DML differential test: seeded random DELETE and UPDATE sequences against
// a plain C++ multiset oracle, on 1 node and on a 4-node k=1 cluster.
//
// The table has a super projection sorted by `k` and a narrow projection
// (k, w) sorted by `w` that lacks `v`, so every predicate on `v` deletes
// from the narrow projection by content matching. Rows sit in the WOS and
// in ROS containers: loads land in both, and moveout and mergeout run
// between statements. After every statement each projection copy, read
// through the scan, must hold exactly the oracle's rows (so buddies match
// their primaries), and a history read at the epoch before a DELETE must
// still show the rows it deleted.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <string>

#include "api/database.h"
#include "common/rng.h"
#include "exec/scan.h"

namespace stratica {
namespace {

constexpr int64_t kNull = INT64_MIN;  // oracle stand-in for SQL NULL
using Row = std::array<int64_t, 3>;   // (k, v, w)
using Rows = std::multiset<std::vector<int64_t>>;

std::string Sql(int64_t v) { return v == kNull ? "NULL" : std::to_string(v); }

class DmlDifferential {
 public:
  DmlDifferential(uint32_t nodes, uint32_t k_safety, uint64_t seed) : rng_(seed) {
    DatabaseOptions opts;
    opts.num_nodes = nodes;
    opts.k_safety = k_safety;
    opts.worker_threads = 2;
    db_ = std::make_unique<Database>(opts);
    Exec("CREATE TABLE t (k INT NOT NULL, v INT, w INT)");
    Exec("CREATE PROJECTION p_kw (k, w) AS SELECT k, w FROM t ORDER BY w "
         "SEGMENTED BY HASH(k)");
  }

  void Exec(const std::string& sql, uint64_t* affected = nullptr) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (affected) *affected = r.value().affected_rows;
  }

  int64_t Maybe(int64_t hi) { return rng_.Range(0, 5) == 0 ? kNull : rng_.Range(0, hi); }

  // Load `n` fresh rows, into the WOS or straight to ROS.
  void LoadRows(int n) {
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
    for (int i = 0; i < n; ++i) {
      Row row{next_k_++, Maybe(9), Maybe(19)};
      for (size_t c = 0; c < 3; ++c) rows.columns[c].Append(
          row[c] == kNull ? Value::Null(TypeId::kInt64) : Value::Int64(row[c]));
      oracle_.push_back(row);
    }
    auto loaded = db_->Load("t", rows, /*direct=*/rng_.Range(0, 1) == 1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  }

  // One random WHERE clause over a sort column (k), a column the narrow
  // projection lacks (v) or its own sort column (w), NULLs included.
  std::string RandomWhere(std::function<bool(const Row&)>* match) {
    int64_t a = rng_.Range(0, 9), b = rng_.Range(0, 19), k = rng_.Range(0, next_k_);
    switch (rng_.Range(0, 6)) {
      case 0:
        *match = [k](const Row& r) { return r[0] < k; };
        return "k < " + std::to_string(k);
      case 1:
        *match = [k](const Row& r) { return r[0] == k; };
        return "k = " + std::to_string(k);
      case 2:
        *match = [a](const Row& r) { return r[1] != kNull && r[1] == a; };
        return "v = " + std::to_string(a);
      case 3:
        *match = [](const Row& r) { return r[1] == kNull; };
        return "v IS NULL";
      case 4:
        *match = [b](const Row& r) { return r[2] != kNull && r[2] >= b && r[2] < b + 4; };
        return "w >= " + std::to_string(b) + " AND w < " + std::to_string(b + 4);
      case 5:
        *match = [](const Row& r) { return r[2] == kNull; };
        return "w IS NULL";
      default:
        *match = [a, k](const Row& r) {
          return r[0] > k && r[1] != kNull && r[1] < a;
        };
        return "k > " + std::to_string(k) + " AND v < " + std::to_string(a);
    }
  }

  // Every copy of every projection of t, as the union over its nodes of
  // the rows a scan at `at` returns (`history`: rows live at `at` in a
  // history read), keyed by projection name.
  std::map<std::string, Rows> ReadCopies(Epoch at, bool history) {
    std::map<std::string, Rows> out;
    Cluster* cluster = db_->cluster();
    for (const auto& proj : db_->catalog()->ProjectionsForTable("t")) {
      Rows& rows = out[proj.name];
      for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
        ProjectionStorage* ps = cluster->node(n)->GetStorage(proj.name);
        if (!ps) continue;
        auto read = ScanCopy(db_->fs(), ps, at,
                             history ? std::vector<int>{kScanDeleteEpoch}
                                     : std::vector<int>{});
        EXPECT_TRUE(read.ok()) << read.status().ToString();
        if (!read.ok()) continue;
        const RowBlock& block = read.value();
        const size_t ncols = ps->config().column_names.size();
        for (size_t r = 0; r < block.NumRows(); ++r) {
          if (history && block.columns[ncols].ints[r] != 0) continue;
          std::vector<int64_t> row;
          for (size_t c = 0; c < ncols; ++c) {
            const ColumnVector& col = block.columns[c];
            row.push_back(col.IsNull(r) ? kNull : col.ints[r]);
          }
          rows.insert(std::move(row));
        }
      }
    }
    return out;
  }

  // The oracle restricted to each projection's columns.
  std::map<std::string, Rows> Expected(const std::vector<Row>& oracle) {
    std::map<std::string, Rows> out;
    for (const auto& proj : db_->catalog()->ProjectionsForTable("t")) {
      Rows& rows = out[proj.name];
      for (const Row& r : oracle) {
        std::vector<int64_t> row;
        for (const auto& pc : proj.columns) row.push_back(r[pc.table_column]);
        rows.insert(std::move(row));
      }
    }
    return out;
  }

  void Run(int statements) {
    LoadRows(120);
    ASSERT_TRUE(db_->RunTupleMover().ok());
    LoadRows(60);
    for (int i = 0; i < statements; ++i) {
      std::function<bool(const Row&)> match;
      std::string where = RandomWhere(&match);
      std::vector<Row> before = oracle_;
      std::vector<Row> kept, hit;
      for (const Row& r : oracle_) (match(r) ? hit : kept).push_back(r);
      Epoch e0 = db_->cluster()->epochs()->LatestQueryableEpoch();
      uint64_t affected = 0;
      bool update = rng_.Range(0, 2) == 0;
      std::string sql;
      if (update) {
        int64_t w = Maybe(19);
        sql = "UPDATE t SET w = " + Sql(w) + " WHERE " + where;
        for (Row& r : hit) r[2] = w;
        kept.insert(kept.end(), hit.begin(), hit.end());
      } else {
        sql = "DELETE FROM t WHERE " + where;
      }
      SCOPED_TRACE(sql);
      Exec(sql, &affected);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(affected, hit.size());
      oracle_ = kept;
      Epoch now = db_->cluster()->epochs()->LatestQueryableEpoch();
      EXPECT_EQ(ReadCopies(now, false), Expected(oracle_));
      if (!update) {
        // History read at the epoch before the DELETE: its rows are live.
        EXPECT_EQ(ReadCopies(e0, true), Expected(before));
        EXPECT_EQ(ReadCopies(e0, false), Expected(before));
      }
      if (rng_.Range(0, 2) == 0) LoadRows(static_cast<int>(rng_.Range(5, 40)));
      if (rng_.Range(0, 1) == 0) ASSERT_TRUE(db_->RunTupleMover().ok());
    }
    auto count = db_->Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().At(0, 0).i64(), static_cast<int64_t>(oracle_.size()));
  }

 private:
  Rng rng_;
  std::unique_ptr<Database> db_;
  std::vector<Row> oracle_;
  int64_t next_k_ = 0;
};

TEST(DmlDifferentialTest, SingleNode) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    DmlDifferential(1, 0, seed).Run(30);
  }
}

TEST(DmlDifferentialTest, FourNodesKSafe) {
  for (uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE(seed);
    DmlDifferential(4, 1, seed).Run(30);
  }
}

}  // namespace
}  // namespace stratica
