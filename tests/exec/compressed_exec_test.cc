// Compressed-execution differential sweep (DESIGN.md §13): every query
// shape (predicate, aggregate, group-by, order-by, having) runs twice over
// the same rows — once against a projection that pins each column to a
// specific encoding (RLE, BlockDict, Delta, plain), and once against a
// twin table whose only projection is all PLAIN, so nothing can run
// encoded there and every operator sees flat vectors. Results must match
// cell for cell, queries expected to ride an encoded fast path must report
// rows_processed_encoded > 0, and the twin must report none.
//
// A second table pair repeats the sweep with NULLs sprinkled through every
// nullable column.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "api/database.h"
#include "exec/scan.h"
#include "storage/sort_util.h"

namespace stratica {
namespace {

// One query shape of the sweep. `expect_encoded` marks shapes that must
// touch an RLE/dict fast path on the encoded table (predicate on an RLE
// or sorted-dict column, group-by on a dict or RLE key, global aggregate
// over encoded inputs). `expect_encoded_nulls` is the same expectation for
// the NULL-bearing table: RLE blocks with NULLs decode flat (the stored
// null section is row-parallel), so only the NOT NULL RLE column and the
// dict paths still count there.
struct SweepQuery {
  const char* sql;  // %s is the table name
  bool expect_encoded;
  bool expect_encoded_nulls;
};

const SweepQuery kSweep[] = {
    {"SELECT COUNT(*) FROM %s", false, false},
    {"SELECT COUNT(*) FROM %s WHERE k2 = 1", true, true},
    {"SELECT SUM(v), COUNT(v), MIN(v), MAX(v) FROM %s WHERE k16 < 8", true,
     false},
    {"SELECT AVG(f), MIN(f), MAX(f) FROM %s", false, false},
    {"SELECT s, COUNT(*) AS n FROM %s GROUP BY s ORDER BY s", true, true},
    {"SELECT k16, SUM(v), MIN(f) FROM %s GROUP BY k16 ORDER BY k16", false,
     false},
    {"SELECT k2, k16, COUNT(*) FROM %s GROUP BY k2, k16 ORDER BY k2, k16",
     false, false},
    {"SELECT id, v FROM %s WHERE s = 'x3' ORDER BY id", true, true},
    {"SELECT s, SUM(v) AS sv FROM %s WHERE k2 = 0 GROUP BY s "
     "HAVING SUM(v) > 100 ORDER BY s",
     true, true},
    {"SELECT COUNT(DISTINCT k16) FROM %s", false, false},
    {"SELECT id, f FROM %s WHERE v >= 100 AND v <= 200 ORDER BY id", false,
     false},
    {"SELECT k16, COUNT(*) FROM %s WHERE s > 'x3' GROUP BY k16 ORDER BY k16",
     true, true},
    {"SELECT MIN(s), MAX(s) FROM %s WHERE k16 = 5", true, false},
    {"SELECT k2, AVG(f) FROM %s GROUP BY k2 ORDER BY k2", false, false},
};

std::string Format(const char* tpl, const std::string& table) {
  std::string s(tpl);
  size_t pos = s.find("%s");
  s.replace(pos, 2, table);
  return s;
}

class CompressedExecFixture : public ::testing::Test {
 protected:
  CompressedExecFixture() {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.k_safety = 0;
    db_ = std::make_unique<Database>(opts);
    for (bool plain : {false, true}) {
      MakeTable("t", /*with_nulls=*/false, plain);
      MakeTable("tn", /*with_nulls=*/true, plain);
    }
    EXPECT_TRUE(db_->RunTupleMover().ok());
  }

  static std::string PlainTwin(const std::string& name) { return name + "_plain"; }

  // Column encodings are pinned so every sweep shape exercises a known
  // representation: k2/k16 RLE (they lead the sort order), s BlockDict,
  // v delta, f/id plain. The `plain` twin holds the same rows with every
  // column kPlain — the decode-first oracle.
  void MakeTable(const std::string& base, bool with_nulls, bool plain) {
    std::string name = plain ? PlainTwin(base) : base;
    TableDef t;
    t.name = name;
    t.columns = {{"k2", TypeId::kInt64, false}, {"k16", TypeId::kInt64, true},
                 {"s", TypeId::kString, true},  {"v", TypeId::kInt64, true},
                 {"f", TypeId::kFloat64, true}, {"id", TypeId::kInt64, false}};
    ProjectionDef p;
    p.name = name + "_super";
    p.anchor_table = name;
    p.columns = {{"k2", -1, EncodingId::kRle},
                 {"k16", -1, EncodingId::kRle},
                 {"s", -1, EncodingId::kBlockDict},
                 {"v", -1, EncodingId::kDeltaValue},
                 {"f", -1, EncodingId::kPlain},
                 {"id", -1, EncodingId::kPlain}};
    if (plain) {
      for (auto& c : p.columns) c.encoding = EncodingId::kPlain;
    }
    p.sort_columns = {0, 1};
    p.is_super = true;
    p.segmentation.expr = Func(FuncKind::kHash, {Col("id")});
    ASSERT_TRUE(db_->catalog()->CreateTable(std::move(t)).ok());
    ASSERT_TRUE(db_->cluster()->CreateProjectionWithBuddies(p).ok());

    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kString,
                   TypeId::kInt64, TypeId::kFloat64, TypeId::kInt64});
    for (int i = 0; i < 3000; ++i) {
      rows.columns[0].ints.push_back(i % 2);
      rows.columns[1].ints.push_back(i % 16);
      rows.columns[2].strings.push_back("x" + std::to_string(i % 8));
      rows.columns[3].ints.push_back(i);
      // Quarters are exact in double, so sums are order-independent and
      // both execution modes produce bit-identical aggregates.
      rows.columns[4].doubles.push_back((i % 97) * 0.25);
      rows.columns[5].ints.push_back(i);
      if (with_nulls) {
        for (size_t c = 1; c <= 4; ++c) {
          rows.columns[c].nulls.resize(i + 1, 0);
        }
        if (i % 7 == 0) rows.columns[1].nulls[i] = 1;
        if (i % 11 == 0) rows.columns[2].nulls[i] = 1;
        if (i % 13 == 0) rows.columns[3].nulls[i] = 1;
        if (i % 5 == 0) rows.columns[4].nulls[i] = 1;
      }
    }
    ASSERT_TRUE(db_->Load(name, rows).ok());
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  uint64_t EncodedRows() const { return db_->stats()->rows_processed_encoded.load(); }

  static void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                                const std::string& sql) {
    ASSERT_EQ(a.column_types, b.column_types) << sql;
    ASSERT_EQ(a.NumRows(), b.NumRows()) << sql;
    for (size_t r = 0; r < a.NumRows(); ++r) {
      for (size_t c = 0; c < a.column_types.size(); ++c) {
        Value va = a.At(r, c);
        Value vb = b.At(r, c);
        EXPECT_EQ(va.is_null(), vb.is_null())
            << sql << " row " << r << " col " << c;
        EXPECT_TRUE(va == vb) << sql << " row " << r << " col " << c << ": "
                              << va.ToString() << " vs " << vb.ToString();
      }
    }
  }

  void SweepTable(const std::string& table, bool nullable) {
    for (const SweepQuery& q : kSweep) {
      std::string sql = Format(q.sql, table);
      uint64_t before = EncodedRows();
      QueryResult encoded = Run(sql);
      uint64_t delta = EncodedRows() - before;
      std::string plain_sql = Format(q.sql, PlainTwin(table));
      before = EncodedRows();
      QueryResult decoded = Run(plain_sql);
      EXPECT_EQ(EncodedRows(), before) << plain_sql << " ran encoded";
      ExpectSameResults(encoded, decoded, sql);
      if (nullable ? q.expect_encoded_nulls : q.expect_encoded) {
        EXPECT_GT(delta, 0u) << sql << " did not hit an encoded fast path";
      }
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CompressedExecFixture, DifferentialSweepDense) {
  SweepTable("t", /*nullable=*/false);
}

TEST_F(CompressedExecFixture, DifferentialSweepWithNulls) {
  SweepTable("tn", /*nullable=*/true);
}

// The decode-elision counter must move for an encoded aggregate scan: the
// planner marks single-table aggregate queries encoded_output, so RLE and
// dict blocks flow into the operators without expansion.
TEST_F(CompressedExecFixture, DecodeElisionCounterMoves) {
  uint64_t before = db_->stats()->decode_elided_bytes.load();
  Run("SELECT s, COUNT(*) FROM t WHERE k2 = 1 GROUP BY s ORDER BY s");
  EXPECT_GT(db_->stats()->decode_elided_bytes.load(), before);
}

// Order-carrying scans (sort elimination over the projection's sort
// prefix) cannot ride the morsel path; when the scan otherwise reads
// enough rows for fan-out, the plan must record the bypass instead of
// silently running serial (DESIGN.md §12). Needs its own database: the
// fan-out gate requires >= 65536 rows read per scan unit before the bypass
// (rather than the scan being simply too small) is the reason to go
// serial.
TEST(MorselBypassTest, OrderCarryingScanRecordsBypass) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
  opts.local_segments_per_node = 1;
  Database db(opts);
  auto r = db.Execute("CREATE TABLE big (a INT NOT NULL, b INT NOT NULL)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  RowBlock rows({TypeId::kInt64, TypeId::kInt64});
  constexpr int kRows = 80000;
  for (int i = 0; i < kRows; ++i) {
    rows.columns[0].ints.push_back(i / 8);
    rows.columns[1].ints.push_back(i);
  }
  ASSERT_TRUE(db.Load("big", rows).ok());
  ASSERT_TRUE(db.RunTupleMover().ok());

  uint64_t before = db.stats()->morsel_bypasses.load();
  auto q = db.Execute("SELECT a, b FROM big ORDER BY a, b");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().NumRows(), static_cast<size_t>(kRows));
  EXPECT_GT(db.stats()->morsel_bypasses.load(), before);
  // Sort elimination dropped the Sort operator; the scan itself must
  // deliver the order.
  const RowBlock& out = q.value().rows;
  for (size_t r = 0; r < static_cast<size_t>(kRows); ++r) {
    ASSERT_EQ(out.columns[0].GetValue(r).i64(), static_cast<int64_t>(r / 8));
    ASSERT_EQ(out.columns[1].GetValue(r).i64(), static_cast<int64_t>(r));
  }
}

// Sorted-dictionary sort keys: a dict-coded block sorts by codes without
// materializing values; the permutation must match a std::stable_sort over
// the row comparator exactly, ties included.
TEST(CompressedSortTest, SortedDictPermutationMatchesComparator) {
  // Build a dict-coded string column by hand: sorted dict, shuffled codes.
  ColumnVector col(TypeId::kString);
  auto dict = std::make_shared<ColumnVector>(TypeId::kString);
  for (int i = 0; i < 26; ++i) dict->strings.push_back(std::string(1, 'a' + i));
  col.dict = dict;
  col.dict_sorted = true;
  for (int i = 0; i < 997; ++i) col.ints.push_back((i * 31 + 7) % 26);
  col.nulls.resize(997, 0);
  for (int i = 0; i < 997; i += 9) col.nulls[i] = 1;

  RowBlock block({TypeId::kString, TypeId::kInt64});
  block.columns[0] = col;
  for (int i = 0; i < 997; ++i) block.columns[1].ints.push_back(i);

  std::vector<SortKey> keys = {{0, false}, {1, true}};
  std::vector<uint32_t> oracle(block.NumRows());
  std::iota(oracle.begin(), oracle.end(), 0);
  std::stable_sort(oracle.begin(), oracle.end(), [&](uint32_t a, uint32_t b) {
    return CompareRowsDirected(block, a, block, b, keys) < 0;
  });
  EXPECT_EQ(ComputeSortPermutationDirected(block, keys), oracle);
}

}  // namespace
}  // namespace stratica
