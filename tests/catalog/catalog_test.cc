// Catalog DDL semantics and snapshot persistence (Sections 3.1-3.2, 5.3).
#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "expr/serialize.h"

namespace stratica {
namespace {

TableDef Sales() {
  TableDef t;
  t.name = "sales";
  t.columns = {{"id", TypeId::kInt64, false},
               {"d", TypeId::kDate, true},
               {"price", TypeId::kFloat64, true}};
  t.partition_by = Func(FuncKind::kYearMonth, {Col("d")});
  return t;
}

ProjectionDef Super() {
  ProjectionDef p;
  p.name = "sales_super";
  p.anchor_table = "sales";
  p.columns = {{"d", -1, EncodingId::kRle},
               {"id", -1, EncodingId::kAuto},
               {"price", -1, EncodingId::kAuto}};
  p.sort_columns = {0, 1};
  p.segmentation.expr = Func(FuncKind::kHash, {Col("id")});
  return p;
}

TEST(CatalogTest, CreateTableValidatesAndBindsPartition) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  auto stored = catalog.GetTable("sales");
  ASSERT_TRUE(stored.ok());
  ASSERT_NE(stored.value().partition_by, nullptr);
  EXPECT_EQ(stored.value().partition_by->children[0]->column_index, 1);

  EXPECT_EQ(catalog.CreateTable(Sales()).code(), StatusCode::kAlreadyExists);
  TableDef dup;
  dup.name = "dup";
  dup.columns = {{"a", TypeId::kInt64, true}, {"a", TypeId::kInt64, true}};
  EXPECT_FALSE(catalog.CreateTable(dup).ok());
  TableDef bad_part = Sales();
  bad_part.name = "bad";
  bad_part.partition_by = Col("nope");
  EXPECT_FALSE(catalog.CreateTable(bad_part).ok());
}

TEST(CatalogTest, ProjectionValidationAndSuperDetection) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  ASSERT_TRUE(catalog.CreateProjection(Super()).ok());
  auto stored = catalog.GetProjection("sales_super");
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(stored.value().is_super);  // covers all 3 columns
  EXPECT_EQ(stored.value().columns[0].table_column, 1);  // d

  ProjectionDef narrow = Super();
  narrow.name = "sales_narrow";
  narrow.columns = {{"price", -1, EncodingId::kAuto}};
  narrow.sort_columns = {0};
  narrow.segmentation.expr = Func(FuncKind::kHash, {Col("price")});
  ASSERT_TRUE(catalog.CreateProjection(narrow).ok());
  EXPECT_FALSE(catalog.GetProjection("sales_narrow").value().is_super);

  ProjectionDef bad = Super();
  bad.name = "bad";
  bad.columns[0].name = "missing";
  EXPECT_FALSE(catalog.CreateProjection(bad).ok());
  ProjectionDef bad_enc = Super();
  bad_enc.name = "bad_enc";
  bad_enc.columns[2].encoding = EncodingId::kCompressedCommonDelta;  // float col
  EXPECT_FALSE(catalog.CreateProjection(bad_enc).ok());
}

TEST(CatalogTest, LastSuperProjectionCannotBeDropped) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  ASSERT_TRUE(catalog.CreateProjection(Super()).ok());
  // The paper: "at least one super projection containing every column of
  // the anchoring table" (Section 3.2).
  EXPECT_FALSE(catalog.DropProjection("sales_super").ok());
  ProjectionDef second = Super();
  second.name = "sales_super2";
  ASSERT_TRUE(catalog.CreateProjection(second).ok());
  EXPECT_TRUE(catalog.DropProjection("sales_super").ok());
  EXPECT_FALSE(catalog.DropProjection("sales_super2").ok());
}

TEST(CatalogTest, SnapshotPersistenceRoundTrip) {
  MemFileSystem fs;
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  ASSERT_TRUE(catalog.CreateProjection(Super()).ok());
  ProjectionDef buddy = MakeBuddyProjection(Super(), 1);
  ASSERT_TRUE(catalog.CreateProjection(buddy).ok());
  uint64_t version = catalog.version();
  ASSERT_TRUE(catalog.Save(&fs, "catalog/snapshot").ok());

  Catalog restored;
  ASSERT_TRUE(restored.Load(&fs, "catalog/snapshot").ok());
  EXPECT_EQ(restored.version(), version);
  auto table = restored.GetTable("sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().columns.size(), 3u);
  ASSERT_NE(table.value().partition_by, nullptr);
  EXPECT_EQ(table.value().partition_by->ToString(),
            Func(FuncKind::kYearMonth, {Col("d")})->ToString());
  auto proj = restored.GetProjection("sales_super_b1");
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().buddy_of, "sales_super");
  EXPECT_EQ(proj.value().segmentation.node_offset, 1u);
  EXPECT_EQ(proj.value().columns[0].encoding, EncodingId::kRle);
  // Rebinding happened on load.
  EXPECT_GE(proj.value().segmentation.expr->children[0]->column_index, 0);
}

// Every projection column is a column of its anchor table. A snapshot
// holding a prejoin projection (a dimension column with no table index and
// its `prejoin` record) fails to load loudly rather than dropping the join.
TEST(CatalogTest, SnapshotWithPrejoinRecordIsCorrupt) {
  MemFileSystem fs;
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  ASSERT_TRUE(catalog.CreateProjection(Super()).ok());
  ASSERT_TRUE(catalog.Save(&fs, "catalog/snapshot").ok());
  std::string text = ReadFileChecksummed(&fs, "catalog/snapshot").value();
  ASSERT_EQ(text.back(), '\n');
  const std::string dim_column = "pcolumn\tcustomers.region\t-1\t0\n";

  ASSERT_TRUE(WriteFileChecksummed(&fs, "catalog/prejoin",
                                   text + dim_column + "prejoin\tcustomers\tid\tcust_id\n")
                  .ok());
  Catalog restored;
  Status st = restored.Load(&fs, "catalog/prejoin");
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("unknown catalog record: prejoin"), std::string::npos)
      << st.ToString();

  // Without the record, the unresolved column alone is rejected too.
  ASSERT_TRUE(WriteFileChecksummed(&fs, "catalog/dim_column", text + dim_column).ok());
  st = restored.Load(&fs, "catalog/dim_column");
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("customers.region"), std::string::npos) << st.ToString();
}

TEST(CatalogTest, DropTableCascadesProjections) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Sales()).ok());
  ASSERT_TRUE(catalog.CreateProjection(Super()).ok());
  ASSERT_TRUE(catalog.DropTable("sales").ok());
  EXPECT_FALSE(catalog.GetProjection("sales_super").ok());
  EXPECT_TRUE(catalog.ProjectionNames().empty());
}

TEST(CatalogTest, ExprSerializationRoundTripsEveryKind) {
  auto exprs = {
      Cmp(CompareOp::kLe, Col("a"), Lit(Value::Int64(5))),
      And(IsNull(Col("b"), true), Like(Col("s"), "x%_y")),
      InList(Col("a"), {Value::Int64(1), Value::String("two")}, true),
      Arith(ArithOp::kMod, Func(FuncKind::kHash, {Col("a"), Col("b")}),
            Lit(Value::Float64(2.5))),
  };
  for (const auto& e : exprs) {
    auto parsed = ParseSerializedExpr(SerializeExpr(*e));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value()->ToString(), e->ToString());
  }
}

}  // namespace
}  // namespace stratica
