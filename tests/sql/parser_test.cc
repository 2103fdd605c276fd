// SQL parser coverage: every statement kind plus precedence/edge cases.
#include "sql/parser.h"

#include <gtest/gtest.h>

namespace stratica {
namespace {

SelectStmt ParseSelect(const std::string& sql) {
  auto stmt = ParseSql(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  EXPECT_EQ(stmt.value().type, Statement::Type::kSelect);
  return stmt.value().select;
}

TEST(ParserTest, SelectBasics) {
  auto s = ParseSelect("SELECT a, b AS bee, COUNT(*) n FROM t WHERE a > 5 "
                       "GROUP BY a, b ORDER BY a DESC LIMIT 10 OFFSET 2");
  EXPECT_EQ(s.items.size(), 3u);
  EXPECT_EQ(s.items[1].alias, "bee");
  EXPECT_EQ(s.items[2].kind, SelectItem::Kind::kAgg);
  EXPECT_EQ(s.items[2].agg.kind, AggKind::kCountStar);
  EXPECT_EQ(s.group_by.size(), 2u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].second);  // DESC
  EXPECT_EQ(s.limit, 10);
  EXPECT_EQ(s.offset, 2);
}

TEST(ParserTest, JoinVariants) {
  auto s = ParseSelect(
      "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.y = c.z");
  ASSERT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.from[1].join_type, JoinType::kInner);
  EXPECT_EQ(s.from[2].join_type, JoinType::kLeft);
  ASSERT_NE(s.from[2].on, nullptr);

  auto comma = ParseSelect("SELECT * FROM a, b WHERE a.x = b.y");
  EXPECT_EQ(comma.from.size(), 2u);
  EXPECT_EQ(comma.from[1].join_type, JoinType::kInner);
  EXPECT_EQ(comma.from[1].on, nullptr);  // predicate lives in WHERE
}

TEST(ParserTest, ExpressionPrecedenceAndOperators) {
  auto s = ParseSelect("SELECT a FROM t WHERE a + 2 * 3 = 7 AND NOT b < 1 OR c "
                       "BETWEEN 2 AND 4");
  ASSERT_NE(s.where, nullptr);
  // ((a + (2*3)) = 7 AND NOT(b<1)) OR (c>=2 AND c<=4)
  EXPECT_EQ(s.where->logic, LogicalOp::kOr);
  auto in = ParseSelect("SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)");
  EXPECT_NE(in.where, nullptr);
  auto like = ParseSelect("SELECT a FROM t WHERE s LIKE 'ab%' AND x IS NOT NULL");
  EXPECT_NE(like.where, nullptr);
}

TEST(ParserTest, DateLiteralVersusDateColumn) {
  auto lit = ParseSelect("SELECT a FROM t WHERE d > DATE '2012-08-21'");
  EXPECT_NE(lit.where, nullptr);
  EXPECT_EQ(lit.where->children[1]->literal.type(), TypeId::kDate);
  // A column named `date` still parses as a column reference.
  auto col = ParseSelect("SELECT date FROM t WHERE date > d2");
  EXPECT_EQ(col.items[0].expr->column_name, "date");
}

TEST(ParserTest, AggregatesAndHaving) {
  auto s = ParseSelect("SELECT g, SUM(x), AVG(y), COUNT(DISTINCT z) FROM t "
                       "GROUP BY g HAVING COUNT(*) > 5 AND SUM(x) >= 100");
  EXPECT_EQ(s.items[1].agg.kind, AggKind::kSum);
  EXPECT_EQ(s.items[3].agg.kind, AggKind::kCountDistinct);
  ASSERT_EQ(s.having_aggs.size(), 2u);
  EXPECT_EQ(s.having_aggs[0].kind, AggKind::kCountStar);
  EXPECT_NE(s.having, nullptr);
}

TEST(ParserTest, WindowFunctions) {
  auto s = ParseSelect("SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY x DESC) rn, "
                       "SUM(v) OVER (PARTITION BY g ORDER BY x) run FROM t");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].kind, SelectItem::Kind::kWindow);
  EXPECT_EQ(s.items[0].window.func, WindowFunc::kRowNumber);
  ASSERT_EQ(s.items[0].window.order_by.size(), 1u);
  EXPECT_TRUE(s.items[0].window.order_by[0].second);
  EXPECT_EQ(s.items[1].window.func, WindowFunc::kSum);
}

TEST(ParserTest, CreateTableWithPartition) {
  auto stmt = ParseSql("CREATE TABLE t (a INT NOT NULL, b VARCHAR(80), d DATE) "
                       "PARTITION BY YEAR_MONTH(d)");
  ASSERT_TRUE(stmt.ok());
  const auto& def = stmt.value().create_table.def;
  EXPECT_EQ(def.columns.size(), 3u);
  EXPECT_FALSE(def.columns[0].nullable);
  EXPECT_EQ(def.columns[1].type, TypeId::kString);
  ASSERT_NE(def.partition_by, nullptr);
}

TEST(ParserTest, CreateProjectionFull) {
  auto stmt = ParseSql(
      "CREATE PROJECTION p (a ENCODING RLE, b, c) AS "
      "SELECT a, b, c FROM t ORDER BY a, b SEGMENTED BY HASH(a) KSAFE 1");
  ASSERT_TRUE(stmt.ok());
  const auto& def = stmt.value().create_projection.def;
  EXPECT_EQ(def.columns.size(), 3u);
  EXPECT_EQ(def.columns[0].encoding, EncodingId::kRle);
  EXPECT_EQ(def.sort_columns.size(), 2u);
  EXPECT_FALSE(def.segmentation.replicated);
  EXPECT_EQ(stmt.value().create_projection.k_safe, 1u);

  auto unseg = ParseSql("CREATE PROJECTION q (a) AS SELECT a FROM t UNSEGMENTED "
                        "ALL NODES");
  ASSERT_TRUE(unseg.ok());
  EXPECT_TRUE(unseg.value().create_projection.def.segmentation.replicated);
}

TEST(ParserTest, DmlStatements) {
  auto ins = ParseSql("INSERT INTO t VALUES (1, 'x', 2.5), (2, NULL, -3)");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().insert.rows.size(), 2u);
  auto del = ParseSql("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(del.value().del.where, nullptr);
  auto upd = ParseSql("UPDATE t SET a = a + 1, b = 'z' WHERE c > 0");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().update.assignments.size(), 2u);
  auto copy = ParseSql("COPY t FROM '/tmp/x.csv' DELIMITER '|' DIRECT");
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value().copy.delimiter, '|');
  EXPECT_TRUE(copy.value().copy.direct);
}

TEST(ParserTest, ExplainAndErrors) {
  auto ex = ParseSql("EXPLAIN SELECT 1 FROM t");
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex.value().type, Statement::Type::kExplain);

  EXPECT_FALSE(ParseSql("SELEKT x FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a IN (b)").ok());  // non-literal
  EXPECT_FALSE(ParseSql("SELECT a FROM t extra garbage !!!").ok());
  EXPECT_FALSE(ParseSql("").ok());
}

}  // namespace
}  // namespace stratica
