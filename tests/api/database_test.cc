// End-to-end SQL tests on a 3-node K=1 simulated cluster.
#include "api/database.h"

#include <gtest/gtest.h>

namespace stratica {
namespace {

class DatabaseFixture : public ::testing::Test {
 protected:
  DatabaseFixture() {
    DatabaseOptions opts;
    opts.num_nodes = 3;
    opts.k_safety = 1;
    db_ = std::make_unique<Database>(opts);
    Exec("CREATE TABLE sales (id INT NOT NULL, cust INT, region VARCHAR, "
         "amount FLOAT, d DATE) PARTITION BY YEAR_MONTH(d)");
    Exec("CREATE TABLE customers (cust_id INT NOT NULL, name VARCHAR, tier INT)");
    // Deterministic data.
    RowBlock sales({TypeId::kInt64, TypeId::kInt64, TypeId::kString,
                    TypeId::kFloat64, TypeId::kDate});
    const char* regions[] = {"east", "west", "north"};
    for (int i = 0; i < 3000; ++i) {
      sales.columns[0].ints.push_back(i);
      sales.columns[1].ints.push_back(i % 100);
      sales.columns[2].strings.push_back(regions[i % 3]);
      sales.columns[3].doubles.push_back((i % 7) * 1.5);
      sales.columns[4].ints.push_back(MakeDate(2012, 1 + (i % 6), 1 + (i % 28)));
    }
    EXPECT_TRUE(db_->Load("sales", sales).ok());
    RowBlock cust({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < 100; ++i) {
      cust.columns[0].ints.push_back(i);
      cust.columns[1].strings.push_back("c" + std::to_string(i));
      cust.columns[2].ints.push_back(i % 4);
    }
    EXPECT_TRUE(db_->Load("customers", cust).ok());
    EXPECT_TRUE(db_->RunTupleMover().ok());
  }

  QueryResult Exec(const std::string& sql) {
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseFixture, CountStar) {
  auto r = Exec("SELECT COUNT(*) FROM sales");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.At(0, 0).i64(), 3000);
}

TEST_F(DatabaseFixture, FilterAndProject) {
  auto r = Exec("SELECT id, amount FROM sales WHERE cust = 42 ORDER BY id");
  ASSERT_EQ(r.NumRows(), 30u);
  EXPECT_EQ(r.At(0, 0).i64(), 42);
  EXPECT_EQ(r.At(1, 0).i64(), 142);
}

TEST_F(DatabaseFixture, GroupByWithHaving) {
  auto r = Exec(
      "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales "
      "GROUP BY region HAVING COUNT(*) > 10 ORDER BY region");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.At(0, 0).str(), "east");
  EXPECT_EQ(r.At(0, 1).i64(), 1000);
  int64_t total_n = r.At(0, 1).i64() + r.At(1, 1).i64() + r.At(2, 1).i64();
  EXPECT_EQ(total_n, 3000);
}

TEST_F(DatabaseFixture, DistributedJoinWithDimension) {
  auto r = Exec(
      "SELECT c.tier, COUNT(*) AS n FROM sales s JOIN customers c "
      "ON s.cust = c.cust_id GROUP BY c.tier ORDER BY c.tier");
  ASSERT_EQ(r.NumRows(), 4u);
  int64_t total = 0;
  for (size_t i = 0; i < 4; ++i) total += r.At(i, 1).i64();
  EXPECT_EQ(total, 3000);
}

TEST_F(DatabaseFixture, CountDistinct) {
  auto r = Exec("SELECT COUNT(DISTINCT cust) FROM sales");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.At(0, 0).i64(), 100);
}

TEST_F(DatabaseFixture, AvgMinMax) {
  auto r = Exec("SELECT AVG(amount), MIN(amount), MAX(amount) FROM sales");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_NEAR(r.At(0, 0).f64(), 4.5, 0.01);  // avg of (0..6)*1.5
  EXPECT_DOUBLE_EQ(r.At(0, 1).f64(), 0.0);
  EXPECT_DOUBLE_EQ(r.At(0, 2).f64(), 9.0);
}

TEST_F(DatabaseFixture, DateFunctionsAndBetween) {
  auto r = Exec(
      "SELECT COUNT(*) FROM sales WHERE d BETWEEN DATE '2012-02-01' AND "
      "DATE '2012-03-31'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_GT(r.At(0, 0).i64(), 0);
  EXPECT_LT(r.At(0, 0).i64(), 3000);
}

TEST_F(DatabaseFixture, LimitAndOffset) {
  auto r = Exec("SELECT id FROM sales ORDER BY id LIMIT 5 OFFSET 10");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.At(0, 0).i64(), 10);
  EXPECT_EQ(r.At(4, 0).i64(), 14);
}

TEST_F(DatabaseFixture, DistinctRegions) {
  auto r = Exec("SELECT DISTINCT region FROM sales ORDER BY region");
  ASSERT_EQ(r.NumRows(), 3u);
}

TEST_F(DatabaseFixture, DeleteThenCount) {
  auto del = Exec("DELETE FROM sales WHERE cust = 5");
  EXPECT_EQ(del.affected_rows, 30u);
  auto r = Exec("SELECT COUNT(*) FROM sales");
  EXPECT_EQ(r.At(0, 0).i64(), 2970);
  // Deleted rows survive for historical queries until the AHM passes; the
  // tuple mover purges after.
  ASSERT_TRUE(db_->AdvanceAhm().ok());
  ASSERT_TRUE(db_->RunTupleMover().ok());
  r = Exec("SELECT COUNT(*) FROM sales");
  EXPECT_EQ(r.At(0, 0).i64(), 2970);
}

TEST_F(DatabaseFixture, UpdateIsDeletePlusInsert) {
  auto upd = Exec("UPDATE sales SET amount = 100.0 WHERE id = 7");
  EXPECT_EQ(upd.affected_rows, 1u);
  auto r = Exec("SELECT amount FROM sales WHERE id = 7");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.At(0, 0).f64(), 100.0);
  auto count = Exec("SELECT COUNT(*) FROM sales");
  EXPECT_EQ(count.At(0, 0).i64(), 3000);
}

TEST_F(DatabaseFixture, InsertValues) {
  Exec("INSERT INTO customers VALUES (1000, 'newbie', 9), (1001, 'other', 9)");
  auto r = Exec("SELECT COUNT(*) FROM customers WHERE tier = 9");
  EXPECT_EQ(r.At(0, 0).i64(), 2);
}

TEST_F(DatabaseFixture, WindowFunctions) {
  auto r = Exec(
      "SELECT cust, amount, ROW_NUMBER() OVER (PARTITION BY cust ORDER BY id) rn "
      "FROM sales WHERE cust < 2 ORDER BY cust, rn LIMIT 5");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.At(0, 2).i64(), 1);
  EXPECT_EQ(r.At(1, 2).i64(), 2);
}

TEST_F(DatabaseFixture, ExplainShowsSipAndJoin) {
  auto r = Exec(
      "EXPLAIN SELECT COUNT(*) FROM sales s JOIN customers c ON s.cust = c.cust_id "
      "WHERE c.tier = 1");
  EXPECT_NE(r.message.find("JoinHash"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("Scan"), std::string::npos) << r.message;
  // A serial plan's build has fan-out 1, which EXPLAIN does not mention.
  EXPECT_EQ(r.message.find("shared build"), std::string::npos) << r.message;
}

TEST_F(DatabaseFixture, QueriesSurviveNodeFailureViaBuddies) {
  auto before = Exec("SELECT COUNT(*), SUM(amount) FROM sales");
  ASSERT_TRUE(db_->cluster()->MarkNodeDown(1).ok());
  auto after = Exec("SELECT COUNT(*), SUM(amount) FROM sales");
  EXPECT_EQ(before.At(0, 0).i64(), after.At(0, 0).i64());
  EXPECT_DOUBLE_EQ(before.At(0, 1).f64(), after.At(0, 1).f64());
  // Restore for other tests.
  ASSERT_TRUE(db_->cluster()->RecoverNode(1).ok());
}

TEST_F(DatabaseFixture, TransitivePredicatePushdown) {
  // The literal predicate on s.cust transfers to c.cust_id via the join
  // equality; EXPLAIN shows both scans filtered.
  auto r = Exec(
      "EXPLAIN SELECT COUNT(*) FROM sales s JOIN customers c ON s.cust = c.cust_id "
      "WHERE s.cust = 10");
  size_t first = r.message.find("= 10");
  ASSERT_NE(first, std::string::npos) << r.message;
  size_t second = r.message.find("= 10", first + 1);
  EXPECT_NE(second, std::string::npos) << "transitive predicate missing:\n"
                                       << r.message;
}

TEST_F(DatabaseFixture, ErrorsAreCleanStatuses) {
  EXPECT_FALSE(db_->Execute("SELECT nope FROM sales").ok());
  EXPECT_FALSE(db_->Execute("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(db_->Execute("FROB the database").ok());
  EXPECT_FALSE(db_->Execute("SELECT region FROM sales GROUP BY cust").ok());
}

// A projection stores only its anchor table's rows: neither a column of
// another table nor a join in the defining SELECT is accepted, and the
// rejected statement leaves no catalog entry and no storage behind.
TEST_F(DatabaseFixture, CreateProjectionRejectsOtherTablesColumns) {
  const std::pair<std::string, std::string> cases[] = {
      {"CREATE PROJECTION p (id, customers.tier) AS SELECT id, tier FROM sales", "'.'"},
      {"CREATE PROJECTION p (id, cust) AS SELECT id, cust FROM sales "
       "JOIN customers ON sales.cust = customers.cust_id",
       "JOIN"},
  };
  for (const auto& [sql, near] : cases) {
    SCOPED_TRACE(sql);
    auto r = db_->Execute(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << r.status().ToString();
    EXPECT_NE(r.status().message().find(near), std::string::npos) << r.status().ToString();
    EXPECT_FALSE(db_->catalog()->GetProjection("p").ok());
    EXPECT_EQ(db_->catalog()->ProjectionsForTable("sales").size(), 2u);  // super + buddy
    for (uint32_t n = 0; n < db_->cluster()->num_nodes(); ++n) {
      EXPECT_EQ(db_->cluster()->node(n)->GetStorage("p"), nullptr);
      EXPECT_EQ(db_->cluster()->node(n)->GetStorage("p_b1"), nullptr);
    }
  }
}

}  // namespace
}  // namespace stratica
