// Tests for the flat open-addressing hash subsystem: the FlatHashTable /
// FlatHashSet structures themselves (including forced full-hash collisions
// and growth), the batched hashing entry points, and the operators that sit
// on top of them — NULL group keys, the group-by externalize path, and hash
// joins with NULL join keys.
#include "exec/hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/fs.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

// ---------------------------------------------------------------------------
// FlatHashTable structure tests

TEST(FlatHashTable, ProbeMissOnEmpty) {
  FlatHashTable t;
  EXPECT_EQ(t.Probe(0), FlatHashTable::kNone);
  EXPECT_EQ(t.Probe(12345), FlatHashTable::kNone);
  EXPECT_EQ(t.NumEntries(), 0u);
}

TEST(FlatHashTable, InsertProbeGrowth) {
  FlatHashTable t;
  constexpr uint32_t kN = 10000;
  for (uint32_t i = 0; i < kN; ++i) {
    uint32_t id = t.Insert(Mix64(i));
    EXPECT_EQ(id, i);  // dense ids in insertion order
  }
  EXPECT_EQ(t.NumEntries(), kN);
  for (uint32_t i = 0; i < kN; ++i) {
    uint32_t head = t.Probe(Mix64(i));
    ASSERT_NE(head, FlatHashTable::kNone) << i;
    EXPECT_EQ(head, i);
    EXPECT_EQ(t.Next(head), FlatHashTable::kNone);  // no accidental chains
  }
  EXPECT_EQ(t.Probe(Mix64(kN + 1)), FlatHashTable::kNone);
}

TEST(FlatHashTable, EqualHashesChainAllPayloads) {
  // Forced full-64-bit-hash collisions: every payload must be reachable by
  // walking the chain, across growth rehashes.
  FlatHashTable t;
  constexpr uint64_t kHashA = 0xdeadbeefcafef00dULL;
  constexpr uint64_t kHashB = 0x0123456789abcdefULL;
  std::vector<uint32_t> a_ids, b_ids;
  for (int i = 0; i < 500; ++i) {
    a_ids.push_back(t.Insert(kHashA));
    b_ids.push_back(t.Insert(kHashB));
  }
  // Force several rehashes with unrelated keys.
  for (uint64_t i = 0; i < 5000; ++i) t.Insert(Mix64(1000000 + i));

  for (uint64_t h : {kHashA, kHashB}) {
    std::set<uint32_t> seen;
    for (uint32_t e = t.Probe(h); e != FlatHashTable::kNone; e = t.Next(e)) {
      EXPECT_TRUE(seen.insert(e).second) << "chain revisited entry " << e;
    }
    const auto& want = (h == kHashA) ? a_ids : b_ids;
    EXPECT_EQ(seen.size(), want.size());
    for (uint32_t id : want) EXPECT_TRUE(seen.count(id));
  }
}

TEST(FlatHashTable, ProbeBatchMatchesScalarProbe) {
  FlatHashTable t;
  Rng rng(7);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 3000; ++i) {
    inserted.push_back(Mix64(rng.Uniform(2000)));  // plenty of duplicates
    t.Insert(inserted.back());
  }
  std::vector<uint64_t> queries;
  for (int i = 0; i < 4096; ++i) queries.push_back(Mix64(rng.Uniform(4000)));
  std::vector<uint32_t> heads(queries.size());
  t.ProbeBatch(queries.data(), queries.size(), heads.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(heads[i], t.Probe(queries[i])) << i;
  }
}

TEST(FlatHashTable, ClearKeepsDirectoryUsable) {
  FlatHashTable t;
  for (uint64_t i = 0; i < 100; ++i) t.Insert(Mix64(i));
  t.Clear();
  EXPECT_EQ(t.NumEntries(), 0u);
  EXPECT_EQ(t.Probe(Mix64(1)), FlatHashTable::kNone);
  EXPECT_EQ(t.Insert(Mix64(1)), 0u);
  EXPECT_EQ(t.Probe(Mix64(1)), 0u);
}

// ---------------------------------------------------------------------------
// FlatHashSet structure tests

TEST(FlatHashSet, InsertContainsGrowthAndZero) {
  FlatHashSet s;
  EXPECT_FALSE(s.Contains(0));
  s.Insert(0);  // 0 is the empty-slot sentinel, tracked out of band
  EXPECT_TRUE(s.Contains(0));
  for (uint64_t i = 1; i <= 20000; ++i) s.Insert(Mix64(i));
  EXPECT_EQ(s.Size(), 20001u);
  for (uint64_t i = 1; i <= 20000; ++i) ASSERT_TRUE(s.Contains(Mix64(i))) << i;
  EXPECT_FALSE(s.Contains(Mix64(99999)));

  std::vector<uint64_t> queries = {0, Mix64(1), Mix64(99999), Mix64(2)};
  std::vector<uint8_t> hits(queries.size());
  s.ContainsBatch(queries.data(), queries.size(), hits.data());
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 0);
  EXPECT_EQ(hits[3], 1);
}

// ---------------------------------------------------------------------------
// Batched hashing == scalar hashing

TEST(BatchedHashing, HashRowsMatchesScalarHashGroupKey) {
  RowBlock block({TypeId::kInt64, TypeId::kFloat64, TypeId::kString});
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    block.columns[0].Append(rng.Uniform(3) == 0 ? Value::Null(TypeId::kInt64)
                                                : Value::Int64(rng.Range(-50, 50)));
    block.columns[1].Append(Value::Float64(rng.NextDouble()));
    block.columns[2].Append(Value::String(rng.RandomString(rng.Uniform(12))));
  }
  std::vector<uint32_t> cols = {0, 1, 2};
  std::vector<uint64_t> batched;
  HashRows(block, cols, kGroupKeySeed, &batched);
  ASSERT_EQ(batched.size(), 1000u);
  for (size_t r = 0; r < 1000; ++r) {
    EXPECT_EQ(batched[r], HashGroupKey(block, cols, r)) << r;
  }
}

// ---------------------------------------------------------------------------
// Operator-level tests (no storage layer: MaterializedOperator input)

RowBlock MakeKeyedRows(int n, int modulus, bool null_every_7th) {
  RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
  for (int i = 0; i < n; ++i) {
    if (null_every_7th && i % 7 == 0) {
      rows.columns[0].Append(Value::Null(TypeId::kInt64));
    } else {
      rows.columns[0].Append(Value::Int64(i % modulus));
    }
    rows.columns[1].Append(Value::Float64(1.0));
  }
  return rows;
}

TEST(HashGroupByFlat, NullGroupKeysFormOneGroup) {
  // 700 rows, ids 0..9 plus every 7th row NULL: expect 11 groups and the
  // NULL group to hold exactly the 100 NULL rows.
  RowBlock input = MakeKeyedRows(700, 10, /*null_every_7th=*/true);
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "n"};
  HashGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input, std::vector<std::string>{"k", "v"}),
      spec);
  ExecContext ctx;
  auto rows = DrainOperator(&gb, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().NumRows(), 11u);
  int64_t null_count = -1;
  for (size_t r = 0; r < 11; ++r) {
    if (rows.value().columns[0].IsNull(r)) {
      ASSERT_EQ(null_count, -1) << "more than one NULL group";
      null_count = rows.value().columns[1].ints[r];
    }
  }
  EXPECT_EQ(null_count, 100);
}

TEST(HashGroupByFlat, SpillPathMergesToSameAnswer) {
  MemFileSystem fs;
  ExecContext ctx;
  ctx.fs = &fs;
  ResourceBudget budget(1);  // force grace partitioning immediately
  ctx.budget = &budget;
  ExecStats stats;
  ctx.stats = &stats;

  RowBlock input = MakeKeyedRows(20000, 500, /*null_every_7th=*/false);
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "total", "n"};
  HashGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input, std::vector<std::string>{"k", "v"}),
      spec);
  auto rows = DrainOperator(&gb, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(stats.rows_spilled.load(), 0u) << "budget of 1 byte must externalize";
  ASSERT_EQ(rows.value().NumRows(), 500u);
  // Every key 0..499 appears 40 times with payload 1.0.
  for (size_t r = 0; r < 500; ++r) {
    EXPECT_EQ(rows.value().columns[2].ints[r], 40) << r;
    EXPECT_DOUBLE_EQ(rows.value().columns[1].doubles[r], 40.0) << r;
  }
}

TEST(HashJoinFlat, NullJoinKeysNeverMatch) {
  // Probe: ids 0..9 plus NULLs; build: ids 0..4 plus a NULL row. NULL keys
  // must not match each other in any join type.
  RowBlock probe({TypeId::kInt64});
  for (int i = 0; i < 10; ++i) probe.columns[0].Append(Value::Int64(i));
  probe.columns[0].Append(Value::Null(TypeId::kInt64));
  probe.columns[0].Append(Value::Null(TypeId::kInt64));

  RowBlock build({TypeId::kInt64});
  for (int i = 0; i < 5; ++i) build.columns[0].Append(Value::Int64(i));
  build.columns[0].Append(Value::Null(TypeId::kInt64));

  ExecContext ctx;
  {
    JoinSpec spec;
    spec.type = JoinType::kInner;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    HashJoinOperator join(
        std::make_unique<MaterializedOperator>(probe, std::vector<std::string>{"p"}),
        std::make_unique<MaterializedOperator>(build, std::vector<std::string>{"b"}),
        spec);
    auto rows = DrainOperator(&join, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().NumRows(), 5u);  // only ids 0..4 match
  }
  {
    JoinSpec spec;
    spec.type = JoinType::kLeft;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    HashJoinOperator join(
        std::make_unique<MaterializedOperator>(probe, std::vector<std::string>{"p"}),
        std::make_unique<MaterializedOperator>(build, std::vector<std::string>{"b"}),
        spec);
    auto rows = DrainOperator(&join, &ctx);
    ASSERT_TRUE(rows.ok());
    // 5 matches + 5 unmatched non-null probe ids + 2 NULL probe rows.
    EXPECT_EQ(rows.value().NumRows(), 12u);
    size_t null_probe_rows = 0;
    for (size_t r = 0; r < rows.value().NumRows(); ++r) {
      if (rows.value().columns[0].IsNull(r)) {
        ++null_probe_rows;
        EXPECT_TRUE(rows.value().columns[1].IsNull(r)) << "NULL key must not join";
      }
    }
    EXPECT_EQ(null_probe_rows, 2u);
  }
  {
    JoinSpec spec;
    spec.type = JoinType::kFull;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    HashJoinOperator join(
        std::make_unique<MaterializedOperator>(probe, std::vector<std::string>{"p"}),
        std::make_unique<MaterializedOperator>(build, std::vector<std::string>{"b"}),
        spec);
    auto rows = DrainOperator(&join, &ctx);
    ASSERT_TRUE(rows.ok());
    // 5 matches + 5 lonely probe + 2 NULL probe + 1 NULL build row.
    EXPECT_EQ(rows.value().NumRows(), 13u);
  }
}

TEST(HashJoinFlat, CollisionHeavyKeysStillJoinCorrectly) {
  // Many distinct keys that collide heavily in the slot directory (dense
  // small ints hash fine, so use a multiplicative pattern plus duplicates
  // on the build side: each probe row must match both copies).
  RowBlock probe({TypeId::kInt64});
  RowBlock build({TypeId::kInt64});
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) probe.columns[0].Append(Value::Int64(i));
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kKeys; ++i) build.columns[0].Append(Value::Int64(i));
  }
  JoinSpec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  HashJoinOperator join(
      std::make_unique<MaterializedOperator>(probe, std::vector<std::string>{"p"}),
      std::make_unique<MaterializedOperator>(build, std::vector<std::string>{"b"}),
      spec);
  ExecContext ctx;
  auto rows = DrainOperator(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), static_cast<size_t>(2 * kKeys));
  for (size_t r = 0; r < rows.value().NumRows(); ++r) {
    EXPECT_EQ(rows.value().columns[0].ints[r], rows.value().columns[1].ints[r]);
  }
}

}  // namespace
}  // namespace stratica
