// External-sort and merge-kernel tests (DESIGN.md §8): spill vs in-memory
// vs std::stable_sort oracle across key types / NULLs / DESC / duplicates /
// top-k, loser-tree merge correctness, and the Sort operator's
// spilling under the query's ResourceBudget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "exec/merge.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

RowBlock RandomBlock(size_t n, uint64_t seed) {
  Rng rng(seed);
  RowBlock block({TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64});
  for (size_t r = 0; r < n; ++r) {
    block.columns[0].ints.push_back(rng.Range(-50, 50));  // many duplicates
    block.columns[1].doubles.push_back(static_cast<double>(rng.Range(-20, 20)) * 0.25);
    block.columns[2].strings.push_back(rng.RandomString(rng.Uniform(6)));
    block.columns[3].ints.push_back(static_cast<int64_t>(r));  // arrival payload
  }
  // NULLs on the key columns only (payload stays addressable).
  for (size_t c = 0; c < 3; ++c) {
    block.columns[c].nulls.assign(n, 0);
    for (size_t r = 0; r < n; ++r) {
      block.columns[c].nulls[r] = rng.Uniform(7) == 0 ? 1 : 0;
    }
  }
  return block;
}

/// std::stable_sort oracle over the input block.
RowBlock OracleSort(const RowBlock& input, const std::vector<SortKey>& keys) {
  std::vector<uint32_t> perm(input.NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return CompareRowsDirected(input, a, input, b, keys) < 0;
  });
  return ApplyPermutation(input, perm);
}

void ExpectBlocksEqual(const RowBlock& got, const RowBlock& want) {
  ASSERT_EQ(got.NumRows(), want.NumRows());
  ASSERT_EQ(got.NumColumns(), want.NumColumns());
  for (size_t c = 0; c < want.NumColumns(); ++c) {
    for (size_t r = 0; r < want.NumRows(); ++r) {
      ASSERT_EQ(got.columns[c].IsNull(r), want.columns[c].IsNull(r))
          << "col " << c << " row " << r;
      ASSERT_EQ(0, ColumnVector::CompareEntries(got.columns[c], r, want.columns[c], r))
          << "col " << c << " row " << r;
    }
  }
}

class SortMergeTest : public ::testing::Test {
 protected:
  Result<RowBlock> RunSort(const RowBlock& input, const std::vector<SortKey>& keys,
                           ExecContext* ctx, uint64_t limit_hint = 0,
                           size_t* runs_spilled = nullptr) {
    auto sort = std::make_unique<SortOperator>(
        std::make_unique<MaterializedOperator>(
            input, std::vector<std::string>{"a", "b", "c", "seq"}),
        keys, limit_hint);
    auto result = DrainOperator(sort.get(), ctx);
    if (runs_spilled != nullptr) *runs_spilled = sort->runs_spilled();
    return result;
  }

  MemFileSystem fs_;
  ExecStats stats_;
};

TEST_F(SortMergeTest, DifferentialSpillVsInMemoryVsOracle) {
  const std::vector<std::vector<SortKey>> shapes = {
      {{0, false}},
      {{0, true}, {1, false}},
      {{2, false}, {0, true}},
      {{1, true}, {2, true}, {0, false}},
  };
  RowBlock input = RandomBlock(20000, 99);
  for (const auto& keys : shapes) {
    SCOPED_TRACE(testing::Message() << keys.size() << "-key shape, first col "
                                    << keys[0].column);
    RowBlock want = OracleSort(input, keys);

    // In-memory (no budget) and spilled (tiny budget) must both equal the
    // oracle exactly, ties included.
    ExecContext mem_ctx;
    mem_ctx.fs = &fs_;
    mem_ctx.stats = &stats_;
    auto in_memory = RunSort(input, keys, &mem_ctx);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    ExpectBlocksEqual(in_memory.value(), want);

    ResourceBudget budget(64 << 10);
    ExecContext spill_ctx;
    spill_ctx.fs = &fs_;
    spill_ctx.stats = &stats_;
    spill_ctx.budget = &budget;
    size_t runs = 0;
    auto spilled = RunSort(input, keys, &spill_ctx, 0, &runs);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GT(runs, 1u);  // the budget must actually externalize
    ExpectBlocksEqual(spilled.value(), want);
  }
}

TEST_F(SortMergeTest, SpillHonorsSmallBudget) {
  // The query's budget is the sort's only memory limit: a budget smaller
  // than one input block makes every block a spilled run, and the
  // runs/bytes surface in ExecStats.
  RowBlock input = RandomBlock(30000, 5);
  ResourceBudget budget(32 << 10);
  ExecContext ctx;
  ctx.fs = &fs_;
  ctx.stats = &stats_;
  ctx.budget = &budget;
  size_t runs = 0;
  auto sorted = RunSort(input, {{0, false}, {2, false}}, &ctx, 0, &runs);
  ASSERT_TRUE(sorted.ok());
  EXPECT_GE(runs, 4u);
  EXPECT_GE(stats_.sort_runs.load(), 4u);
  EXPECT_GT(stats_.sort_spilled_bytes.load(), 0u);
  EXPECT_GT(stats_.rows_spilled.load(), 0u);
  ExpectBlocksEqual(sorted.value(), OracleSort(input, {{0, false}, {2, false}}));
}

TEST_F(SortMergeTest, TopKMatchesSortedPrefixIncludingTies) {
  RowBlock input = RandomBlock(8000, 21);
  std::vector<SortKey> keys = {{0, false}, {1, true}};
  RowBlock full = OracleSort(input, keys);
  for (uint64_t k : {1u, 7u, 100u, 8000u, 10000u}) {
    ExecContext ctx;
    ctx.fs = &fs_;
    ctx.stats = &stats_;
    auto topk = RunSort(input, keys, &ctx, k);
    ASSERT_TRUE(topk.ok());
    size_t want_rows = std::min<size_t>(k, input.NumRows());
    ASSERT_EQ(topk.value().NumRows(), want_rows) << "k=" << k;
    // Equal-key rows must resolve exactly as the stable full sort does —
    // the payload column proves which duplicates were kept.
    for (size_t c = 0; c < full.NumColumns(); ++c) {
      for (size_t r = 0; r < want_rows; ++r) {
        ASSERT_EQ(0, ColumnVector::CompareEntries(topk.value().columns[c], r,
                                                  full.columns[c], r))
            << "k=" << k << " col " << c << " row " << r;
      }
    }
  }
  EXPECT_GT(stats_.topk_rows_pruned.load(), 0u);
}

class LoserTreeFanInTest : public SortMergeTest,
                           public ::testing::WithParamInterface<size_t> {};

TEST_P(LoserTreeFanInTest, MergesRunsBackInOrder) {
  // Split a sorted oracle into k interleaved sorted runs, merge them back,
  // and check the row count and order. k=2 exercises the dedicated two-way
  // path, larger k the tree proper.
  Rng rng(3);
  RowBlock input = RandomBlock(5000, 17);
  std::vector<SortKey> keys = {{0, false}, {2, false}};
  const size_t k = GetParam();
  std::vector<std::vector<uint32_t>> run_rows(k);
  for (size_t r = 0; r < input.NumRows(); ++r) {
    run_rows[rng.Uniform(k)].push_back(static_cast<uint32_t>(r));
  }
  std::vector<std::unique_ptr<MergeInput>> inputs;
  for (size_t i = 0; i < k; ++i) {
    RowBlock members(std::vector<TypeId>(
        {TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64}));
    for (size_t c = 0; c < members.columns.size(); ++c) {
      members.columns[c].AppendGather(input.columns[c], run_rows[i]);
    }
    inputs.push_back(std::make_unique<BlockMergeInput>(OracleSort(members, keys)));
  }
  // One extra empty input must be harmless — but only above the dedicated
  // two-way path, which the k=2 instantiation must actually exercise.
  if (k > 2) {
    inputs.push_back(std::make_unique<BlockMergeInput>(RowBlock(std::vector<TypeId>(
        {TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64}))));
  }

  LoserTreeMerger merger(std::move(inputs), keys);
  ASSERT_TRUE(merger.Init().ok());
  RowBlock merged(std::vector<TypeId>(
      {TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64}));
  // A batch size that lands mid-run: the merger must re-verify the winner
  // across Next() boundaries (regression: the two-way path once emitted an
  // unverified row after a batch-boundary return).
  while (!merger.Done()) {
    ASSERT_TRUE(merger.Next(&merged, 333).ok());
  }
  ASSERT_EQ(merged.NumRows(), input.NumRows());
  for (size_t r = 1; r < merged.NumRows(); ++r) {
    ASSERT_LE(CompareRowsDirected(merged, r - 1, merged, r, keys), 0) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(FanIns, LoserTreeFanInTest,
                         ::testing::Values(2, 3, 7, 33));

TEST_F(SortMergeTest, NanDoublesStaySortedThroughSpillMerge) {
  // Runs are sorted under the normalized-key total order (NaN after +inf);
  // the merge — including the k<=2 direct-compare path — must use the same
  // order or NaN rows interleave out of position.
  RowBlock input(
      {TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64});
  Rng rng(13);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // 8000 rows = two input blocks = exactly two spilled runs, so the merge
  // takes the k=2 direct-compare path (the one that once used the
  // NaN-orderless comparator).
  for (size_t r = 0; r < 8000; ++r) {
    input.columns[0].ints.push_back(0);
    double v = static_cast<double>(rng.Range(-100, 100));
    if (rng.Uniform(10) == 0) v = nan;
    if (rng.Uniform(17) == 0) v = rng.Uniform(2) ? inf : -inf;
    input.columns[1].doubles.push_back(v);
    input.columns[2].strings.push_back("");
    input.columns[3].ints.push_back(static_cast<int64_t>(r));
  }
  ResourceBudget budget(64 << 10);  // force spill runs + merge
  ExecContext ctx;
  ctx.fs = &fs_;
  ctx.stats = &stats_;
  ctx.budget = &budget;
  size_t runs = 0;
  auto sorted = RunSort(input, {{1, false}}, &ctx, 0, &runs);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(runs, 2u);  // the two-way merge path must be the one exercised
  ASSERT_EQ(sorted.value().NumRows(), input.NumRows());
  // Non-NaN values ascending, every NaN after every non-NaN.
  const auto& vals = sorted.value().columns[1].doubles;
  bool seen_nan = false;
  double prev = -inf;
  for (size_t r = 0; r < vals.size(); ++r) {
    if (std::isnan(vals[r])) {
      seen_nan = true;
      continue;
    }
    ASSERT_FALSE(seen_nan) << "non-NaN after NaN at row " << r;
    ASSERT_GE(vals[r], prev) << "row " << r;
    prev = vals[r];
  }
  EXPECT_TRUE(seen_nan);
}

TEST_F(SortMergeTest, SingleInputMergePassesThrough) {
  RowBlock input = RandomBlock(100, 1);
  std::vector<SortKey> keys = {{0, false}};
  RowBlock sorted = OracleSort(input, keys);
  std::vector<std::unique_ptr<MergeInput>> inputs;
  inputs.push_back(std::make_unique<BlockMergeInput>(sorted));
  LoserTreeMerger merger(std::move(inputs), keys);
  ASSERT_TRUE(merger.Init().ok());
  RowBlock merged(std::vector<TypeId>(
      {TypeId::kInt64, TypeId::kFloat64, TypeId::kString, TypeId::kInt64}));
  while (!merger.Done()) {
    ASSERT_TRUE(merger.Next(&merged, 64).ok());
  }
  ExpectBlocksEqual(merged, sorted);
}

}  // namespace
}  // namespace stratica
