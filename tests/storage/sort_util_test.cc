// Normalized-key sort tests (DESIGN.md §8): the byte encoding must be
// order-preserving against the row comparator for every type, direction,
// NULL placement (and NaN / signed zero) and composite shape, and the
// permutation APIs must agree exactly (including stability) with a
// std::stable_sort over the row comparator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "storage/sort_util.h"

namespace stratica {
namespace {

RowBlock MixedBlock(size_t n, uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  RowBlock block({TypeId::kInt64, TypeId::kFloat64, TypeId::kString});
  for (size_t r = 0; r < n; ++r) {
    // Small domains so duplicates and shared prefixes are common.
    block.columns[0].ints.push_back(rng.Range(-5, 5));
    double d = static_cast<double>(rng.Range(-3, 3)) * 0.5;
    if (rng.Uniform(8) == 0) d = std::numeric_limits<double>::quiet_NaN();
    block.columns[1].doubles.push_back(d);
    std::string s = rng.RandomString(rng.Uniform(4));
    if (rng.Uniform(4) == 0) s.push_back('\0');  // embedded zero bytes
    if (rng.Uniform(4) == 0) s += "x";
    block.columns[2].strings.push_back(s);
  }
  if (with_nulls) {
    for (auto& col : block.columns) {
      col.nulls.assign(n, 0);
      for (size_t r = 0; r < n; ++r) col.nulls[r] = rng.Uniform(5) == 0 ? 1 : 0;
    }
  }
  return block;
}

void ExpectOrderPreserving(const RowBlock& block, const std::vector<SortKey>& keys) {
  NormalizedKeys nk;
  BuildNormalizedKeys(block, keys, &nk);
  size_t n = block.NumRows();
  ASSERT_EQ(nk.rows, n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      int want = CompareRowsDirected(block, a, block, b, keys);
      int got = nk.Compare(a, b);
      int got_sign = got < 0 ? -1 : (got > 0 ? 1 : 0);
      int want_sign = want < 0 ? -1 : (want > 0 ? 1 : 0);
      ASSERT_EQ(got_sign, want_sign)
          << "rows " << a << " vs " << b << ": "
          << block.columns[keys[0].column].GetValue(a).ToString() << " / "
          << block.columns[keys[0].column].GetValue(b).ToString();
    }
  }
}

TEST(SortUtilTest, Int64KeyEdgeValues) {
  RowBlock block({TypeId::kInt64});
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
                    int64_t{1}, std::numeric_limits<int64_t>::max(), int64_t{-42},
                    int64_t{42}}) {
    block.columns[0].ints.push_back(v);
  }
  ExpectOrderPreserving(block, {{0, false}});
  ExpectOrderPreserving(block, {{0, true}});
}

TEST(SortUtilTest, DoubleKeyEdgeValues) {
  RowBlock block({TypeId::kFloat64});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {-std::numeric_limits<double>::infinity(), -1e300, -1.5, -0.0, 0.0,
                   std::numeric_limits<double>::denorm_min(), 1.5, 1e300,
                   std::numeric_limits<double>::infinity(), nan,
                   std::copysign(nan, -1.0)}) {
    block.columns[0].doubles.push_back(v);
  }
  ExpectOrderPreserving(block, {{0, false}});
  ExpectOrderPreserving(block, {{0, true}});
  // -0.0 and +0.0 must encode identically (the comparator calls them equal),
  // as must both NaNs, which sort after +inf.
  NormalizedKeys nk;
  BuildNormalizedKeys(block, {{0, false}}, &nk);
  EXPECT_EQ(nk.Compare(3, 4), 0);
  EXPECT_EQ(nk.Compare(9, 10), 0);
  EXPECT_LT(nk.Compare(8, 9), 0);
}

TEST(SortUtilTest, StringKeysWithEmbeddedZerosAndPrefixes) {
  RowBlock block({TypeId::kString});
  for (const char* base :
       {"", "a", "ab", "abc", "b", "ba", "z", "zz", "A", "aa"}) {
    block.columns[0].strings.push_back(base);
  }
  block.columns[0].strings.push_back(std::string("a\0", 2));
  block.columns[0].strings.push_back(std::string("a\0b", 3));
  block.columns[0].strings.push_back(std::string("\0", 1));
  block.columns[0].strings.push_back(std::string("\0\0", 2));
  ExpectOrderPreserving(block, {{0, false}});
  ExpectOrderPreserving(block, {{0, true}});
}

TEST(SortUtilTest, NullsFirstAscLastDesc) {
  RowBlock block({TypeId::kInt64});
  block.columns[0].ints = {5, 0, -5, 0};
  block.columns[0].nulls = {0, 1, 0, 1};
  ExpectOrderPreserving(block, {{0, false}});
  ExpectOrderPreserving(block, {{0, true}});
  NormalizedKeys nk;
  BuildNormalizedKeys(block, {{0, false}}, &nk);
  EXPECT_LT(nk.Compare(1, 2), 0);  // NULL before -5 ascending
  BuildNormalizedKeys(block, {{0, true}}, &nk);
  EXPECT_GT(nk.Compare(1, 0), 0);  // NULL after 5 descending
  // Two NULLs always tie.
  EXPECT_EQ(nk.Compare(1, 3), 0);
}

TEST(SortUtilTest, CompositeKeysAllShapesDifferential) {
  RowBlock block = MixedBlock(60, 7, /*with_nulls=*/true);
  // Every combination of (leading column, direction mix) that crosses the
  // fixed-width and variable-width encoders.
  std::vector<std::vector<SortKey>> shapes = {
      {{0, false}},
      {{1, true}},
      {{2, false}},
      {{0, false}, {1, false}},
      {{0, true}, {1, false}},
      {{1, false}, {0, true}},
      {{2, false}, {0, false}},
      {{0, false}, {2, true}, {1, false}},
      {{2, true}, {1, true}, {0, true}},
  };
  for (const auto& keys : shapes) {
    SCOPED_TRACE(testing::Message() << "shape with " << keys.size() << " keys, first "
                                    << keys[0].column);
    ExpectOrderPreserving(block, keys);
  }
}

/// std::stable_sort oracle for the normalized-key permutation.
std::vector<uint32_t> OraclePermutation(const RowBlock& block,
                                        const std::vector<SortKey>& keys) {
  std::vector<uint32_t> perm(block.NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return CompareRowsDirected(block, a, block, b, keys) < 0;
  });
  return perm;
}

TEST(SortUtilTest, PermutationMatchesStableSortOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RowBlock block = MixedBlock(500, seed, /*with_nulls=*/true);
    std::vector<std::vector<SortKey>> shapes = {
        {{0, false}},                          // packed single int key
        {{0, false}, {1, true}},               // packed two-key fast path
        {{2, false}, {0, false}},              // variable width
        {{1, true}, {2, true}, {0, false}},    // everything
    };
    for (const auto& keys : shapes) {
      ASSERT_EQ(ComputeSortPermutationDirected(block, keys),
                OraclePermutation(block, keys))
          << "seed " << seed;  // identical incl. tie order
    }
  }
}

TEST(SortUtilTest, AscendingPermutationApiStillStableSorts) {
  RowBlock block({TypeId::kInt64, TypeId::kInt64});
  block.columns[0].ints = {3, 1, 3, 1, 2};
  block.columns[1].ints = {0, 1, 2, 3, 4};  // payload identifies input order
  auto perm = ComputeSortPermutation(block, {0});
  RowBlock sorted = ApplyPermutation(block, perm);
  EXPECT_EQ(sorted.columns[0].ints, (std::vector<int64_t>{1, 1, 2, 3, 3}));
  EXPECT_EQ(sorted.columns[1].ints, (std::vector<int64_t>{1, 3, 4, 0, 2}));
  EXPECT_TRUE(IsSorted(sorted, {0}));
}

TEST(SortUtilTest, AppendNormalizedKeyMatchesBatchBuild) {
  RowBlock block = MixedBlock(40, 11, /*with_nulls=*/true);
  std::vector<SortKey> keys = {{0, false}, {2, true}, {1, false}};
  NormalizedKeys nk;
  BuildNormalizedKeys(block, keys, &nk);
  for (size_t r = 0; r < block.NumRows(); ++r) {
    std::vector<uint8_t> single;
    AppendNormalizedKey(block, r, keys, &single);
    ASSERT_EQ(single.size(), nk.Length(r));
    EXPECT_EQ(0, memcmp(single.data(), nk.Data(r), single.size())) << "row " << r;
  }
}

}  // namespace
}  // namespace stratica
