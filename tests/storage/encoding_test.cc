// Round-trip and shape tests for all Section 3.4.1 encoding types.
#include "storage/encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/bitutil.h"
#include "common/rng.h"
#include "exec/spill.h"

namespace stratica {
namespace {

ColumnVector MakeInts(const std::vector<int64_t>& v) {
  ColumnVector c(TypeId::kInt64);
  c.ints = v;
  return c;
}

ColumnVector MakeDoubles(const std::vector<double>& v) {
  ColumnVector c(TypeId::kFloat64);
  c.doubles = v;
  return c;
}

ColumnVector MakeStrings(const std::vector<std::string>& v) {
  ColumnVector c(TypeId::kString);
  c.strings = v;
  return c;
}

void ExpectRoundTrip(EncodingId enc, const ColumnVector& col) {
  std::string buf;
  ASSERT_TRUE(EncodeBlock(enc, col, 0, col.PhysicalSize(), &buf).ok());
  ColumnVector out(col.type);
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlock(buf, &offset, col.type, &out).ok());
  EXPECT_EQ(offset, buf.size());
  ASSERT_EQ(out.PhysicalSize(), col.PhysicalSize());
  for (size_t i = 0; i < col.PhysicalSize(); ++i) {
    EXPECT_EQ(out.IsNull(i), col.IsNull(i)) << "row " << i;
    if (!col.IsNull(i)) {
      EXPECT_EQ(ColumnVector::CompareEntries(out, i, col, i), 0)
          << "row " << i << " enc " << EncodingName(enc);
    }
  }
}

TEST(EncodingTest, PlainIntsRoundTrip) {
  ExpectRoundTrip(EncodingId::kPlain, MakeInts({1, -5, 99999, 0, INT64_MAX, INT64_MIN}));
}

TEST(EncodingTest, PlainStringsRoundTrip) {
  ExpectRoundTrip(EncodingId::kPlain, MakeStrings({"", "a", "hello world", "日本語"}));
}

TEST(EncodingTest, RleLongRuns) {
  std::vector<int64_t> v;
  for (int run = 0; run < 10; ++run)
    for (int i = 0; i < 1000; ++i) v.push_back(run);
  ColumnVector col = MakeInts(v);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kRle, col, 0, v.size(), &buf).ok());
  // 10 runs should collapse to well under 200 bytes.
  EXPECT_LT(buf.size(), 200u);
  ExpectRoundTrip(EncodingId::kRle, col);
}

TEST(EncodingTest, RleViewKeepsRuns) {
  ColumnVector col = MakeInts({7, 7, 7, 8, 8, 9});
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kRle, col, 0, 6, &buf).ok());
  EncodedBlockView view;
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlockView(buf, &offset, TypeId::kInt64, &view).ok());
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(view.encoding, EncodingId::kRle);
  const ColumnVector& out = view.column;
  ASSERT_TRUE(out.IsRle());
  EXPECT_EQ(out.PhysicalSize(), 3u);
  EXPECT_EQ(out.Size(), 6u);
  EXPECT_EQ(out.runs[0], 3u);
  EXPECT_EQ(out.runs[1], 2u);
  EXPECT_EQ(out.runs[2], 1u);

  // A NULL-bearing RLE block decodes flat: its null section is row-parallel.
  col.nulls = {0, 0, 1, 0, 0, 0};
  buf.clear();
  ASSERT_TRUE(EncodeBlock(EncodingId::kRle, col, 0, 6, &buf).ok());
  offset = 0;
  ASSERT_TRUE(DecodeBlockView(buf, &offset, TypeId::kInt64, &view).ok());
  ASSERT_TRUE(view.column.IsFlat());
  ASSERT_EQ(view.column.PhysicalSize(), 6u);
  EXPECT_EQ(view.column.nulls, col.nulls);
  for (size_t i = 0; i < 6; ++i) {
    if (!col.IsNull(i)) EXPECT_EQ(view.column.ints[i], col.ints[i]) << "row " << i;
  }
}

// RLE run detection and dictionary builds follow CompareEntries' total order
// on doubles: NaN is its own run and its own dictionary entry, never merged
// into a neighbouring number.
TEST(EncodingTest, NanRowsRoundTripThroughRleAndAuto) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ColumnVector col = MakeDoubles({5.0, nan, nan, 7.0});
  for (EncodingId enc : {EncodingId::kAuto, EncodingId::kRle}) {
    SCOPED_TRACE(EncodingName(enc));
    std::string buf;
    ASSERT_TRUE(EncodeBlock(enc, col, 0, 4, &buf).ok());
    ColumnVector out(TypeId::kFloat64);
    size_t offset = 0;
    ASSERT_TRUE(DecodeBlock(buf, &offset, TypeId::kFloat64, &out).ok());
    ASSERT_EQ(out.doubles.size(), 4u);
    EXPECT_EQ(out.doubles[0], 5.0);
    EXPECT_TRUE(std::isnan(out.doubles[1]));
    EXPECT_TRUE(std::isnan(out.doubles[2]));
    EXPECT_EQ(out.doubles[3], 7.0);
  }
}

TEST(EncodingTest, BlockDictFoldsEveryNanIntoOneEntry) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ColumnVector col = MakeDoubles({nan, 1.0, std::copysign(nan, -1.0), 1.0, nan});
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kBlockDict, col, 0, 5, &buf).ok());
  EncodedBlockView view;
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlockView(buf, &offset, TypeId::kFloat64, &view).ok());
  ASSERT_TRUE(view.column.IsDictCoded());
  ASSERT_EQ(view.column.dict->PhysicalSize(), 2u);  // {1.0, NaN}
  EXPECT_EQ(view.column.dict->doubles[0], 1.0);
  EXPECT_TRUE(std::isnan(view.column.dict->doubles[1]));
  EXPECT_EQ(view.column.ints, (std::vector<int64_t>{1, 0, 1, 0, 1}));
}

TEST(EncodingTest, DeltaValueSmallRange) {
  // 1000 values within a range of 16 -> 4-bit packing.
  Rng rng(1);
  std::vector<int64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(1000000 + rng.Range(0, 15));
  ColumnVector col = MakeInts(v);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kDeltaValue, col, 0, v.size(), &buf).ok());
  EXPECT_LT(buf.size(), 1000u);  // ~500 bytes of packed bits + header
  ExpectRoundTrip(EncodingId::kDeltaValue, col);
}

TEST(EncodingTest, BlockDictFewValued) {
  Rng rng(2);
  std::vector<std::string> names = {"GOOG", "AAPL", "MSFT", "HP"};
  std::vector<std::string> v;
  for (int i = 0; i < 2000; ++i) v.push_back(names[rng.Uniform(4)]);
  ColumnVector col = MakeStrings(v);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kBlockDict, col, 0, v.size(), &buf).ok());
  EXPECT_LT(buf.size(), 600u);  // 2 bits/value + dictionary
  ExpectRoundTrip(EncodingId::kBlockDict, col);
}

TEST(EncodingTest, BlockDictHighCardinalityFallsBackToPlain) {
  Rng rng(3);
  std::vector<int64_t> v;
  for (int i = 0; i < 30000; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
  ColumnVector col = MakeInts(v);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kBlockDict, col, 0, v.size(), &buf).ok());
  auto enc = PeekBlockEncoding(buf, 0);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value(), EncodingId::kPlain);  // cardinality guard tripped
  ExpectRoundTrip(EncodingId::kBlockDict, col);
}

TEST(EncodingTest, DeltaRangeSortedDoubles) {
  std::vector<double> v;
  double x = 100.0;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    x += rng.NextDouble() * 0.25;
    v.push_back(x);
  }
  ColumnVector col = MakeDoubles(v);
  ExpectRoundTrip(EncodingId::kCompressedDeltaRange, col);
}

TEST(EncodingTest, DeltaRangeNegativeDoubles) {
  ExpectRoundTrip(EncodingId::kCompressedDeltaRange,
                  MakeDoubles({-5.5, -1.0, -0.25, 0.0, 0.25, 3.75, 1e300}));
}

TEST(EncodingTest, CommonDeltaPeriodicTimestamps) {
  // Timestamps every 5 minutes with occasional sequence breaks — the
  // paper's motivating example for Compressed Common Delta.
  std::vector<int64_t> v;
  int64_t t = 1000000;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    t += (rng.Uniform(100) == 0) ? 86400 : 300;
    v.push_back(t);
  }
  ColumnVector col = MakeInts(v);
  std::string buf;
  ASSERT_TRUE(
      EncodeBlock(EncodingId::kCompressedCommonDelta, col, 0, v.size(), &buf).ok());
  // Two dominant deltas -> entropy coding should approach ~1 bit/value.
  EXPECT_LT(buf.size(), 4000u);
  ExpectRoundTrip(EncodingId::kCompressedCommonDelta, col);
}

TEST(EncodingTest, NullsSurviveAllEncodings) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      col.Append(Value::Null(TypeId::kInt64));
    } else {
      col.Append(Value::Int64(i / 10));
    }
  }
  for (EncodingId enc :
       {EncodingId::kPlain, EncodingId::kRle, EncodingId::kDeltaValue,
        EncodingId::kBlockDict, EncodingId::kCompressedDeltaRange,
        EncodingId::kCompressedCommonDelta, EncodingId::kAuto}) {
    ExpectRoundTrip(enc, col);
  }
}

TEST(EncodingTest, EmptyBlock) {
  ColumnVector col(TypeId::kInt64);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kAuto, col, 0, 0, &buf).ok());
  ColumnVector out(TypeId::kInt64);
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlock(buf, &offset, TypeId::kInt64, &out).ok());
  EXPECT_EQ(out.PhysicalSize(), 0u);
}

TEST(EncodingTest, AutoPicksRleForSortedLowCardinality) {
  std::vector<int64_t> v;
  for (int run = 0; run < 5; ++run)
    for (int i = 0; i < 2000; ++i) v.push_back(run);
  ColumnVector col = MakeInts(v);
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kAuto, col, 0, v.size(), &buf).ok());
  auto enc = PeekBlockEncoding(buf, 0);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value(), EncodingId::kRle);
}

TEST(EncodingTest, AutoBeatsPlainOnEveryShapedInput) {
  Rng rng(7);
  // Sorted ints with runs.
  std::vector<int64_t> sorted;
  for (int i = 0; i < 8000; ++i) sorted.push_back(i / 40);
  // Unsorted small-range ints.
  std::vector<int64_t> small;
  for (int i = 0; i < 8000; ++i) small.push_back(rng.Range(500, 600));
  for (const auto& v : {sorted, small}) {
    ColumnVector col = MakeInts(v);
    std::string auto_buf, plain_buf;
    ASSERT_TRUE(EncodeBlock(EncodingId::kAuto, col, 0, v.size(), &auto_buf).ok());
    ASSERT_TRUE(EncodeBlock(EncodingId::kPlain, col, 0, v.size(), &plain_buf).ok());
    EXPECT_LT(auto_buf.size(), plain_buf.size());
  }
}

// ---------------------------------------------------------------------------
// Selective decode (late materialization): DecodeBlock with a selection must
// return exactly the input rows the selection keeps, for every encoding,
// shape and selection pattern, and must consume the whole block. The oracle
// is the input column filtered by the selection, not a second decoder: the
// encoders are lossless, and CompareEntries treats NaN and -0.0 the way the
// decoders do.

// kNullSelection passes DecodeBlock a null selection (every row), which must
// equal the all-ones result.
constexpr int kNullSelection = 5;
constexpr int kSelectionKinds = 6;

std::vector<uint8_t> MakeSelection(int kind, size_t n) {
  std::vector<uint8_t> sel(n, 0);
  switch (kind) {
    case 0: break;                                          // empty
    case 1:                                                 // sparse: ~1%
      for (size_t i = 0; i < n; i += 97) sel[i] = 1;
      break;
    case 2:                                                 // dense: all but ~8%
      sel.assign(n, 1);
      for (size_t i = 5; i < n; i += 13) sel[i] = 0;
      break;
    case 3:                                                 // all-ones
    case kNullSelection: sel.assign(n, 1); break;
    case 4:                                                 // single last row
      if (n > 0) sel[n - 1] = 1;
      break;
  }
  return sel;
}

void ExpectSelectedMatches(EncodingId enc, const ColumnVector& col, int kind) {
  SCOPED_TRACE(testing::Message() << EncodingName(enc) << " selection kind " << kind);
  std::vector<uint8_t> sel = MakeSelection(kind, col.PhysicalSize());
  std::string buf;
  ASSERT_TRUE(EncodeBlock(enc, col, 0, col.PhysicalSize(), &buf).ok());

  ColumnVector ref = col;
  ref.Filter(sel);

  ColumnVector out(col.type);
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlock(buf, &offset, col.type, &out,
                          kind == kNullSelection ? nullptr : &sel)
                  .ok());
  EXPECT_EQ(offset, buf.size()) << "decode must consume the whole block";
  ASSERT_EQ(out.PhysicalSize(), ref.PhysicalSize()) << EncodingName(enc);
  EXPECT_EQ(out.nulls.size(), ref.nulls.size());
  for (size_t i = 0; i < ref.PhysicalSize(); ++i) {
    EXPECT_EQ(out.IsNull(i), ref.IsNull(i)) << "row " << i;
    if (!ref.IsNull(i)) {
      EXPECT_EQ(ColumnVector::CompareEntries(out, i, ref, i), 0)
          << "row " << i << " enc " << EncodingName(enc);
    }
  }
}

constexpr EncodingId kAllEncodings[] = {
    EncodingId::kPlain,        EncodingId::kRle,
    EncodingId::kDeltaValue,   EncodingId::kBlockDict,
    EncodingId::kCompressedDeltaRange, EncodingId::kCompressedCommonDelta,
    EncodingId::kAuto,
};

TEST(SelectiveDecodeTest, StringsAllEncodings) {
  Rng rng(11);
  std::vector<std::string> names = {"GOOG", "AAPL", "MSFT", "HP", ""};
  std::vector<std::string> v;
  for (int i = 0; i < 3000; ++i) {
    v.push_back(i % 5 == 0 ? std::string(1 + rng.Uniform(30), 'x' + i % 3)
                           : names[rng.Uniform(5)]);
  }
  ColumnVector col = MakeStrings(v);
  for (EncodingId enc : {EncodingId::kPlain, EncodingId::kRle, EncodingId::kBlockDict,
                         EncodingId::kAuto}) {
    for (int kind = 0; kind < kSelectionKinds; ++kind) {
      ExpectSelectedMatches(enc, col, kind);
    }
  }
}

TEST(SelectiveDecodeTest, SortedStringsRle) {
  std::vector<std::string> v;
  for (int run = 0; run < 40; ++run)
    for (int i = 0; i < 100; ++i) v.push_back("key" + std::to_string(run));
  ColumnVector col = MakeStrings(v);
  for (int kind = 0; kind < kSelectionKinds; ++kind) {
    ExpectSelectedMatches(EncodingId::kRle, col, kind);
  }
}

TEST(SelectiveDecodeTest, DoublesAllEncodings) {
  Rng rng(12);
  std::vector<double> v;
  double x = -100.0;
  for (int i = 0; i < 3000; ++i) {
    x += rng.NextDouble();
    v.push_back(i % 7 == 0 ? -x : x);
  }
  ColumnVector col = MakeDoubles(v);
  for (EncodingId enc : {EncodingId::kPlain, EncodingId::kRle, EncodingId::kBlockDict,
                         EncodingId::kCompressedDeltaRange, EncodingId::kAuto}) {
    for (int kind = 0; kind < kSelectionKinds; ++kind) {
      ExpectSelectedMatches(enc, col, kind);
    }
  }
}

TEST(SelectiveDecodeTest, NullsAllEncodings) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 2000; ++i) {
    if (i % 7 == 0) {
      col.Append(Value::Null(TypeId::kInt64));
    } else {
      col.Append(Value::Int64(i / 10));
    }
  }
  for (EncodingId enc : kAllEncodings) {
    for (int kind = 0; kind < kSelectionKinds; ++kind) {
      ExpectSelectedMatches(enc, col, kind);
    }
  }
}

TEST(SelectiveDecodeTest, SelectionSizeMismatchRejected) {
  ColumnVector col = MakeInts({1, 2, 3, 4});
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kPlain, col, 0, 4, &buf).ok());
  ColumnVector out(TypeId::kInt64);
  size_t offset = 0;
  std::vector<uint8_t> bad_sel(3, 1);
  EXPECT_FALSE(DecodeBlock(buf, &offset, TypeId::kInt64, &out, &bad_sel).ok());
}

TEST(SelectiveDecodeTest, AppendsAfterExistingContent) {
  // The scan appends across blocks; selected decode must honor prior
  // content, including a null-map prefix.
  ColumnVector col = MakeInts({10, 20, 30, 40, 50});
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kDeltaValue, col, 0, 5, &buf).ok());
  ColumnVector out(TypeId::kInt64);
  out.Append(Value::Null(TypeId::kInt64));
  out.Append(Value::Int64(7));
  size_t offset = 0;
  std::vector<uint8_t> sel = {0, 1, 0, 1, 0};
  ASSERT_TRUE(DecodeBlock(buf, &offset, TypeId::kInt64, &out, &sel).ok());
  ASSERT_EQ(out.PhysicalSize(), 4u);
  EXPECT_TRUE(out.IsNull(0));
  EXPECT_EQ(out.ints[1], 7);
  EXPECT_EQ(out.ints[2], 20);
  EXPECT_EQ(out.ints[3], 40);
  EXPECT_FALSE(out.IsNull(2));
  EXPECT_FALSE(out.IsNull(3));
}

class SelectiveDecodePropertyTest
    : public ::testing::TestWithParam<std::tuple<EncodingId, int, int, size_t>> {};

TEST_P(SelectiveDecodePropertyTest, MatchesFilteredInput) {
  auto [enc, shape_idx, sel_kind, n] = GetParam();
  Rng rng(static_cast<uint64_t>(shape_idx) * 7919 + n);
  std::vector<int64_t> v;
  switch (shape_idx) {
    case 0: {  // sorted with runs
      int64_t x = -500;
      for (size_t i = 0; i < n; ++i) v.push_back(x += rng.Range(0, 2));
      break;
    }
    case 1:  // random full-range
      for (size_t i = 0; i < n; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
      break;
    case 2:  // low cardinality
      for (size_t i = 0; i < n; ++i) v.push_back(rng.Range(-3, 3));
      break;
    case 3: {  // periodic (common-delta territory)
      int64_t t = 0;
      for (size_t i = 0; i < n; ++i) v.push_back(t += rng.Uniform(50) == 0 ? 7777 : 60);
      break;
    }
    default:  // constant
      v.assign(n, 42);
      break;
  }
  ColumnVector col = MakeInts(v);
  ExpectSelectedMatches(enc, col, sel_kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SelectiveDecodePropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllEncodings),
                       ::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Range(0, kSelectionKinds),
                       ::testing::Values<size_t>(1, 2, 100, 4096)));

// ---------------------------------------------------------------------------
// Invalid blocks are Corruption through every route: a null selection, a
// partial one, and the encoded view.

void ExpectCorruptEverywhere(const std::string& buf, TypeId type) {
  size_t count_at = 1;  // the row count follows the encoding byte
  uint64_t rows = 0;
  ASSERT_TRUE(GetVarint64(buf, &count_at, &rows));
  const std::vector<uint8_t> partial = MakeSelection(/*sparse*/ 1, rows);
  const std::vector<uint8_t>* sels[] = {nullptr, &partial};
  for (const std::vector<uint8_t>* sel : sels) {
    ColumnVector out(type);
    size_t offset = 0;
    EXPECT_EQ(DecodeBlock(buf, &offset, type, &out, sel).code(), StatusCode::kCorruption)
        << (sel ? "partial selection" : "null selection");
  }
  EncodedBlockView view;
  size_t offset = 0;
  EXPECT_EQ(DecodeBlockView(buf, &offset, type, &view).code(), StatusCode::kCorruption)
      << "view";
}

TEST(CorruptBlockTest, TruncatedBitPackedPayload) {
  Rng rng(17);
  std::vector<int64_t> wide, few;
  for (int i = 0; i < 1000; ++i) {
    wide.push_back(rng.Range(0, 1 << 20));
    few.push_back(rng.Range(0, 99));
  }
  for (auto [enc, values] : {std::make_pair(EncodingId::kDeltaValue, wide),
                             std::make_pair(EncodingId::kBlockDict, few)}) {
    SCOPED_TRACE(EncodingName(enc));
    std::string buf;
    ASSERT_TRUE(EncodeBlock(enc, MakeInts(values), 0, values.size(), &buf).ok());
    ASSERT_EQ(PeekBlockEncoding(buf, 0).value(), enc);
    buf.resize(buf.size() - 40);
    ExpectCorruptEverywhere(buf, TypeId::kInt64);
  }
}

TEST(CorruptBlockTest, RleRunsMustSumToBlockRows) {
  std::string encoded;
  ASSERT_TRUE(EncodeBlock(EncodingId::kRle, MakeInts(std::vector<int64_t>(10, 5)), 0, 10,
                          &encoded)
                  .ok());
  // One run: its length is the block's last byte. 100 overflows the 10-row
  // block; 4 leaves it short.
  ASSERT_EQ(static_cast<uint8_t>(encoded.back()), 10);
  for (char run_len : {100, 4}) {
    SCOPED_TRACE(static_cast<int>(run_len));
    std::string buf = encoded;
    buf.back() = run_len;
    ExpectCorruptEverywhere(buf, TypeId::kInt64);
  }
}

// ---------------------------------------------------------------------------
// Bit packing: ReadPackedBits is the one reader of BitPacker output.

TEST(BitUtilTest, ReadPackedBitsReadsEveryBitPackerWidth) {
  Rng rng(64);
  for (int width = 1; width <= 64; ++width) {
    SCOPED_TRACE(width);
    uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    std::vector<uint64_t> values;
    BitPacker packer(width);
    for (int i = 0; i < 257; ++i) {
      values.push_back(i == 0 ? mask : rng.Next() & mask);
      packer.Append(values.back());
    }
    std::string bytes = packer.Finish();
    ASSERT_EQ(bytes.size(), PackedBytes(values.size(), width));
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(ReadPackedBits(bytes.data(), bytes.size(), i * width, width), values[i])
          << "slot " << i;
    }
  }
}

TEST(EncodingTest, DeltaValueFullRangeUsesWidth64) {
  ColumnVector col = MakeInts({INT64_MIN, INT64_MAX, 0});
  std::string buf;
  ASSERT_TRUE(EncodeBlock(EncodingId::kDeltaValue, col, 0, 3, &buf).ok());
  // [encoding][count][null flag][zigzag(INT64_MIN): 10-byte varint][width]
  ASSERT_EQ(buf.size(), 14u + 3 * 8);
  EXPECT_EQ(static_cast<uint8_t>(buf[13]), 64);
  ExpectRoundTrip(EncodingId::kDeltaValue, col);
  for (int kind = 0; kind < kSelectionKinds; ++kind) {
    ExpectSelectedMatches(EncodingId::kDeltaValue, col, kind);
  }
}

// ---------------------------------------------------------------------------
// Encoders take flat columns only; the spill format flattens RLE and
// dict-coded columns before encoding them.

TEST(EncodingTest, EncodeRejectsNonFlatAndSpillFlattens) {
  ColumnVector rle(TypeId::kInt64);
  rle.ints = {7, 9};
  rle.runs = {3, 2};
  ColumnVector coded(TypeId::kString);
  coded.dict = std::make_shared<const ColumnVector>(MakeStrings({"ant", "bee"}));
  coded.dict_sorted = true;
  coded.ints = {1, 0, 0, 1, 1};

  for (const ColumnVector* col : {&rle, &coded}) {
    std::string buf;
    EXPECT_EQ(EncodeBlock(EncodingId::kPlain, *col, 0, col->PhysicalSize(), &buf).code(),
              StatusCode::kInternal);
  }

  RowBlock block({TypeId::kInt64, TypeId::kString});
  block.columns[0] = rle;
  block.columns[1] = coded;
  auto parsed = ParseBlock(SerializeBlock(block), {TypeId::kInt64, TypeId::kString});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RowBlock& back = parsed.value();
  ASSERT_EQ(back.NumRows(), 5u);
  EXPECT_EQ(back.columns[0].ints, (std::vector<int64_t>{7, 7, 7, 9, 9}));
  EXPECT_EQ(back.columns[1].strings,
            (std::vector<std::string>{"bee", "ant", "ant", "bee", "bee"}));
}

// ---------------------------------------------------------------------------
// Property sweep: every (encoding, shape, size) combination round-trips.

struct Shape {
  const char* name;
  std::vector<int64_t> (*gen)(size_t, Rng*);
};

std::vector<int64_t> GenSorted(size_t n, Rng* rng) {
  std::vector<int64_t> v;
  int64_t x = -1000;
  for (size_t i = 0; i < n; ++i) {
    x += rng->Range(0, 3);
    v.push_back(x);
  }
  return v;
}
std::vector<int64_t> GenRandom(size_t n, Rng* rng) {
  std::vector<int64_t> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<int64_t>(rng->Next()));
  return v;
}
std::vector<int64_t> GenLowCard(size_t n, Rng* rng) {
  std::vector<int64_t> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng->Range(-3, 3));
  return v;
}
std::vector<int64_t> GenPeriodic(size_t n, Rng* rng) {
  std::vector<int64_t> v;
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += rng->Uniform(50) == 0 ? 7777 : 60;
    v.push_back(t);
  }
  return v;
}
std::vector<int64_t> GenConstant(size_t n, Rng*) {
  return std::vector<int64_t>(n, 42);
}

class EncodingPropertyTest
    : public ::testing::TestWithParam<std::tuple<EncodingId, int, size_t>> {};

TEST_P(EncodingPropertyTest, RoundTrip) {
  auto [enc, shape_idx, n] = GetParam();
  static const Shape kShapes[] = {
      {"sorted", GenSorted},   {"random", GenRandom},     {"lowcard", GenLowCard},
      {"periodic", GenPeriodic}, {"constant", GenConstant},
  };
  Rng rng(static_cast<uint64_t>(shape_idx) * 1000 + n);
  ColumnVector col = MakeInts(kShapes[shape_idx].gen(n, &rng));
  ExpectRoundTrip(enc, col);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EncodingPropertyTest,
    ::testing::Combine(::testing::Values(EncodingId::kPlain, EncodingId::kRle,
                                         EncodingId::kDeltaValue, EncodingId::kBlockDict,
                                         EncodingId::kCompressedDeltaRange,
                                         EncodingId::kCompressedCommonDelta,
                                         EncodingId::kAuto),
                       ::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values<size_t>(1, 2, 100, 4096)));

}  // namespace
}  // namespace stratica
