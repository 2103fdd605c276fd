#include "storage/column_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/fault_fs.h"
#include "common/rng.h"

namespace stratica {
namespace {

TEST(ColumnFileTest, WriteReadRoundTrip) {
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kInt64, EncodingId::kAuto, /*rows_per_block=*/100);
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 1234; ++i) col.ints.push_back(i * 3);
  ASSERT_TRUE(writer.Append(col).ok());
  auto meta = writer.Finish(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().num_rows, 1234u);
  EXPECT_EQ(meta.value().blocks.size(), 13u);  // ceil(1234/100)

  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out;
  ASSERT_TRUE(reader.value().ReadAll(&out).ok());
  ASSERT_EQ(out.ints.size(), 1234u);
  for (int i = 0; i < 1234; ++i) EXPECT_EQ(out.ints[i], i * 3);
}

TEST(ColumnFileTest, BlockMetaMinMaxAndPositions) {
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kInt64, EncodingId::kPlain, 10);
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 35; ++i) col.ints.push_back(100 - i);
  ASSERT_TRUE(writer.Append(col).ok());
  auto meta = writer.Finish(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(meta.ok());
  const auto& blocks = meta.value().blocks;
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].row_start, 0u);
  EXPECT_EQ(blocks[0].row_count, 10u);
  EXPECT_EQ(blocks[0].min.i64(), 91);
  EXPECT_EQ(blocks[0].max.i64(), 100);
  EXPECT_EQ(blocks[3].row_start, 30u);
  EXPECT_EQ(blocks[3].row_count, 5u);
  EXPECT_EQ(blocks[3].min.i64(), 66);
  // Column-level bounds.
  EXPECT_EQ(meta.value().min.i64(), 66);
  EXPECT_EQ(meta.value().max.i64(), 100);
}

// Block bounds follow the engine's double order: NaN is the largest value,
// so a leading NaN must not hide the block's real minimum from pruning.
TEST(ColumnFileTest, BlockMetaMinMaxWithNan) {
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kFloat64, EncodingId::kPlain, 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ColumnVector col(TypeId::kFloat64);
  col.doubles = {nan, 3.0, 1.0, nan};
  ASSERT_TRUE(writer.Append(col).ok());
  auto meta = writer.Finish(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta.value().blocks.size(), 1u);
  EXPECT_EQ(meta.value().blocks[0].min.f64(), 1.0);
  EXPECT_TRUE(std::isnan(meta.value().blocks[0].max.f64()));
  EXPECT_EQ(meta.value().min.f64(), 1.0);
  EXPECT_TRUE(std::isnan(meta.value().max.f64()));
}

TEST(ColumnFileTest, SingleBlockRandomRead) {
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kString, EncodingId::kAuto, 8);
  ColumnVector col(TypeId::kString);
  for (int i = 0; i < 20; ++i) col.strings.push_back("val" + std::to_string(i));
  ASSERT_TRUE(writer.Append(col).ok());
  ASSERT_TRUE(writer.Finish(&fs, "s.dat", "s.idx").ok());

  auto reader = ColumnReader::Open(&fs, "s.dat", "s.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out(TypeId::kString);
  ASSERT_TRUE(reader.value().ReadBlock(1, &out).ok());
  ASSERT_EQ(out.strings.size(), 8u);
  EXPECT_EQ(out.strings[0], "val8");
  EXPECT_EQ(out.strings[7], "val15");
}

TEST(ColumnFileTest, NullsAcrossBlocks) {
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kFloat64, EncodingId::kAuto, 7);
  ColumnVector col(TypeId::kFloat64);
  for (int i = 0; i < 50; ++i) {
    col.Append((i % 5 == 0) ? Value::Null(TypeId::kFloat64) : Value::Float64(i * 1.5));
  }
  ASSERT_TRUE(writer.Append(col).ok());
  ASSERT_TRUE(writer.Finish(&fs, "f.dat", "f.idx").ok());
  auto reader = ColumnReader::Open(&fs, "f.dat", "f.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out;
  ASSERT_TRUE(reader.value().ReadAll(&out).ok());
  ASSERT_EQ(out.PhysicalSize(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(out.IsNull(i), i % 5 == 0) << i;
    if (i % 5 != 0) EXPECT_DOUBLE_EQ(out.doubles[i], i * 1.5);
  }
}

// A column appended in uneven chunks, one of them dict-coded, must write
// exactly the bytes and block index of the same column appended at once:
// blocks split every rows_per_block rows of the column, whatever the chunks.
void ExpectChunkedMatchesOneShot(const ColumnVector& full,
                                 const std::vector<ColumnVector>& chunks, EncodingId enc,
                                 size_t rows_per_block) {
  MemFileSystem fs;
  ColumnWriter one(full.type, enc, rows_per_block);
  ASSERT_TRUE(one.Append(full).ok());
  auto one_meta = one.Finish(&fs, "one.dat", "one.idx");
  ASSERT_TRUE(one_meta.ok());
  ColumnWriter chunked(full.type, enc, rows_per_block);
  for (const auto& c : chunks) ASSERT_TRUE(chunked.Append(c).ok());
  EXPECT_EQ(chunked.rows_buffered_total(), full.PhysicalSize());
  auto chunked_meta = chunked.Finish(&fs, "chunked.dat", "chunked.idx");
  ASSERT_TRUE(chunked_meta.ok());

  EXPECT_EQ(fs.ReadFile("one.dat").value(), fs.ReadFile("chunked.dat").value());
  EXPECT_EQ(fs.ReadFile("one.idx").value(), fs.ReadFile("chunked.idx").value());
  const auto& a = one_meta.value().blocks;
  const auto& b = chunked_meta.value().blocks;
  ASSERT_EQ(a.size(), (full.PhysicalSize() + rows_per_block - 1) / rows_per_block);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].encoded_bytes, b[i].encoded_bytes);
    EXPECT_EQ(a[i].row_start, b[i].row_start);
    EXPECT_EQ(a[i].row_start, i * rows_per_block);
    EXPECT_EQ(a[i].row_count, b[i].row_count);
    EXPECT_EQ(a[i].min.is_null(), b[i].min.is_null());
    EXPECT_EQ(a[i].min.Compare(b[i].min), 0);
    EXPECT_EQ(a[i].max.Compare(b[i].max), 0);
    EXPECT_EQ(a[i].null_count, b[i].null_count);
    EXPECT_EQ(a[i].crc, b[i].crc);
  }
  EXPECT_EQ(one_meta.value().raw_bytes, chunked_meta.value().raw_bytes);
}

// Splits flat `full` into chunks of 1, rpb - 1, 2 * rpb + 3 and the remaining
// rows. The third chunk is dict-coded over a sorted dictionary of its
// distinct values.
std::vector<ColumnVector> UnevenChunks(const ColumnVector& full, size_t rpb) {
  std::vector<size_t> sizes = {1, rpb - 1, 2 * rpb + 3};
  sizes.push_back(full.PhysicalSize() - 1 - (rpb - 1) - (2 * rpb + 3));
  std::vector<ColumnVector> chunks;
  size_t pos = 0;
  for (size_t k = 0; k < sizes.size(); ++k) {
    ColumnVector c(full.type);
    c.AppendRange(full, pos, sizes[k]);
    if (k == 2) {
      std::vector<uint32_t> order(c.PhysicalSize());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
      std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return ColumnVector::CompareEntries(c, x, c, y) < 0;
      });
      auto dict = std::make_shared<ColumnVector>(full.type);
      ColumnVector coded(full.type);
      coded.ints.assign(c.PhysicalSize(), 0);
      coded.nulls = c.nulls;
      for (uint32_t i : order) {
        if (c.IsNull(i)) continue;  // NULL rows keep code 0
        if (dict->PhysicalSize() == 0 ||
            ColumnVector::CompareEntries(*dict, dict->PhysicalSize() - 1, c, i) != 0)
          dict->AppendFrom(c, i);
        coded.ints[i] = static_cast<int64_t>(dict->PhysicalSize() - 1);
      }
      coded.dict = dict;
      coded.dict_sorted = true;
      c = std::move(coded);
    }
    pos += sizes[k];
    chunks.push_back(std::move(c));
  }
  return chunks;
}

TEST(ColumnFileTest, UnevenChunkAppendsMatchOneShot) {
  constexpr size_t kRpb = 64;
  constexpr size_t kRows = 5 * kRpb + 17;
  Rng rng(11);
  ColumnVector strs(TypeId::kString), ints(TypeId::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    bool null = rng.Uniform(7) == 0;
    strs.Append(null ? Value::Null(TypeId::kString)
                     : Value::String("s" + std::to_string(rng.Uniform(40))));
    ints.Append(null ? Value::Null(TypeId::kInt64)
                     : Value::Int64(static_cast<int64_t>(i / 3 + rng.Uniform(4))));
  }
  // NULLs only in the last chunk, so the earlier chunks carry no null flags.
  ColumnVector late_nulls(TypeId::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    late_nulls.Append(i >= kRows - 5 ? Value::Null(TypeId::kInt64)
                                     : Value::Int64(static_cast<int64_t>(i % 9)));
  }
  for (EncodingId enc : {EncodingId::kAuto, EncodingId::kPlain, EncodingId::kRle,
                         EncodingId::kBlockDict}) {
    SCOPED_TRACE(static_cast<int>(enc));
    ExpectChunkedMatchesOneShot(strs, UnevenChunks(strs, kRpb), enc, kRpb);
    ExpectChunkedMatchesOneShot(ints, UnevenChunks(ints, kRpb), enc, kRpb);
    ExpectChunkedMatchesOneShot(late_nulls, UnevenChunks(late_nulls, kRpb), enc, kRpb);
  }
}

TEST(ColumnFileTest, PositionIndexIsSmallFractionOfData) {
  // The paper: position index ~ 1/1000 of raw column data.
  MemFileSystem fs;
  ColumnWriter writer(TypeId::kInt64, EncodingId::kPlain, kDefaultRowsPerBlock);
  ColumnVector col(TypeId::kInt64);
  Rng rng(3);
  for (int i = 0; i < 500000; ++i) col.ints.push_back(static_cast<int64_t>(rng.Next()));
  ASSERT_TRUE(writer.Append(col).ok());
  auto meta = writer.Finish(&fs, "big.dat", "big.idx");
  ASSERT_TRUE(meta.ok());
  auto data_size = fs.FileSize("big.dat");
  auto index_size = fs.FileSize("big.idx");
  ASSERT_TRUE(data_size.ok() && index_size.ok());
  EXPECT_LT(index_size.value() * 500, data_size.value());
}

TEST(ColumnFileTest, MetaSerializationRoundTrip) {
  ColumnFileMeta meta;
  meta.type = TypeId::kDate;
  meta.num_rows = 777;
  meta.raw_bytes = 6216;
  meta.encoded_bytes = 123;
  meta.min = Value::Date(10);
  meta.max = Value::Date(500);
  BlockMeta b;
  b.offset = 0;
  b.encoded_bytes = 123;
  b.row_start = 0;
  b.row_count = 777;
  b.min = meta.min;
  b.max = meta.max;
  b.null_count = 3;
  meta.blocks.push_back(b);
  auto parsed = ParseColumnFileMeta(SerializeColumnFileMeta(meta));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_rows, 777u);
  EXPECT_EQ(parsed.value().blocks.size(), 1u);
  EXPECT_EQ(parsed.value().blocks[0].min.i64(), 10);
  EXPECT_EQ(parsed.value().blocks[0].null_count, 3u);
  EXPECT_EQ(parsed.value().type, TypeId::kDate);
}

// --- integrity & fault handling (DESIGN.md §10) -----------------------------

// Writes a small int64 column to `fs` and returns nothing; asserts on error.
void WriteTestColumn(FileSystem* fs, const std::string& dat, const std::string& idx) {
  ColumnWriter writer(TypeId::kInt64, EncodingId::kPlain, /*rows_per_block=*/50);
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 300; ++i) col.ints.push_back(i);
  ASSERT_TRUE(writer.Append(col).ok());
  ASSERT_TRUE(writer.Finish(fs, dat, idx).ok());
}

void FlipByte(FileSystem* fs, const std::string& path, size_t pos) {
  auto raw = fs->ReadFile(path);
  ASSERT_TRUE(raw.ok());
  std::string damaged = raw.value();
  ASSERT_LT(pos, damaged.size());
  damaged[pos] ^= 0x10;
  ASSERT_TRUE(fs->WriteFile(path, damaged).ok());
}

TEST(ColumnFileTest, CorruptDataBlockDetected) {
  MemFileSystem fs;
  WriteTestColumn(&fs, "c.dat", "c.idx");
  FlipByte(&fs, "c.dat", 10);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());  // index is intact; damage is in a data block
  ColumnVector out;
  Status st = reader.value().ReadAll(&out);
  ASSERT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("c.dat"), std::string::npos);
}

TEST(ColumnFileTest, CorruptSingleBlockOnlyThatBlockFails) {
  MemFileSystem fs;
  WriteTestColumn(&fs, "c.dat", "c.idx");
  // Damage near the end of the data file: a late block's bytes.
  auto size = fs.FileSize("c.dat");
  ASSERT_TRUE(size.ok());
  FlipByte(&fs, "c.dat", size.value() - 4);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out;
  EXPECT_TRUE(reader.value().ReadBlock(0, &out).ok());  // early block clean
  ColumnVector bad;
  EXPECT_EQ(reader.value().ReadBlock(5, &bad).code(), StatusCode::kCorruption);
}

TEST(ColumnFileTest, CorruptIndexDetectedAtOpen) {
  MemFileSystem fs;
  WriteTestColumn(&fs, "c.dat", "c.idx");
  FlipByte(&fs, "c.idx", 3);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("c.idx"), std::string::npos);
}

TEST(ColumnFileTest, TornIndexDetectedAtOpen) {
  MemFileSystem fs;
  WriteTestColumn(&fs, "c.dat", "c.idx");
  auto raw = fs.ReadFile("c.idx");
  ASSERT_TRUE(raw.ok());
  std::string torn = raw.value().substr(0, raw.value().size() / 2);
  ASSERT_TRUE(fs.WriteFile("c.idx", torn).ok());
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(ColumnFileTest, TransientReadFaultsAbsorbedByRetry) {
  MemFileSystem base;
  FaultFs fs(&base, 11);
  WriteTestColumn(&fs, "c.dat", "c.idx");
  FaultRule rule;
  rule.op_mask = kFaultRead;
  rule.every_nth = 2;  // every other read blips; retry must absorb all of them
  rule.kind = FaultKind::kTransientError;
  fs.AddRule(rule);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out;
  ASSERT_TRUE(reader.value().ReadAll(&out).ok());
  ASSERT_EQ(out.ints.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(out.ints[i], i);
  EXPECT_GT(reader.value().io_retries(), 0u);
}

TEST(ColumnFileTest, PersistentReadFaultSurfacesAsIoError) {
  MemFileSystem base;
  FaultFs fs(&base, 11);
  WriteTestColumn(&fs, "c.dat", "c.idx");
  FaultRule rule;
  rule.path_pattern = "c\\.dat";
  rule.op_mask = kFaultRead;
  rule.kind = FaultKind::kPersistentError;
  fs.AddRule(rule);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());  // index ("c.idx") unaffected by the rule
  ColumnVector out;
  Status st = reader.value().ReadAll(&out);
  ASSERT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(st.IsTransient());
}

TEST(ColumnFileTest, FaultFsCorruptionCaughtByBlockCrc) {
  MemFileSystem base;
  FaultFs fs(&base, 23);
  WriteTestColumn(&fs, "c.dat", "c.idx");
  FaultRule rule;
  rule.path_pattern = "c\\.dat";
  rule.op_mask = kFaultRead;
  rule.kind = FaultKind::kCorruptBits;
  fs.AddRule(rule);
  auto reader = ColumnReader::Open(&fs, "c.dat", "c.idx");
  ASSERT_TRUE(reader.ok());
  ColumnVector out;
  EXPECT_EQ(reader.value().ReadAll(&out).code(), StatusCode::kCorruption);
}

// --- MemFileSystem concurrency (TSan target) --------------------------------
// Delete and HardLink racing ReadRangeInto on the same paths: before the
// snapshot fix, readers could observe a partially destructed string. Run
// under TSan in CI; here it must simply not crash and every successful read
// must return intact bytes.
TEST(MemFileSystemRaceTest, DeleteAndHardLinkVsReads) {
  MemFileSystem fs;
  const std::string payload(8192, 'q');
  ASSERT_TRUE(fs.WriteFile("src", payload).ok());
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good_reads{0};
  // Latch: the mutator starts once every reader has finished one read, so it
  // cannot finish its churn before any reader is scheduled.
  std::atomic<int> readers_pending{kReaders};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        for (const char* path : {"src", "link"}) {
          std::string out;
          Status st = fs.ReadRangeInto(path, 100, 4096, &out);
          // Count down before any assertion can return, or the mutator
          // would hang.
          if (first) readers_pending.fetch_sub(1);
          first = false;
          if (st.ok()) {
            ASSERT_EQ(out.size(), 4096u);
            ASSERT_EQ(out, std::string(4096, 'q'));
            good_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread mutator([&] {
    while (readers_pending.load() > 0) std::this_thread::yield();
    for (int i = 0; i < 2000; ++i) {
      (void)fs.HardLink("src", "link");
      (void)fs.Delete("link");
    }
    stop.store(true, std::memory_order_release);
  });
  mutator.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(good_reads.load(), 0u);
  // Source must be untouched by the link/delete churn.
  auto final_read = fs.ReadFile("src");
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read.value(), payload);
}

TEST(MemFileSystemRaceTest, ConcurrentWritersAndListers) {
  MemFileSystem fs;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fs, t] {
      for (int i = 0; i < 500; ++i) {
        std::string path = "dir" + std::to_string(t) + "/f" + std::to_string(i % 7);
        ASSERT_TRUE(fs.WriteFile(path, std::string(64, 'a' + t)).ok());
        (void)fs.List("dir" + std::to_string((t + 1) % 4) + "/");
        (void)fs.FileSize(path);
        (void)fs.Delete(path);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace stratica
