// Sort/merge subsystem sweep (DESIGN.md §8): normalized-key sort across row
// counts and key shapes, external sort across run counts, the fused top-k
// path, and the k-way loser-tree merge kernel against a scan-all-sources
// loop. Results land in BENCH_sort_merge.json.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "exec/merge.h"
#include "exec/simple_ops.h"
#include "storage/sort_util.h"

namespace stratica {
namespace {

enum KeyShape : int {
  kInt1 = 0,      // single int64 key (packed fast path)
  kIntMulti = 1,  // (int ASC, int DESC, int ASC) — the 10M acceptance shape
  kFloat1 = 2,
  kString1 = 3,
  kMixed = 4,  // (int ASC, string DESC)
};

std::vector<SortKey> KeysFor(KeyShape shape) {
  switch (shape) {
    case kInt1: return {{0, false}};
    case kIntMulti: return {{0, false}, {1, true}, {2, false}};
    case kFloat1: return {{3, false}};
    case kString1: return {{4, false}};
    case kMixed: return {{0, false}, {4, true}};
  }
  return {{0, false}};
}

const char* ShapeName(KeyShape shape) {
  switch (shape) {
    case kInt1: return "int1";
    case kIntMulti: return "int_multi3";
    case kFloat1: return "float1";
    case kString1: return "string1";
    case kMixed: return "int_string";
  }
  return "?";
}

/// Shared input block per row count (generated once; sorts copy nothing —
/// they produce permutations + gathered outputs).
const RowBlock& InputBlock(size_t rows) {
  static std::map<size_t, RowBlock> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  Rng rng(42);
  RowBlock block({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64,
                  TypeId::kString});
  for (auto& col : block.columns) col.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    block.columns[0].ints.push_back(rng.Range(0, 1 << 16));
    block.columns[1].ints.push_back(rng.Range(0, 64));
    block.columns[2].ints.push_back(static_cast<int64_t>(rng.Next()));
    block.columns[3].doubles.push_back(rng.NextDouble() * 1e6);
    block.columns[4].strings.push_back(rng.RandomString(4 + rng.Uniform(8)));
  }
  return cache.emplace(rows, std::move(block)).first->second;
}

/// Serves slices of a shared block without copying it (bench-only source).
class BlockSliceOperator : public Operator {
 public:
  explicit BlockSliceOperator(const RowBlock* block) : block_(block) {}
  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    cursor_ = 0;
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override {
    *out = RowBlock(OutputTypes());
    size_t n = block_->NumRows();
    if (cursor_ >= n) return Status::OK();
    size_t take = std::min(ctx_->vector_size, n - cursor_);
    for (size_t c = 0; c < out->columns.size(); ++c) {
      out->columns[c].AppendRange(block_->columns[c], cursor_, take);
    }
    cursor_ += take;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> t;
    for (const auto& c : block_->columns) t.push_back(c.type);
    return t;
  }
  std::vector<std::string> OutputNames() const override {
    return {"a", "b", "c", "d", "e"};
  }
  std::string DebugString() const override { return "BlockSlice"; }

 private:
  const RowBlock* block_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

// --- ORDER BY kernel: normalized-key permutation sort ----------------------

void BM_OrderBy(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  KeyShape shape = static_cast<KeyShape>(state.range(1));
  const RowBlock& input = InputBlock(rows);
  std::vector<SortKey> keys = KeysFor(shape);
  for (auto _ : state) {
    auto perm = ComputeSortPermutationDirected(input, keys);
    RowBlock sorted = ApplyPermutation(input, perm);
    benchmark::DoNotOptimize(sorted.NumRows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.SetLabel(ShapeName(shape));
}
BENCHMARK(BM_OrderBy)
    ->ArgsProduct({{1 << 20}, {kInt1, kIntMulti, kFloat1, kString1, kMixed}})
    ->Args({10 << 20, kIntMulti})
    ->Unit(benchmark::kMillisecond);

// --- External sort: run counts (spill + k-way loser-tree merge) -------------

void BM_ExternalSort(benchmark::State& state) {
  size_t rows = 2 << 20;
  int target_runs = static_cast<int>(state.range(0));
  const RowBlock& input = InputBlock(rows);
  // Budget sized to generate ~target_runs spill runs (1 == fully in-memory).
  MemFileSystem fs;
  ExecStats stats;
  ResourceBudget budget(input.MemoryBytes() / target_runs);
  ExecContext ctx;
  ctx.fs = &fs;
  ctx.stats = &stats;
  if (target_runs > 1) ctx.budget = &budget;
  std::vector<SortKey> keys = KeysFor(kIntMulti);
  size_t runs = 0;
  for (auto _ : state) {
    SortOperator sort(std::make_unique<BlockSliceOperator>(&input), keys);
    auto result = DrainOperator(&sort, &ctx);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    runs = sort.runs_spilled();
    benchmark::DoNotOptimize(result.value().NumRows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.counters["spill_runs"] = static_cast<double>(runs);
  state.counters["spilled_mb"] = static_cast<double>(stats.sort_spilled_bytes.load()) /
                                 (1024.0 * 1024.0 * state.iterations());
}
BENCHMARK(BM_ExternalSort)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

// --- Top-k: fused Limit+Sort heap vs full sort ------------------------------

void BM_TopK(benchmark::State& state) {
  size_t rows = 2 << 20;
  uint64_t k = static_cast<uint64_t>(state.range(0));  // 0 = full sort
  const RowBlock& input = InputBlock(rows);
  MemFileSystem fs;
  ExecStats stats;
  ExecContext ctx;
  ctx.fs = &fs;
  ctx.stats = &stats;
  std::vector<SortKey> keys = KeysFor(kIntMulti);
  for (auto _ : state) {
    SortOperator sort(std::make_unique<BlockSliceOperator>(&input), keys, k);
    auto result = DrainOperator(&sort, &ctx);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().NumRows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.SetLabel(k == 0 ? "full_sort" : "top" + std::to_string(k));
}
BENCHMARK(BM_TopK)->Arg(0)->Arg(10)->Arg(1000)->Arg(100000)->Unit(
    benchmark::kMillisecond);

// --- Merge kernel: k-way loser tree vs comparator scan-all loop -------------

void BM_KWayMerge(benchmark::State& state) {
  size_t rows = 2 << 20;
  size_t k = static_cast<size_t>(state.range(0));
  bool loser_tree = state.range(1) != 0;
  const RowBlock& input = InputBlock(rows);
  std::vector<SortKey> keys = KeysFor(kIntMulti);
  // Pre-sort k runs (round-robin split) outside the timed region.
  std::vector<RowBlock> runs(k);
  {
    std::vector<std::vector<uint32_t>> members(k);
    for (size_t r = 0; r < rows; ++r) members[r % k].push_back(static_cast<uint32_t>(r));
    for (size_t i = 0; i < k; ++i) {
      RowBlock part;
      for (const auto& col : input.columns) {
        ColumnVector pc(col.type);
        pc.AppendGather(col, members[i]);
        part.columns.push_back(std::move(pc));
      }
      auto perm = ComputeSortPermutationDirected(part, keys);
      runs[i] = ApplyPermutation(part, perm);
    }
  }
  std::vector<TypeId> types = {TypeId::kInt64, TypeId::kInt64, TypeId::kInt64,
                               TypeId::kFloat64, TypeId::kString};
  for (auto _ : state) {
    size_t total = 0;
    if (loser_tree) {
      std::vector<std::unique_ptr<MergeInput>> inputs;
      for (const auto& run : runs) {
        inputs.push_back(std::make_unique<BlockMergeInput>(run));
      }
      LoserTreeMerger merger(std::move(inputs), keys);
      if (!merger.Init().ok()) {
        state.SkipWithError("init failed");
        break;
      }
      RowBlock out(types);
      bool merge_ok = true;
      while (merge_ok && !merger.Done()) {
        out.Clear();
        merge_ok = merger.Next(&out, 4096).ok();
        total += out.NumRows();
      }
      if (!merge_ok) {
        state.SkipWithError("merge failed");
        break;
      }
    } else {
      // Baseline: the scan-all-sources comparator loop every consumer used
      // before the loser tree (k-1 type-switch compares per output row).
      std::vector<size_t> cursors(k, 0);
      RowBlock out(types);
      for (;;) {
        if (out.NumRows() >= 4096) {
          total += out.NumRows();
          out.Clear();
        }
        int best = -1;
        for (size_t s = 0; s < k; ++s) {
          if (cursors[s] >= runs[s].NumRows()) continue;
          if (best < 0 ||
              CompareRowsDirected(runs[s], cursors[s], runs[best], cursors[best],
                                  keys) < 0) {
            best = static_cast<int>(s);
          }
        }
        if (best < 0) break;
        out.AppendRowFrom(runs[best], cursors[best]);
        ++cursors[best];
      }
      total += out.NumRows();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.SetLabel(loser_tree ? "loser_tree" : "scan_all_baseline");
}
BENCHMARK(BM_KWayMerge)
    ->ArgsProduct({{2, 8, 32, 128}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
