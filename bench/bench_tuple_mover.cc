// Tuple mover benchmarks: mergeout through the shared loser-tree merge
// kernel across fan-ins (DESIGN.md §8), and the Section 4
// strata-policy ablation (exponential strata bound how often a tuple is
// rewritten; eager and lazy merging both hurt).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "common/rng.h"
#include "storage/projection_storage.h"
#include "tuplemover/tuple_mover.h"
#include "txn/transaction.h"

namespace stratica {
namespace {

struct MoverHarness {
  MemFileSystem fs;
  EpochManager epochs;
  LockManager locks;
  TransactionManager tm{&epochs, &locks};
  std::unique_ptr<TupleMover> mover;
  std::unique_ptr<ProjectionStorage> ps;

  MoverHarness(const TupleMoverConfig& cfg, uint32_t sort_cols) {
    mover = std::make_unique<TupleMover>(&epochs, cfg);
    ProjectionStorageConfig pcfg;
    pcfg.projection = "p";
    pcfg.column_names = {"k", "k2", "v"};
    pcfg.column_types = {TypeId::kInt64, TypeId::kInt64, TypeId::kInt64};
    pcfg.encodings = {EncodingId::kAuto, EncodingId::kAuto, EncodingId::kAuto};
    for (uint32_t c = 0; c < sort_cols; ++c) pcfg.sort_columns.push_back(c);
    pcfg.num_local_segments = 1;
    ps = std::make_unique<ProjectionStorage>(&fs, "node0/p", pcfg);
  }

  bool LoadBatch(Rng* rng, size_t rows) {
    RowBlock block({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
    for (size_t i = 0; i < rows; ++i) {
      block.columns[0].ints.push_back(rng->Range(0, 1 << 20));
      block.columns[1].ints.push_back(rng->Range(0, 64));
      block.columns[2].ints.push_back(static_cast<int64_t>(rng->Next()));
    }
    auto txn = tm.Begin();
    if (!ps->InsertWos(std::move(block), txn.get()).ok()) return false;
    if (!tm.Commit(txn).ok()) return false;
    return mover->Moveout(ps.get()).ok();
  }
};

/// Mergeout of `fanin` containers (20k rows each). Setup (load + moveout) is
/// excluded from timing.
void BM_Mergeout(benchmark::State& state) {
  size_t fanin = static_cast<size_t>(state.range(0));
  TupleMoverConfig cfg;
  cfg.strata_base_bytes = 1 << 30;  // everything in stratum 0: one big merge
  cfg.merge_fanin_min = 2;
  cfg.merge_fanin_max = fanin;
  uint64_t rows_merged = 0;
  // Manual timing: only MergeoutOnce is measured; the load + moveout setup
  // per iteration stays outside the clock.
  for (auto _ : state) {
    MoverHarness h(cfg, /*sort_cols=*/2);
    Rng rng(7);
    bool ok = true;
    for (size_t b = 0; b < fanin; ++b) ok &= h.LoadBatch(&rng, 20000);
    if (!ok) state.SkipWithError("setup failed");
    auto start = std::chrono::steady_clock::now();
    auto merged = h.mover->MergeoutOnce(h.ps.get());
    auto stop = std::chrono::steady_clock::now();
    if (!merged.ok() || !merged.value()) state.SkipWithError("mergeout failed");
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    rows_merged = h.mover->stats().rows_merged;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows_merged) * state.iterations());
}
BENCHMARK(BM_Mergeout)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Section 4 ablation: rewrite amplification and final container counts per
/// strata policy after a many-batch load with continuous merging.
void BM_StrataPolicy(benchmark::State& state) {
  double factor = static_cast<double>(state.range(0));
  size_t fanin_min = static_cast<size_t>(state.range(1));
  TupleMoverConfig cfg;
  cfg.strata_base_bytes = 64 << 10;
  cfg.strata_factor = factor;
  cfg.merge_fanin_min = fanin_min;
  uint64_t loaded = 0, rewritten = 0, mergeouts = 0, containers = 0;
  for (auto _ : state) {
    MoverHarness h(cfg, /*sort_cols=*/1);
    Rng rng(1);
    loaded = 0;
    for (int batch = 0; batch < 40; ++batch) {
      if (!h.LoadBatch(&rng, 20000)) state.SkipWithError("load failed");
      loaded += 20000;
      auto merged = h.mover->MergeoutOnce(h.ps.get());
      if (!merged.ok()) state.SkipWithError("mergeout failed");
    }
    if (!h.mover->MergeoutAll(h.ps.get()).ok()) state.SkipWithError("quiesce failed");
    rewritten = h.mover->stats().rows_merged;
    mergeouts = h.mover->stats().mergeouts;
    containers = h.ps->NumContainers();
  }
  state.counters["mergeouts"] = static_cast<double>(mergeouts);
  state.counters["amplification"] =
      loaded == 0 ? 0.0 : static_cast<double>(rewritten) / static_cast<double>(loaded);
  state.counters["containers"] = static_cast<double>(containers);
  state.SetItemsProcessed(static_cast<int64_t>(loaded) * state.iterations());
}
BENCHMARK(BM_StrataPolicy)
    ->Args({2, 2})    // eager
    ->Args({8, 4})    // strata (production-ish)
    ->Args({64, 16})  // lazy
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
