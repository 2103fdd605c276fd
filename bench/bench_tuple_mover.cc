// Tuple mover benchmarks: mergeout through the shared loser-tree merge
// kernel across fan-ins (DESIGN.md §8), the Section 4
// strata-policy ablation (exponential strata bound how often a tuple is
// rewritten; eager and lazy merging both hurt), and the per-scan cost of
// the deletes the mover has not purged yet (DESIGN.md §1).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "api/database.h"
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

/// A meter-style table (metric, meter, collected, value), 20 metrics x 100
/// meters x 288 readings in one ROS container, sorted by its columns in
/// order; with `delete_series`, the first that many series of metrics 10
/// and up are deleted, one 288-position chunk per DELETE.
std::unique_ptr<Database> MakeMeterDb(int delete_series) {
  DatabaseOptions opts;
  opts.worker_threads = 4;
  opts.local_segments_per_node = 1;
  auto db = std::make_unique<Database>(opts);
  if (!db->Execute("CREATE TABLE readings (metric INT, meter INT, collected INT, "
                   "value FLOAT)")
           .ok())
    std::exit(1);
  RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  Rng rng(3);
  for (int metric = 0; metric < 20; ++metric) {
    for (int meter = 0; meter < 100; ++meter) {
      for (int k = 0; k < 288; ++k) {
        rows.columns[0].ints.push_back(metric);
        rows.columns[1].ints.push_back(meter);
        rows.columns[2].ints.push_back(k);
        rows.columns[3].doubles.push_back(50 + rng.NextDouble() * 10);
      }
    }
  }
  if (!db->Load("readings", rows, /*direct=*/true).ok()) std::exit(1);
  if (!db->RunTupleMover().ok()) std::exit(1);
  for (int s = 0; s < delete_series; ++s) {
    auto del = db->Execute("DELETE FROM readings WHERE metric = " + std::to_string(10 + s / 100) +
                           " AND meter = " + std::to_string(s % 100));
    if (!del.ok() || del.value().affected_rows != 288) std::exit(1);
  }
  return db;
}

/// Interleaves the same point read on a table with no deletes and on one
/// with 1000 committed 288-position delete chunks in blocks the read never
/// touches, and reports read_after_deletes_ratio (with / without). A reader
/// pays only for the deletes in the blocks it reads, so the ratio stays
/// near 1 however many chunks sit elsewhere.
void BM_ReadAfterDeletesPair(benchmark::State& state) {
  static Database* clean = MakeMeterDb(0).release();
  static Database* deleted = MakeMeterDb(1000).release();
  Rng rng(11);
  double clean_ns = 0, deleted_ns = 0;
  for (auto _ : state) {
    std::string sql = "SELECT AVG(value) FROM readings WHERE metric = " +
                      std::to_string(rng.Range(0, 9)) +
                      " AND meter = " + std::to_string(rng.Range(0, 99));
    auto t0 = std::chrono::steady_clock::now();
    auto a = clean->Execute(sql);
    auto t1 = std::chrono::steady_clock::now();
    auto b = deleted->Execute(sql);
    auto t2 = std::chrono::steady_clock::now();
    if (!a.ok() || !b.ok()) {
      state.SkipWithError("read failed");
      return;
    }
    clean_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    deleted_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    benchmark::DoNotOptimize(a.value().NumRows() + b.value().NumRows());
  }
  if (clean_ns > 0) state.counters["read_after_deletes_ratio"] = deleted_ns / clean_ns;
}
BENCHMARK(BM_ReadAfterDeletesPair)->Unit(benchmark::kMillisecond)->MinTime(1.0)->UseRealTime();

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
