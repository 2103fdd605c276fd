// Single-query intra-node parallelism sweep (DESIGN.md §12). Run with
//   bench_parallel --benchmark_format=json --benchmark_out=BENCH_parallel.json
//
// Each benchmark runs ONE query at a time against a Database configured
// with intra_node_parallelism = worker_threads = Arg (1, 2, 4, 8), so the
// sweep isolates morsel fan-out from cross-query concurrency (which
// bench_concurrency covers). Speedup at fan-out P = real_time(1) /
// real_time(P) for the same benchmark family.
//
//   BM_ScanGroupByIoBound — the headline scaling figure. Storage reads go
//       through a FaultFs latency rule adding a fixed per-read delay,
//       modeling the paper's disk-resident deployments. The morsel
//       fragments of a single query overlap their read stalls on the
//       worker pool, so the query must speed up ≥3x at fan-out 4+ — this
//       holds even on a 1-core host, because the win comes from
//       overlapping waits, not extra CPU.
//   BM_ScanGroupByCpuBound — the same scan/group-by sweep against the raw
//       in-memory filesystem. Scaling here is bounded by physical cores:
//       near-linear on a multicore runner (the bench-smoke CI job
//       regenerates the artifact there), flat on a 1-core host, which is
//       the honest ceiling. The fan-out=1 point doubles as the
//       single-worker regression guard: a parallel-capable Database at
//       fan-out 1 plans and executes the identical serial operator tree.
//   BM_JoinGroupByIoBound / BM_JoinGroupByCpuBound — fact-dim hash join
//       feeding a group-by, exercising the shared build path (one
//       SharedJoinBuild per join, built once, probed by every fragment).
//   BM_SelectiveScanPair — one selective query on the leading sort column
//       of a 70-block container (it keeps 7 blocks, enough rows for the
//       planner's fan-out gate), at fan-out 1 and 4 in turn, each database
//       behind a FileSystem wrapper that counts read calls. Reports
//       read_ops_ratio = fan-out-4 reads / serial reads, a deterministic
//       count since every morsel opens exactly once, and
//       pruned_scan_pinned_per_query = pinned threads the fan-out-4
//       database's scheduler starts per run of a query that keeps one
//       block (0 when the gate plans it as one pipeline);
//       tools/check_bench_budgets.py gates them below 2 and 1 (DESIGN.md
//       §6, §12).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <mutex>

#include "api/database.h"
#include "common/fault_fs.h"

namespace stratica {
namespace {

constexpr int64_t kFactRows = 200000;
constexpr int64_t kDimRows = 500;
/// Per-read latency of the simulated device, injected via a FaultFs
/// kLatency rule. Sized so the scan is deeply I/O-bound at fan-out 1
/// (~90% stall), as on the paper's disk-resident deployments.
constexpr uint64_t kSimReadLatencyUs = 2500;

std::unique_ptr<Database> MakeDb(std::shared_ptr<FileSystem> fs, int fanout) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
  // Fan-out under test: morsel fragments per scan, and just as many pool
  // workers, so the sweep measures the scheduler rather than oversubscription.
  opts.intra_node_parallelism = static_cast<size_t>(fanout);
  opts.worker_threads = static_cast<size_t>(fanout);
  opts.fs = std::move(fs);
  auto db = std::make_unique<Database>(std::move(opts));
  auto fact_ddl = db->Execute(
      "CREATE TABLE fact (id INT NOT NULL, k INT, grp INT, v FLOAT)");
  auto dim_ddl = db->Execute("CREATE TABLE dim (k INT NOT NULL, bucket INT)");
  if (!fact_ddl.ok() || !dim_ddl.ok()) std::exit(1);
  RowBlock fact({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  for (int64_t i = 0; i < kFactRows; ++i) {
    fact.columns[0].ints.push_back(i);
    fact.columns[1].ints.push_back(i % kDimRows);
    fact.columns[2].ints.push_back(i % 7);
    fact.columns[3].doubles.push_back((i % 97) * 0.25);
  }
  if (!db->Load("fact", fact, /*direct=*/true).ok()) std::exit(1);
  RowBlock dim({TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < kDimRows; ++i) {
    dim.columns[0].ints.push_back(i);
    dim.columns[1].ints.push_back(i % 3);
  }
  if (!db->Load("dim", dim, /*direct=*/true).ok()) std::exit(1);
  if (!db->RunTupleMover().ok()) std::exit(1);
  return db;
}

/// Databases are keyed by (io_bound, fan-out) and built lazily, once,
/// so every benchmark repetition reuses the same loaded storage.
Database* Db(bool io_bound, int fanout) {
  static std::mutex mu;
  // Index 0..3 = fan-out 1/2/4/8; [0] = CPU-bound, [1] = I/O-bound.
  static std::unique_ptr<Database> dbs[2][4];
  int slot = fanout == 1 ? 0 : fanout == 2 ? 1 : fanout == 4 ? 2 : 3;
  std::lock_guard lock(mu);
  auto& db = dbs[io_bound ? 1 : 0][slot];
  if (!db) {
    std::shared_ptr<FileSystem> fs;
    if (io_bound) {
      // Leaked intentionally (lives for the process): FaultFs borrows the
      // base FS.
      auto* base = new MemFileSystem();
      auto fault_fs = std::make_shared<FaultFs>(base, /*seed=*/7);
      FaultRule slow_reads;  // every read pays the device latency
      slow_reads.op_mask = kFaultRead;
      slow_reads.kind = FaultKind::kLatency;
      slow_reads.latency_us = kSimReadLatencyUs;
      fault_fs->AddRule(slow_reads);
      fs = std::move(fault_fs);
    } else {
      fs = std::make_shared<MemFileSystem>();
    }
    db = MakeDb(std::move(fs), fanout);
  }
  return db.get();
}

/// The CPU-bound scan/group-by sweep from the acceptance bar: a selective
/// predicate plus multi-aggregate group-by over the full fact table.
constexpr const char* kSweepQuery =
    "SELECT grp, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
    "FROM fact WHERE k < 400 GROUP BY grp";

constexpr const char* kJoinQuery =
    "SELECT d.bucket, COUNT(*) AS n, SUM(f.v) AS s "
    "FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.bucket";

void RunQuerySweep(benchmark::State& state, bool io_bound, const char* query) {
  Database* db = Db(io_bound, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = db->Execute(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().NumRows());
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel("fanout=" + std::to_string(state.range(0)));
}

void BM_ScanGroupByIoBound(benchmark::State& state) {
  RunQuerySweep(state, /*io_bound=*/true, kSweepQuery);
}
void BM_ScanGroupByCpuBound(benchmark::State& state) {
  RunQuerySweep(state, /*io_bound=*/false, kSweepQuery);
}
void BM_JoinGroupByIoBound(benchmark::State& state) {
  RunQuerySweep(state, /*io_bound=*/true, kJoinQuery);
}
void BM_JoinGroupByCpuBound(benchmark::State& state) {
  RunQuerySweep(state, /*io_bound=*/false, kJoinQuery);
}

/// Counts the storage read calls (whole files and ranges) that reach `base`;
/// every other call passes straight through.
class ReadCountingFs : public FileSystem {
 public:
  explicit ReadCountingFs(std::shared_ptr<FileSystem> base) : base_(std::move(base)) {}
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

  Status WriteFile(const std::string& path, const std::string& data) override {
    return base_->WriteFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return base_->ReadFile(path);
  }
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t length) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return base_->ReadRange(path, offset, length);
  }
  Status ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                       std::string* out) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return base_->ReadRangeInto(path, offset, length, out);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) const override { return base_->Exists(path); }
  Status Delete(const std::string& path) override { return base_->Delete(path); }
  Result<std::vector<std::string>> List(const std::string& prefix) const override {
    return base_->List(prefix);
  }
  Status HardLink(const std::string& source, const std::string& target) override {
    return base_->HardLink(source, target);
  }

 private:
  std::shared_ptr<FileSystem> base_;
  mutable std::atomic<uint64_t> reads_{0};
};

/// 70 full blocks, sorted by id in one container (one local segment).
constexpr int64_t kSelectiveRows = 70 * 16384;

struct CountedDb {
  std::shared_ptr<ReadCountingFs> fs;
  std::unique_ptr<Database> db;
};

CountedDb MakeSelectiveDb(size_t fanout) {
  CountedDb out;
  out.fs = std::make_shared<ReadCountingFs>(std::make_shared<MemFileSystem>());
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
  opts.local_segments_per_node = 1;
  opts.intra_node_parallelism = fanout;
  opts.worker_threads = fanout;
  opts.fs = out.fs;
  out.db = std::make_unique<Database>(std::move(opts));
  if (!out.db->Execute("CREATE TABLE readings (id INT NOT NULL, grp INT, v FLOAT)").ok())
    std::exit(1);
  RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  for (int64_t i = 0; i < kSelectiveRows; ++i) {
    rows.columns[0].ints.push_back(i);
    rows.columns[1].ints.push_back(i % 7);
    rows.columns[2].doubles.push_back((i % 97) * 0.25);
  }
  if (!out.db->Load("readings", rows, /*direct=*/true).ok()) std::exit(1);
  if (!out.db->RunTupleMover().ok()) std::exit(1);
  return out;
}

/// Keeps blocks 30-36 ([491520, 606208)) of the 70, pruning blocks on both
/// sides: 114688 rows, enough for the fan-out gate, so the fan-out-4 side
/// runs the morsel carve.
constexpr const char* kSelectiveQuery =
    "SELECT COUNT(*), SUM(v) FROM readings WHERE id >= 500000 AND id < 600000";
/// Keeps block 30 alone: too few rows to fan out.
constexpr const char* kOneBlockQuery =
    "SELECT COUNT(*), SUM(v) FROM readings WHERE id >= 500000 AND id < 505000";

void BM_SelectiveScanPair(benchmark::State& state) {
  static CountedDb serial = MakeSelectiveDb(1);
  static CountedDb parallel = MakeSelectiveDb(4);
  auto explain = parallel.db->Execute(std::string("EXPLAIN ") + kSelectiveQuery);
  if (!explain.ok() || explain.value().message.find("ParallelUnion") == std::string::npos) {
    state.SkipWithError("the fan-out-4 selective scan is not a parallel plan");
    return;
  }
  const auto& sched = parallel.db->scheduler()->stats();
  uint64_t serial_reads = 0, parallel_reads = 0, pinned = 0, queries = 0;
  for (auto _ : state) {
    uint64_t s0 = serial.fs->reads();
    auto a = serial.db->Execute(kSelectiveQuery);
    uint64_t p0 = parallel.fs->reads();
    auto b = parallel.db->Execute(kSelectiveQuery);
    serial_reads += serial.fs->reads() - s0;
    parallel_reads += parallel.fs->reads() - p0;
    uint64_t t0 = sched.pinned_started.load();
    auto one = parallel.db->Execute(kOneBlockQuery);
    pinned += sched.pinned_started.load() - t0;
    if (!a.ok() || !b.ok() || !one.ok() ||
        a.value().rows.ToString() != b.value().rows.ToString()) {
      state.SkipWithError("selective scan failed or answers differ");
      return;
    }
    ++queries;
  }
  if (serial_reads > 0) {
    state.counters["read_ops_ratio"] =
        static_cast<double>(parallel_reads) / static_cast<double>(serial_reads);
  }
  state.counters["serial_reads_per_query"] =
      static_cast<double>(serial_reads) / static_cast<double>(queries);
  state.counters["fanout4_reads_per_query"] =
      static_cast<double>(parallel_reads) / static_cast<double>(queries);
  state.counters["pruned_scan_pinned_per_query"] =
      static_cast<double>(pinned) / static_cast<double>(queries);
}

BENCHMARK(BM_ScanGroupByIoBound)
    ->RangeMultiplier(2)->Range(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanGroupByCpuBound)
    ->RangeMultiplier(2)->Range(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinGroupByIoBound)
    ->RangeMultiplier(2)->Range(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinGroupByCpuBound)
    ->RangeMultiplier(2)->Range(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectiveScanPair)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
