// Hash aggregation microbenchmark: distinct-cardinality sweep from 10 to
// 10M groups over an in-memory input (no storage layer), isolating the
// group-by hash path. Counters are machine-readable: run with
//   bench_group_by --benchmark_format=json --benchmark_out=BENCH_group_by.json
// to track the perf trajectory; rows_per_sec is the headline figure.
#include <benchmark/benchmark.h>

#include <map>

#include "common/rng.h"
#include "exec/group_by.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

constexpr int64_t kRows = 8000000;

/// Input shared across benchmark runs: kRows rows of (int64 key, float64
/// payload). Keys for a given cardinality are `rng % cardinality` scaled by
/// a large odd stride so consecutive keys don't land in adjacent hash slots
/// by accident.
const RowBlock& InputFor(int64_t cardinality) {
  static std::map<int64_t, RowBlock> cache;
  auto it = cache.find(cardinality);
  if (it != cache.end()) return it->second;
  RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
  rows.columns[0].ints.reserve(kRows);
  rows.columns[1].doubles.reserve(kRows);
  Rng rng(42);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.columns[0].ints.push_back(
        static_cast<int64_t>(rng.Range(0, cardinality - 1)) * 2654435761LL);
    rows.columns[1].doubles.push_back(rng.NextDouble());
  }
  return cache.emplace(cardinality, std::move(rows)).first->second;
}

void BM_HashGroupBy(benchmark::State& state) {
  int64_t cardinality = state.range(0);
  const RowBlock& input = InputFor(cardinality);
  int64_t out_rows = 0;
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "total", "n"};
  HashGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input,
                                             std::vector<std::string>{"k", "payload"}),
      spec);
  for (auto _ : state) {
    ExecContext ctx;
    auto rows = DrainOperator(&gb, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    out_rows = static_cast<int64_t>(rows.value().NumRows());
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["groups"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kRows) * state.iterations(), benchmark::Counter::kIsRate);
  state.SetLabel("distinct=" + std::to_string(cardinality));
}

BENCHMARK(BM_HashGroupBy)
    ->Arg(10)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
