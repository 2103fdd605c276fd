// Reproduces Figure 3: the multi-threaded query plan for a grouping query,
// in the shape SQL actually runs. The morsel dispenser plays the
// StorageUnion (scans claim ROS containers from one shared queue), each
// fragment runs a partial HashGroupBy (the parallel prepass GroupBys), a
// ParallelUnion gathers the partials into one combine HashGroupBy, and a
// Filter applies HAVING. Prints the EXPLAIN tree of the SQL plan, then
// builds the same pipeline by hand at fan-out 1/2/4/8 to measure intra-node
// parallel speedup.
#include <chrono>
#include <cstdio>

#include "api/database.h"
#include "common/rng.h"
#include "exec/exchange.h"
#include "exec/group_by.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

using namespace stratica;

namespace {

double RunFigure3Pipeline(Database* db, int parallelism, uint64_t* out_rows) {
  auto* ps = db->cluster()->node(0)->GetStorage("sales_super");
  ExecContext ctx = db->MakeExecContext();
  auto morsels = std::make_shared<MorselDispenser>(parallelism);

  // Per fragment: morsel Scan -> partial GroupBy. Then ParallelUnion ->
  // combine GroupBy -> Filter(HAVING).
  GroupBySpec partial;
  partial.group_columns = {0};
  partial.aggs = {{AggKind::kSum, 1, TypeId::kFloat64}};
  partial.phase = AggPhase::kPartial;
  partial.output_names = {"cust", "sum_price"};
  std::vector<OperatorPtr> fragments;
  for (int p = 0; p < parallelism; ++p) {
    ScanSpec spec;
    spec.storage = ps;
    spec.projection_columns = {0, 1};  // cust, price
    spec.output_names = {"cust", "price"};
    spec.output_types = {TypeId::kInt64, TypeId::kFloat64};
    spec.morsels = morsels;
    fragments.push_back(std::make_unique<HashGroupByOperator>(
        std::make_unique<ScanOperator>(spec), partial));
  }
  OperatorPtr merged = MakeUnionExchange(std::move(fragments), "ParallelUnion", false);
  GroupBySpec final_spec = partial;
  final_spec.phase = AggPhase::kCombine;
  OperatorPtr root = std::make_unique<HashGroupByOperator>(std::move(merged),
                                                           final_spec);
  // HAVING SUM(price) > 0 equivalent filter.
  auto pred = Cmp(CompareOp::kGt, ColIdx(1, TypeId::kFloat64),
                  Lit(Value::Float64(0.0)));
  root = std::make_unique<FilterOperator>(std::move(root), pred);

  auto start = std::chrono::steady_clock::now();
  auto rows = DrainOperator(root.get(), &ctx);
  auto end = std::chrono::steady_clock::now();
  *out_rows = rows.ok() ? rows.value().NumRows() : 0;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.local_segments_per_node = 3;
  Database db(opts);
  (void)db.Execute("CREATE TABLE sales (cust INT, price FLOAT)");
  RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
  Rng rng(9);
  constexpr int kRows = 4000000;
  constexpr int kGroups = 5000;
  for (int i = 0; i < kRows; ++i) {
    rows.columns[0].ints.push_back(rng.Range(0, kGroups - 1));
    rows.columns[1].doubles.push_back(rng.NextDouble() * 100);
  }
  if (!db.Load("sales", rows, /*direct=*/true).ok()) return 1;
  if (!db.RunTupleMover().ok()) return 1;

  std::printf("=== Figure 3: multi-threaded grouping plan ===\n\n");
  auto explain = db.Execute(
      "EXPLAIN SELECT cust, SUM(price) FROM sales GROUP BY cust "
      "HAVING SUM(price) > 0");
  if (explain.ok()) std::printf("%s\n", explain.value().message.c_str());

  std::printf("hand-built Figure-3 pipeline over %d rows, %d groups:\n\n", kRows,
              kGroups);
  std::printf("%-16s %10s %8s\n", "configuration", "time", "groups");
  bool all_groups = true;
  for (int par : {1, 2, 4, 8}) {
    uint64_t got = 0;
    double ms = RunFigure3Pipeline(&db, par, &got);
    std::printf("%d pipeline(s)   %8.1f ms %8lu\n", par, ms,
                static_cast<unsigned long>(got));
    all_groups &= got == static_cast<uint64_t>(kGroups);
  }
  if (!all_groups) {
    std::printf("\nFAIL: expected %d groups at every fan-out\n", kGroups);
    return 1;
  }
  std::printf("\nEach fragment's partial GroupBy reduces its morsels to at most "
              "one row per group\nbefore the ParallelUnion; the combine GroupBy "
              "merges those partials.\n");
  return 0;
}
