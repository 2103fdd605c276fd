// Reproduces Figure 3: the multi-threaded query plan for a grouping query —
// Scans feeding a StorageUnion that locally resegments into parallel
// prepass GroupBys merged by a ParallelUnion under the final GroupBy and
// Filter. Prints the EXPLAIN tree of the SQL plan, then hand-builds the
// exact Figure-3 pipeline to measure intra-node parallel speedup and the
// prepass reduction.
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

double RunFigure3Pipeline(Database* db, int parallelism, bool prepass,
                          uint64_t* out_rows) {
  auto* ps = db->cluster()->node(0)->GetStorage("sales_super");
  ExecContext ctx = db->MakeExecContext();
  auto morsels = std::make_shared<MorselDispenser>(parallelism);

  // Scan -> StorageUnion(reseg by cust) -> parallel [prepass] GroupBys ->
  // ParallelUnion -> final GroupBy -> Filter(HAVING). The scans share one
  // morsel dispenser.
  std::vector<OperatorPtr> producers;
  for (int p = 0; p < parallelism; ++p) {
    ScanSpec spec;
    spec.storage = ps;
    spec.projection_columns = {0, 1};  // cust, price
    spec.output_names = {"cust", "price"};
    spec.output_types = {TypeId::kInt64, TypeId::kFloat64};
    spec.morsels = morsels;
    producers.push_back(std::make_unique<ScanOperator>(spec));
  }
  auto consumers = MakeRepartitionExchange(std::move(producers), parallelism, {0},
                                           "StorageUnion", false);
  GroupBySpec partial;
  partial.group_columns = {0};
  partial.aggs = {{AggKind::kSum, 1, TypeId::kFloat64}};
  partial.output_names = {"cust", "sum_price"};
  std::vector<OperatorPtr> pipelines;
  for (auto& consumer : consumers) {
    OperatorPtr stage = std::move(consumer);
    if (prepass) {
      stage = std::make_unique<PrepassGroupByOperator>(std::move(stage), partial);
    } else {
      GroupBySpec p2 = partial;
      p2.phase = AggPhase::kPartial;
      stage = std::make_unique<HashGroupByOperator>(std::move(stage), p2);
    }
    pipelines.push_back(std::move(stage));
  }
  OperatorPtr merged = MakeUnionExchange(std::move(pipelines), "ParallelUnion", false);
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
  for (int i = 0; i < kRows; ++i) {
    rows.columns[0].ints.push_back(rng.Range(0, 4999));
    rows.columns[1].doubles.push_back(rng.NextDouble() * 100);
  }
  if (!db.Load("sales", rows, /*direct=*/true).ok()) return 1;
  if (!db.RunTupleMover().ok()) return 1;

  std::printf("=== Figure 3: multi-threaded grouping plan ===\n\n");
  auto explain = db.Execute(
      "EXPLAIN SELECT cust, SUM(price) FROM sales GROUP BY cust "
      "HAVING SUM(price) > 0");
  if (explain.ok()) std::printf("%s\n", explain.value().message.c_str());

  std::printf("hand-built Figure-3 pipeline over %d rows, 5000 groups:\n\n", kRows);
  std::printf("%-28s %10s %8s\n", "configuration", "time", "groups");
  for (int par : {1, 2, 4, 8}) {
    for (bool prepass : {false, true}) {
      uint64_t got = 0;
      double ms = RunFigure3Pipeline(&db, par, prepass, &got);
      std::printf("%d pipeline(s), prepass %-3s %8.1f ms %8lu\n", par,
                  prepass ? "on" : "off", ms, static_cast<unsigned long>(got));
    }
  }
  std::printf("\nStorageUnion resegments rows by the group key so each parallel "
              "GroupBy computes complete\ngroups; the prepass reduces rows "
              "before the exchange exactly as in the figure.\n");
  return 0;
}
