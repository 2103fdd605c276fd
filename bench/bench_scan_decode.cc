// Late-materialization scan ablation (Section 6.1, DESIGN.md §7) and the
// compressed-execution sweep (DESIGN.md §13).
//
// Part 1 (BM_ScanDecode) sweeps predicate selectivity from 0.01% to 100%
// over a projection with one filter column and three payload columns (int,
// float, string). Payload columns are decoded only for surviving rows, so
// cost tracks selectivity; the string payload shows it most, since an
// unselected row never heap-allocates a std::string.
//
// Part 2 (BM_Compressed*) is the encoded-eval versus decode-then-eval
// sweep: predicate + COUNT(*) over each encoding (RLE / BlockDict / Delta /
// plain) across the same selectivity range, plus group-by on a dictionary
// key. Each point runs once on encoded views of the encoded projection and
// once decode-first, on an all-PLAIN second projection of the same table
// whose blocks are flat to begin with. CI emits this part as
// BENCH_compressed_exec.json.
#include <benchmark/benchmark.h>

#include "api/database.h"
#include "common/rng.h"
#include "exec/group_by.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

constexpr int64_t kRows = 4000000;
constexpr int64_t kKeySpace = 1000000;  // k uniform in [0, kKeySpace)

struct Fixture {
  Fixture() {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.local_segments_per_node = 1;
    db = std::make_unique<Database>(opts);
    (void)db->Execute(
        "CREATE TABLE fact (k INT, a INT, f FLOAT, s VARCHAR)");
    RowBlock rows(
        {TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64, TypeId::kString});
    Rng rng(17);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, kKeySpace - 1));
      rows.columns[1].ints.push_back(rng.Range(0, 1 << 20));
      rows.columns[2].doubles.push_back(rng.NextDouble());
      rows.columns[3].strings.push_back("payload-" + std::to_string(rng.Uniform(100000)));
    }
    (void)db->Load("fact", rows, true);
    (void)db->RunTupleMover();
    ps = db->cluster()->node(0)->GetStorage("fact_super");
  }
  std::unique_ptr<Database> db;
  ProjectionStorage* ps;
};

Fixture& GetFixture() {
  static Fixture f;
  return f;
}

void BM_ScanDecode(benchmark::State& state) {
  auto& f = GetFixture();
  int64_t sel_ppm = state.range(0);  // selectivity in parts per million
  int64_t threshold = kKeySpace * sel_ppm / 1000000;

  uint64_t rows_out = 0;
  for (auto _ : state) {
    ExecContext ctx = f.db->MakeExecContext();
    ScanSpec spec;
    spec.storage = f.ps;
    spec.projection_columns = {0, 1, 2, 3};
    spec.output_names = {"k", "a", "f", "s"};
    spec.output_types = {TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64,
                         TypeId::kString};
    auto pred = Cmp(CompareOp::kLt, Col("k"), Lit(Value::Int64(threshold)));
    BindSchema schema;
    schema.Add("k", TypeId::kInt64);
    schema.Add("a", TypeId::kInt64);
    schema.Add("f", TypeId::kFloat64);
    schema.Add("s", TypeId::kString);
    if (!BindExpr(pred, schema).ok()) {
      state.SkipWithError("bind failed");
      return;
    }
    spec.predicate = pred;
    ScanOperator scan(spec);
    auto rows = DrainOperator(&scan, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    rows_out = rows.value().NumRows();
    benchmark::DoNotOptimize(rows_out);
  }
  state.SetItemsProcessed(state.iterations() * kRows);  // scanned rows/sec
  state.SetLabel("sel=" + std::to_string(sel_ppm / 10000.0) + "%/rows_out=" +
                 std::to_string(rows_out));
}

BENCHMARK(BM_ScanDecode)
    ->ArgNames({"ppm"})
    ->Arg(100)      // 0.01%
    ->Arg(10000)    // 1%
    ->Arg(100000)   // 10%
    ->Arg(1000000)  // 100%
    ->Unit(benchmark::kMillisecond);

// ---- compressed execution sweep (DESIGN.md §13) ----------------------------

constexpr int64_t kCRows = 4000000;
constexpr int64_t kCDistinct = 1000;  // low-distinct domain of every column

// One projection pinning each sweep encoding to a column over the same
// 1000-value domain: `r` leads the sort order (runs of ~4000 → RLE), `s` is
// a 1000-string dictionary, `dv` ascends (delta), `p` is the plain control.
// A second projection of the same rows, sorted the same way, stores every
// column PLAIN: the decode-first baseline.
struct CompressedFixture {
  CompressedFixture() {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.k_safety = 0;
    opts.local_segments_per_node = 1;
    db = std::make_unique<Database>(opts);
    TableDef t;
    t.name = "cfact";
    t.columns = {{"r", TypeId::kInt64, false},
                 {"s", TypeId::kString, false},
                 {"dv", TypeId::kInt64, false},
                 {"p", TypeId::kInt64, false}};
    ProjectionDef proj;
    proj.name = "cfact_super";
    proj.anchor_table = "cfact";
    proj.columns = {{"r", -1, EncodingId::kRle},
                    {"s", -1, EncodingId::kBlockDict},
                    {"dv", -1, EncodingId::kDeltaValue},
                    {"p", -1, EncodingId::kPlain}};
    proj.sort_columns = {0};
    proj.is_super = true;
    proj.segmentation.expr = Func(FuncKind::kHash, {Col("dv")});
    ProjectionDef plain = proj;
    plain.name = "cfact_plain";
    // Projection creation binds the segmentation expression in place, so
    // the twin gets its own rather than sharing `proj`'s.
    plain.segmentation.expr = Func(FuncKind::kHash, {Col("dv")});
    for (auto& c : plain.columns) c.encoding = EncodingId::kPlain;
    (void)db->catalog()->CreateTable(std::move(t));
    (void)db->cluster()->CreateProjectionWithBuddies(proj);
    (void)db->cluster()->CreateProjectionWithBuddies(plain);
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64, TypeId::kInt64});
    Rng rng(23);
    for (int64_t i = 0; i < kCRows; ++i) {
      rows.columns[0].ints.push_back(i * kCDistinct / kCRows);
      rows.columns[1].strings.push_back("d" + std::to_string(rng.Range(0, kCDistinct - 1)));
      rows.columns[2].ints.push_back(i);
      rows.columns[3].ints.push_back(rng.Range(0, kCDistinct - 1));
    }
    (void)db->Load("cfact", rows, true);
    (void)db->RunTupleMover();
    ps = db->cluster()->node(0)->GetStorage("cfact_super");
    plain_ps = db->cluster()->node(0)->GetStorage("cfact_plain");
  }
  std::unique_ptr<Database> db;
  ProjectionStorage* ps;        // encoded
  ProjectionStorage* plain_ps;  // all PLAIN
};

CompressedFixture& GetCompressedFixture() {
  static CompressedFixture f;
  return f;
}

const char* kEncNames[] = {"rle", "dict", "delta", "plain"};
const char* kEncCols[] = {"r", "s", "dv", "p"};
const TypeId kEncTypes[] = {TypeId::kInt64, TypeId::kString, TypeId::kInt64,
                            TypeId::kInt64};

ScanSpec OneColumnScan(CompressedFixture& f, int enc_col, bool encoded) {
  ScanSpec spec;
  spec.storage = encoded ? f.ps : f.plain_ps;
  spec.projection_columns = {enc_col};
  spec.output_names = {kEncCols[enc_col]};
  spec.output_types = {kEncTypes[enc_col]};
  spec.encoded_output = encoded;
  return spec;
}

// Predicate + COUNT(*) on one column per encoding. `enc`=1 keeps blocks
// encoded through predicate and aggregation (one compare per RLE run / per
// dictionary entry, COUNT by run length); `enc`=0 is the decode-then-eval
// baseline over the all-PLAIN projection.
void BM_CompressedPredCount(benchmark::State& state) {
  auto& f = GetCompressedFixture();
  int enc_col = static_cast<int>(state.range(0));
  int64_t sel_ppm = state.range(1);
  bool encoded = state.range(2) != 0;
  // Thresholds picked so every encoding sweeps the same selectivity: the
  // int columns (`r` delta `dv` plain `p`) and the dictionary strings all
  // span a 1000-value domain.
  int64_t cut = kCDistinct * sel_ppm / 1000000;
  ExprPtr pred;
  if (enc_col == 1) {
    // Dictionary strings "d0".."d999" — compare against a zero-padded bound
    // would change the domain; use an exact-match probe at low selectivity
    // and a range probe otherwise.
    pred = Cmp(sel_ppm <= 10000 ? CompareOp::kEq : CompareOp::kNe, Col("s"),
               Lit(Value::String("d7")));
  } else if (enc_col == 2) {
    pred = Cmp(CompareOp::kLt, Col("dv"), Lit(Value::Int64(kCRows * sel_ppm / 1000000)));
  } else {
    pred = Cmp(CompareOp::kLt, Col(kEncCols[enc_col]), Lit(Value::Int64(cut)));
  }
  BindSchema schema;
  schema.Add(kEncCols[enc_col], kEncTypes[enc_col]);
  if (!BindExpr(pred, schema).ok()) {
    state.SkipWithError("bind failed");
    return;
  }

  uint64_t groups = 0;
  for (auto _ : state) {
    ExecContext ctx = f.db->MakeExecContext();
    ScanSpec spec = OneColumnScan(f, enc_col, encoded);
    spec.predicate = CloneExpr(pred);
    GroupBySpec gspec;
    gspec.aggs.push_back({AggKind::kCountStar, -1, TypeId::kInt64});
    gspec.output_names = {"n"};
    HashGroupByOperator agg(std::make_unique<ScanOperator>(spec), gspec);
    auto rows = DrainOperator(&agg, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    groups = rows.value().NumRows();
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * kCRows);
  state.SetLabel(std::string(kEncNames[enc_col]) + "/sel=" +
                 std::to_string(sel_ppm / 10000.0) + "%/" +
                 (encoded ? "encoded" : "decode-first"));
}

// Group-by on the dictionary key: encoded mode aggregates through the dense
// code → group-id map; the baseline reads every string flat from the
// all-PLAIN projection.
void BM_CompressedGroupByDict(benchmark::State& state) {
  auto& f = GetCompressedFixture();
  bool encoded = state.range(0) != 0;

  uint64_t groups = 0;
  for (auto _ : state) {
    ExecContext ctx = f.db->MakeExecContext();
    ScanSpec spec;
    spec.storage = encoded ? f.ps : f.plain_ps;
    spec.projection_columns = {1, 3};
    spec.output_names = {"s", "p"};
    spec.output_types = {TypeId::kString, TypeId::kInt64};
    spec.encoded_output = encoded;
    GroupBySpec gspec;
    gspec.group_columns = {0};
    gspec.aggs.push_back({AggKind::kCountStar, -1, TypeId::kInt64});
    gspec.aggs.push_back({AggKind::kSum, 1, TypeId::kInt64});
    gspec.output_names = {"s", "n", "sum_p"};
    HashGroupByOperator agg(std::make_unique<ScanOperator>(spec), gspec);
    auto rows = DrainOperator(&agg, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    groups = rows.value().NumRows();
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * kCRows);
  state.SetLabel(std::string("dict-group-by/") +
                 (encoded ? "encoded" : "decode-first") + "/groups=" +
                 std::to_string(groups));
}

void CompressedArgs(benchmark::internal::Benchmark* b) {
  for (int enc = 0; enc < 4; ++enc) {
    for (int64_t ppm : {100, 10000, 500000, 1000000}) {  // 0.01% 1% 50% 100%
      b->Args({enc, ppm, 0});
      b->Args({enc, ppm, 1});
    }
  }
}

BENCHMARK(BM_CompressedPredCount)
    ->ArgNames({"enc", "ppm", "encoded"})
    ->Apply(CompressedArgs)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CompressedGroupByDict)
    ->ArgNames({"encoded"})
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
