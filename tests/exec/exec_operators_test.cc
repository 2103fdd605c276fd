// Execution-engine operator tests: scan pruning/SIP/deletes, hash group-by
// (incl. spill, RLE runs and partial/combine through a gather), joins (incl.
// runtime hash->merge switch), sort spill, analytic windows, exchanges.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "exec/analytic.h"
#include "exec/exchange.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

class ExecFixture : public ::testing::Test {
 protected:
  ExecFixture() {
    ClusterConfig ccfg;
    ccfg.num_nodes = 1;
    ccfg.k_safety = 0;
    ccfg.direct_ros_row_threshold = 1000000;
    // Single local segment => one container after moveout, so a sorted scan
    // is a single source and may emit encoded (RLE) blocks.
    ccfg.local_segments_per_node = 1;
    cluster_ = std::make_unique<Cluster>(ccfg, &fs_, &catalog_);
    TableDef t;
    t.name = "sales";
    t.columns = {{"id", TypeId::kInt64, false},
                 {"cust", TypeId::kInt64, true},
                 {"price", TypeId::kFloat64, true}};
    // Sort by cust so the RLE group-key path engages.
    ProjectionDef p;
    p.name = "sales_super";
    p.anchor_table = "sales";
    p.columns = {{"cust", -1, EncodingId::kRle},
                 {"id", -1, EncodingId::kAuto},
                 {"price", -1, EncodingId::kAuto}};
    p.sort_columns = {0, 1};
    p.segmentation.expr = Func(FuncKind::kHash, {Col("id")});
    EXPECT_TRUE(catalog_.CreateTable(std::move(t)).ok());
    EXPECT_TRUE(cluster_->CreateProjectionWithBuddies(p).ok());

    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
    for (int i = 0; i < 1000; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].ints.push_back(i % 10);
      rows.columns[2].doubles.push_back(i * 0.5);
    }
    auto txn = cluster_->txns()->Begin();
    EXPECT_TRUE(cluster_->Load("sales", rows, txn.get()).ok());
    EXPECT_TRUE(cluster_->Commit(txn).ok());
    EXPECT_TRUE(cluster_->RunTupleMover().ok());

    ps_ = cluster_->node(0)->GetStorage("sales_super");
    ctx_.fs = &fs_;
    ctx_.epoch = cluster_->epochs()->LatestQueryableEpoch();
    ctx_.stats = &stats_;
  }

  ScanSpec BaseScan() {
    ScanSpec spec;
    spec.storage = ps_;
    spec.projection_columns = {0, 1, 2};  // cust, id, price
    spec.output_names = {"cust", "id", "price"};
    spec.output_types = {TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64};
    return spec;
  }

  MemFileSystem fs_;
  Catalog catalog_;
  std::unique_ptr<Cluster> cluster_;
  ProjectionStorage* ps_ = nullptr;
  ExecStats stats_;
  ExecContext ctx_;
};

TEST_F(ExecFixture, ScanReadsEverything) {
  ScanOperator scan(BaseScan());
  auto rows = DrainOperator(&scan, &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 1000u);
}

TEST_F(ExecFixture, ScanPredicateAndPruning) {
  ScanSpec spec = BaseScan();
  auto pred = Cmp(CompareOp::kEq, Col("cust"), Lit(Value::Int64(3)));
  BindSchema schema;
  schema.Add("cust", TypeId::kInt64);
  schema.Add("id", TypeId::kInt64);
  schema.Add("price", TypeId::kFloat64);
  ASSERT_TRUE(BindExpr(pred, schema).ok());
  spec.predicate = pred;
  spec.prune_bounds = {{0, CompareOp::kEq, Value::Int64(3)}};
  ScanOperator scan(spec);
  auto rows = DrainOperator(&scan, &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 100u);
  for (size_t r = 0; r < rows.value().NumRows(); ++r)
    EXPECT_EQ(rows.value().columns[0].ints[r], 3);
}

TEST_F(ExecFixture, ScanHonorsDeleteVectorsAndEpochs) {
  // Delete rows with cust==0 via positions.
  auto containers = ps_->Containers();
  ASSERT_FALSE(containers.empty());
  auto txn = cluster_->txns()->Begin();
  for (const auto& c : containers) {
    RowBlock rows;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
    std::vector<uint64_t> pos;
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      if (rows.columns[0].ints[r] == 0) pos.push_back(r);
    }
    ASSERT_TRUE(ps_->AddDeletes(c->id, pos, txn.get()).ok());
  }
  auto e_del = cluster_->Commit(txn);
  ASSERT_TRUE(e_del.ok());

  // At the old epoch the rows are still visible (snapshot isolation)...
  ScanOperator old_scan(BaseScan());
  ExecContext old_ctx = ctx_;
  auto old_rows = DrainOperator(&old_scan, &old_ctx);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows.value().NumRows(), 1000u);
  // ...at the new epoch they are gone.
  ExecContext new_ctx = ctx_;
  new_ctx.epoch = e_del.value();
  ScanOperator new_scan(BaseScan());
  auto new_rows = DrainOperator(&new_scan, &new_ctx);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_EQ(new_rows.value().NumRows(), 900u);
}

TEST_F(ExecFixture, HashGroupBySumsCorrectly) {
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64},
               {AggKind::kSum, 2, TypeId::kFloat64}};
  spec.output_names = {"cust", "n", "total"};
  auto gb = std::make_unique<HashGroupByOperator>(
      std::make_unique<ScanOperator>(BaseScan()), spec);
  auto rows = DrainOperator(gb.get(), &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 10u);
  double total = 0;
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(rows.value().columns[1].ints[r], 100);
    total += rows.value().columns[2].doubles[r];
  }
  EXPECT_DOUBLE_EQ(total, 999 * 1000 / 2 * 0.5);
}

// Every NaN is one group key: group equality and group hashing both follow
// CompareEntries, whatever the NaN's sign bit (x86's 0.0/0.0 sets it).
TEST_F(ExecFixture, HashGroupByPutsEveryNanInOneGroup) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowBlock input({TypeId::kFloat64});
  input.columns[0].doubles = {nan, std::copysign(nan, -1.0), nan,
                              std::copysign(nan, -1.0)};
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"x", "n"};
  HashGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input, std::vector<std::string>{"x"}),
      spec);
  auto rows = DrainOperator(&gb, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 1u);
  EXPECT_TRUE(std::isnan(rows.value().columns[0].doubles[0]));
  EXPECT_EQ(rows.value().columns[1].ints[0], 4);
}

TEST_F(ExecFixture, HashGroupBySpillsUnderTinyBudgetSameAnswer) {
  ResourceBudget budget(1);  // force grace partitioning immediately
  ExecContext tight = ctx_;
  tight.budget = &budget;
  GroupBySpec spec;
  spec.group_columns = {1};  // id: 1000 groups
  spec.aggs = {{AggKind::kSum, 2, TypeId::kFloat64}};
  spec.output_names = {"id", "total"};
  auto gb = std::make_unique<HashGroupByOperator>(
      std::make_unique<ScanOperator>(BaseScan()), spec);
  auto rows = DrainOperator(gb.get(), &tight);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 1000u);
  EXPECT_GT(stats_.rows_spilled.load(), 0u);
}

// Parks each GatedSource at its EOF until the test thread opens the gate,
// so both group-bys above the sources hold their whole input at once.
struct ConsumeGate {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool open = false;

  void ArriveAndWait() {
    std::unique_lock lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  bool WaitForArrivals(int n) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30), [&] { return arrived == n; });
  }
  void Open() {
    {
      std::lock_guard lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

/// Serves `block` in vector_size slices, then waits at `gate` once before
/// reporting end of stream.
class GatedSource : public Operator {
 public:
  GatedSource(RowBlock block, ConsumeGate* gate) : block_(std::move(block)), gate_(gate) {}
  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    cursor_ = 0;
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override {
    *out = RowBlock(OutputTypes());
    size_t take = std::min(ctx_->vector_size, block_.NumRows() - cursor_);
    if (take == 0 && gate_ != nullptr) std::exchange(gate_, nullptr)->ArriveAndWait();
    out->AppendRange(block_, cursor_, take);
    cursor_ += take;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override { return {TypeId::kInt64}; }
  std::vector<std::string> OutputNames() const override { return {"k"}; }
  std::string DebugString() const override { return "GatedSource"; }

 private:
  RowBlock block_;
  ConsumeGate* gate_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

// Two group-bys of one query share its budget. Each table needs about 60%
// of it, so together they must not fit: the budget is the one limit, and at
// least one of them spills while both hold their tables at the same time.
TEST_F(ExecFixture, ConcurrentGroupBysShareOneBudget) {
  constexpr int64_t kGroups = 6000;
  // HashGroupBy charges 64 bytes per group plus 48 per aggregate state.
  constexpr size_t kTableBytes = kGroups * (64 + 48);
  ResourceBudget budget(kTableBytes * 5 / 3);
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "n"};
  auto input = [&](int64_t first_key) {
    RowBlock block({TypeId::kInt64});
    for (int rep = 0; rep < 3; ++rep) {
      for (int64_t g = 0; g < kGroups; ++g) block.columns[0].ints.push_back(first_key + g);
    }
    return block;
  };
  auto counts = [](const RowBlock& rows) {
    std::map<int64_t, int64_t> m;
    for (size_t r = 0; r < rows.NumRows(); ++r)
      m[rows.columns[0].ints[r]] = rows.columns[1].ints[r];
    return m;
  };

  // Unspilled oracle per input, and proof that one table alone fits.
  std::map<int64_t, int64_t> want[2];
  for (int i = 0; i < 2; ++i) {
    ExecStats solo_stats;
    ExecContext solo = ctx_;
    solo.stats = &solo_stats;
    solo.budget = &budget;
    HashGroupByOperator gb(std::make_unique<GatedSource>(input(i * kGroups), nullptr), spec);
    auto rows = DrainOperator(&gb, &solo);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(solo_stats.rows_spilled.load(), 0u) << "one table alone must fit";
    want[i] = counts(rows.value());
    ASSERT_EQ(want[i].size(), static_cast<size_t>(kGroups));
  }

  ConsumeGate gate;
  ExecStats stats[2];
  Result<RowBlock> got[2] = {RowBlock(), RowBlock()};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      ExecContext ctx = ctx_;
      ctx.stats = &stats[i];
      ctx.budget = &budget;
      HashGroupByOperator gb(std::make_unique<GatedSource>(input(i * kGroups), &gate),
                             spec);
      got[i] = DrainOperator(&gb, &ctx);
    });
  }
  // Both inputs consumed, neither group-by has emitted or released yet.
  bool both_arrived = gate.WaitForArrivals(2);
  gate.Open();
  for (auto& t : threads) t.join();
  ASSERT_TRUE(both_arrived);

  EXPECT_GT(stats[0].rows_spilled.load() + stats[1].rows_spilled.load(), 0u)
      << "two tables of 60% each were held under one budget without a spill";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    EXPECT_EQ(counts(got[i].value()), want[i]);
  }
  // Every reservation was returned: the whole budget is free again.
  EXPECT_TRUE(budget.TryReserve(kTableBytes * 5 / 3));
}

// Over the sorted projection the scan emits cust as RLE runs; the group-by
// resolves one group per run and counts by run length (the paper's pipelined
// GroupBy role), so every input row is consumed encoded.
TEST_F(ExecFixture, HashGroupByConsumesRleRuns) {
  ScanSpec sspec = BaseScan();
  sspec.encoded_output = true;
  sspec.sorted_output = true;
  sspec.sort_key_outputs = {0};
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"cust", "n"};
  auto gb = std::make_unique<HashGroupByOperator>(
      std::make_unique<ScanOperator>(sspec), spec);
  auto rows = DrainOperator(gb.get(), &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 10u);
  for (size_t r = 0; r < 10; ++r) EXPECT_EQ(rows.value().columns[1].ints[r], 100);
  EXPECT_EQ(stats_.rows_processed_encoded.load(), 1000u);
}

RowBlock SmallBlock(std::vector<int64_t> keys, std::vector<int64_t> vals) {
  RowBlock b({TypeId::kInt64, TypeId::kInt64});
  b.columns[0].ints = std::move(keys);
  b.columns[1].ints = std::move(vals);
  return b;
}

// COUNT(DISTINCT)'s footprint is kept as values are added, so MemoryBytes
// costs O(1); it equals a walk of the set after updates (repeats and NULLs
// included), a merge of overlapping sets, a copy and a serialize/parse
// round trip.
TEST(AggStateTest, DistinctMemoryBytesMatchesWalk) {
  auto walk = [](const AggState& st) {
    size_t n = sizeof(AggState);
    if (st.distinct) {
      for (const auto& v : st.distinct->values) n += v.size() + 32;
    }
    return n;
  };
  AggSpec spec;
  spec.kind = AggKind::kCountDistinct;
  spec.input_column = 0;
  spec.input_type = TypeId::kString;
  ColumnVector col(TypeId::kString);
  for (int i = 0; i < 200; ++i) {
    if (i % 17 == 0) {
      col.Append(Value::Null(TypeId::kString));
    } else {
      col.Append(Value::String("v" + std::to_string(i % 40) + std::string(i % 5, 'x')));
    }
  }
  AggState a, b;
  EXPECT_EQ(a.MemoryBytes(), walk(a));
  for (size_t r = 0; r < 120; ++r) {
    a.Update(spec, col, r, 1);
    ASSERT_EQ(a.MemoryBytes(), walk(a)) << "row " << r;
  }
  for (size_t r = 80; r < col.Size(); ++r) b.Update(spec, col, r, 2);
  EXPECT_EQ(b.MemoryBytes(), walk(b));
  a.Merge(spec, b);
  EXPECT_EQ(a.MemoryBytes(), walk(a));
  EXPECT_EQ(a.Final(spec).i64(), static_cast<int64_t>(a.distinct->values.size()));

  AggState copy = a;
  EXPECT_EQ(copy.MemoryBytes(), a.MemoryBytes());
  auto parsed = AggState::Parse(spec, a.Serialize(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().MemoryBytes(), walk(parsed.value()));
  EXPECT_EQ(parsed.value().MemoryBytes(), a.MemoryBytes());
}

TEST_F(ExecFixture, HashJoinAllTypes) {
  // probe: keys 1,2,3,4 ; build: keys 3,4,5
  auto mk_probe = [] {
    return std::make_unique<MaterializedOperator>(
        SmallBlock({1, 2, 3, 4}, {10, 20, 30, 40}),
        std::vector<std::string>{"k", "v"});
  };
  auto mk_build = [] {
    return std::make_unique<MaterializedOperator>(
        SmallBlock({3, 4, 5}, {300, 400, 500}),
        std::vector<std::string>{"bk", "bv"});
  };
  struct Case {
    JoinType type;
    size_t expected_rows;
  };
  for (Case c : {Case{JoinType::kInner, 2}, Case{JoinType::kLeft, 4},
                 Case{JoinType::kRight, 3}, Case{JoinType::kFull, 5},
                 Case{JoinType::kSemi, 2}, Case{JoinType::kAnti, 2}}) {
    JoinSpec spec;
    spec.type = c.type;
    spec.probe_keys = {0};
    spec.build_keys = {0};
    HashJoinOperator join(mk_probe(), mk_build(), spec);
    auto rows = DrainOperator(&join, &ctx_);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().NumRows(), c.expected_rows)
        << JoinTypeName(c.type);
  }
}

TEST_F(ExecFixture, SharedBuildRejectsRightAndFullAboveFanoutOne) {
  // RIGHT/FULL emit unmatched build rows exactly once, which fragments
  // sharing one build cannot coordinate: Open refuses them above fan-out 1.
  for (JoinType t : {JoinType::kRight, JoinType::kFull}) {
    JoinSpec spec;
    spec.type = t;
    spec.probe_keys = {1};
    spec.build_keys = {1};
    auto build = std::make_shared<SharedJoinBuild>(
        std::make_unique<ScanOperator>(BaseScan()), spec, 2);
    HashJoinOperator join(std::make_unique<ScanOperator>(BaseScan()), build,
                          /*show_build=*/true);
    EXPECT_EQ(join.Open(&ctx_).code(), StatusCode::kInvalidArgument)
        << JoinTypeName(t);
  }
}

TEST_F(ExecFixture, MergeJoinMatchesHashJoin) {
  auto mk_probe = [] {
    return std::make_unique<MaterializedOperator>(
        SmallBlock({1, 2, 2, 3}, {10, 20, 21, 30}),
        std::vector<std::string>{"k", "v"});
  };
  auto mk_build = [] {
    return std::make_unique<MaterializedOperator>(
        SmallBlock({2, 2, 3, 4}, {200, 201, 300, 400}),
        std::vector<std::string>{"bk", "bv"});
  };
  JoinSpec spec;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  for (JoinType t : {JoinType::kInner, JoinType::kLeft, JoinType::kFull}) {
    spec.type = t;
    HashJoinOperator hj(mk_probe(), mk_build(), spec);
    MergeJoinOperator mj(mk_probe(), mk_build(), spec);
    auto h = DrainOperator(&hj, &ctx_);
    auto m = DrainOperator(&mj, &ctx_);
    ASSERT_TRUE(h.ok() && m.ok());
    EXPECT_EQ(h.value().NumRows(), m.value().NumRows()) << JoinTypeName(t);
  }
}

TEST_F(ExecFixture, HashJoinSwitchesToMergeUnderPressure) {
  ResourceBudget budget(1);
  ExecContext tight = ctx_;
  tight.budget = &budget;
  JoinSpec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {1};  // id
  spec.build_keys = {1};
  auto probe = std::make_unique<ScanOperator>(BaseScan());
  auto build = std::make_unique<ScanOperator>(BaseScan());
  HashJoinOperator join(std::move(probe), std::move(build), spec);
  auto rows = DrainOperator(&join, &tight);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 1000u);  // id is unique: 1:1 self join
  EXPECT_TRUE(join.switched_to_merge());
  EXPECT_GT(stats_.hash_to_merge_switches.load(), 0u);
}

TEST_F(ExecFixture, SipFilterPrunesProbeRowsAtScan) {
  auto sip = std::make_shared<SipFilter>();
  sip->probe_columns = {1};  // id column of probe scan
  ScanSpec probe_spec = BaseScan();
  probe_spec.sips = {sip};

  // Build side: only ids 0..9 -> SIP should cut probe rows from 1000 to 10.
  RowBlock build_rows({TypeId::kInt64});
  for (int i = 0; i < 10; ++i) build_rows.columns[0].ints.push_back(i);
  JoinSpec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {1};
  spec.build_keys = {0};
  spec.sip = sip;
  HashJoinOperator join(std::make_unique<ScanOperator>(probe_spec),
                        std::make_unique<MaterializedOperator>(
                            std::move(build_rows), std::vector<std::string>{"bk"}),
                        spec);
  auto rows = DrainOperator(&join, &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 10u);
  EXPECT_EQ(stats_.rows_sip_filtered.load(), 990u);
}

TEST_F(ExecFixture, SortSpillsAndStillSorts) {
  ResourceBudget budget(1);
  ExecContext tight = ctx_;
  tight.budget = &budget;
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<ScanOperator>(BaseScan()),
      std::vector<SortKey>{{2, /*descending=*/true}});
  auto rows = DrainOperator(sort.get(), &tight);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 1000u);
  for (size_t r = 1; r < 1000; ++r) {
    EXPECT_GE(rows.value().columns[2].doubles[r - 1],
              rows.value().columns[2].doubles[r]);
  }
  EXPECT_GT(stats_.spill_files.load(), 0u);
}

TEST_F(ExecFixture, AnalyticWindowFunctions) {
  // rows: cust, id, price; partition by cust order by id.
  AnalyticSpec spec;
  spec.partition_columns = {0};
  spec.order_keys = {{1, false}};
  spec.windows = {{WindowFunc::kRowNumber, -1, "rn"},
                  {WindowFunc::kSum, 2, "running"}};
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<ScanOperator>(BaseScan()),
      std::vector<SortKey>{{0, false}, {1, false}});
  AnalyticOperator analytic(std::move(sort), spec);
  auto rows = DrainOperator(&analytic, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 1000u);
  // First row of each partition: rn == 1 and running == its own price.
  for (size_t r = 0; r < 1000; ++r) {
    if (rows.value().columns[3].ints[r] == 1) {
      EXPECT_DOUBLE_EQ(rows.value().columns[4].doubles[r],
                       rows.value().columns[2].doubles[r]);
    }
  }
}

// NaN sorts after every number and equals every other NaN, so the two NaN
// rows are peers of each other only.
TEST_F(ExecFixture, RankAndDenseRankOverFloatOrderWithNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowBlock input({TypeId::kFloat64});
  input.columns[0].doubles = {1.0, 2.0, nan, nan};
  AnalyticSpec spec;
  spec.order_keys = {{0, false}};
  spec.windows = {{WindowFunc::kRank, -1, "rank"},
                  {WindowFunc::kDenseRank, -1, "dense_rank"}};
  AnalyticOperator analytic(
      std::make_unique<MaterializedOperator>(input, std::vector<std::string>{"x"}),
      spec);
  auto rows = DrainOperator(&analytic, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 4u);
  EXPECT_EQ(rows.value().columns[1].ints, (std::vector<int64_t>{1, 2, 3, 3}));
  EXPECT_EQ(rows.value().columns[2].ints, (std::vector<int64_t>{1, 2, 3, 3}));
}

// The SQL shape of Figure 3: two morsel scans share one dispenser (the
// StorageUnion role), each fragment runs a partial HashGroupBy (the prepass
// GroupBys), the partials cross the ParallelUnion gather, and one combine
// HashGroupBy finishes COUNT(*) and AVG.
TEST_F(ExecFixture, PartialGroupByPerFragmentCombinesThroughGather) {
  GroupBySpec partial;
  partial.group_columns = {0};
  partial.aggs = {{AggKind::kCountStar, -1, TypeId::kInt64},
                  {AggKind::kAvg, 2, TypeId::kFloat64}};
  partial.phase = AggPhase::kPartial;
  partial.output_names = {"cust", "n", "avg_sum", "avg_n"};
  auto morsels = std::make_shared<MorselDispenser>(2);
  std::vector<OperatorPtr> fragments;
  for (int p = 0; p < 2; ++p) {
    ScanSpec s = BaseScan();
    s.morsels = morsels;
    fragments.push_back(std::make_unique<HashGroupByOperator>(
        std::make_unique<ScanOperator>(s), partial));
  }
  GroupBySpec combine = partial;
  combine.phase = AggPhase::kCombine;
  combine.output_names = {"cust", "n", "avg"};
  HashGroupByOperator root(
      MakeUnionExchange(std::move(fragments), "ParallelUnion", false), combine);
  auto rows = DrainOperator(&root, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 10u);
  std::set<int64_t> custs;
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(rows.value().columns[1].ints[r], 100);
    int64_t cust = rows.value().columns[0].ints[r];
    custs.insert(cust);
    // avg over {cust, cust+10, ..., cust+990} * 0.5
    EXPECT_DOUBLE_EQ(rows.value().columns[2].doubles[r], (cust + 495.0) * 0.5);
  }
  EXPECT_EQ(custs.size(), 10u);
}

// ---------------------------------------------------------------------------
// Late-materialization scan (DESIGN.md §7).

class LateMatFixture : public ::testing::Test {
 protected:
  LateMatFixture() {
    ClusterConfig ccfg;
    ccfg.num_nodes = 1;
    ccfg.k_safety = 0;
    ccfg.direct_ros_row_threshold = 1000000;
    ccfg.local_segments_per_node = 1;
    cluster_ = std::make_unique<Cluster>(ccfg, &fs_, &catalog_);
    TableDef t;
    t.name = "events";
    t.columns = {{"k", TypeId::kInt64, false},
                 {"v", TypeId::kInt64, true},
                 {"s", TypeId::kString, true}};
    ProjectionDef p;
    p.name = "events_super";
    p.anchor_table = "events";
    p.columns = {{"k", -1, EncodingId::kAuto},
                 {"v", -1, EncodingId::kAuto},
                 {"s", -1, EncodingId::kAuto}};
    p.sort_columns = {0};
    p.segmentation.expr = Func(FuncKind::kHash, {Col("k")});
    EXPECT_TRUE(catalog_.CreateTable(std::move(t)).ok());
    EXPECT_TRUE(cluster_->CreateProjectionWithBuddies(p).ok());
    ps_ = cluster_->node(0)->GetStorage("events_super");
    ctx_.fs = &fs_;
    ctx_.stats = &stats_;
  }

  /// Load `count` rows with keys [base, base+count): k sorted, v = 2k,
  /// s = "p<k%10>". Returns the commit epoch.
  Epoch LoadBatch(int64_t base, int64_t count) {
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kString});
    for (int64_t i = base; i < base + count; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].ints.push_back(i * 2);
      rows.columns[2].strings.push_back("p" + std::to_string(i % 10));
    }
    auto txn = cluster_->txns()->Begin();
    EXPECT_TRUE(cluster_->Load("events", rows, txn.get()).ok());
    auto e = cluster_->Commit(txn);
    EXPECT_TRUE(e.ok());
    return e.value();
  }

  ScanSpec BaseScan() {
    ScanSpec spec;
    spec.storage = ps_;
    spec.projection_columns = {0, 1, 2};
    spec.output_names = {"k", "v", "s"};
    spec.output_types = {TypeId::kInt64, TypeId::kInt64, TypeId::kString};
    return spec;
  }

  /// Two merged loads (k in [0, 20000)), a delete of every k % 7 == 0 row,
  /// then a third load (k in [20000, 30000)) merged on top. Returns the
  /// delete's epoch: scanned there, batches 1+2 and the deletes are visible
  /// and batch 3 is filtered by the per-row epoch column.
  Epoch LoadWithDeletesAndLaterEpoch() {
    LoadBatch(0, 10000);
    EXPECT_TRUE(cluster_->RunTupleMover().ok());
    LoadBatch(10000, 10000);
    EXPECT_TRUE(cluster_->RunTupleMover().ok());
    auto txn = cluster_->txns()->Begin();
    for (const auto& c : ps_->Containers()) {
      RowBlock rows;
      EXPECT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
      std::vector<uint64_t> pos;
      for (size_t r = 0; r < rows.NumRows(); ++r) {
        if (rows.columns[0].ints[r] % 7 == 0) pos.push_back(r);
      }
      EXPECT_TRUE(ps_->AddDeletes(c->id, pos, txn.get()).ok());
    }
    auto e_del = cluster_->Commit(txn);
    EXPECT_TRUE(e_del.ok());
    LoadBatch(20000, 10000);
    EXPECT_TRUE(cluster_->RunTupleMover().ok());
    // Mergeout folds batch 3 in with visible rows, so a scan at e_del must
    // filter by the per-row epoch column, not just skip a container.
    bool spans = false;
    for (const auto& c : ps_->Containers()) {
      spans |= c->min_epoch <= e_del.value() && c->max_epoch > e_del.value();
    }
    EXPECT_TRUE(spans);
    return e_del.value();
  }

  ExprPtr BoundPred(ExprPtr e) {
    BindSchema schema;
    schema.Add("k", TypeId::kInt64);
    schema.Add("v", TypeId::kInt64);
    schema.Add("s", TypeId::kString);
    EXPECT_TRUE(BindExpr(e, schema).ok());
    return e;
  }

  MemFileSystem fs_;
  Catalog catalog_;
  std::unique_ptr<Cluster> cluster_;
  ProjectionStorage* ps_ = nullptr;
  ExecStats stats_;
  ExecContext ctx_;
};

TEST_F(LateMatFixture, StatsProveSelectiveDecode) {
  // 40000 sorted rows -> 3 blocks. The predicate matches only rows inside
  // the middle block, so the two dead blocks must skip their payload
  // columns entirely and the middle block must decode payload values only
  // for selected rows.
  LoadBatch(0, 40000);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ctx_.epoch = cluster_->epochs()->LatestQueryableEpoch();

  ScanSpec spec = BaseScan();
  spec.predicate = BoundPred(
      And(Cmp(CompareOp::kGe, Col("k"), Lit(Value::Int64(20000))),
          Cmp(CompareOp::kLt, Col("k"), Lit(Value::Int64(20100)))));
  ScanOperator scan(spec);
  auto rows = DrainOperator(&scan, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().NumRows(), 100u);
  for (size_t r = 0; r < 100; ++r) {
    int64_t k = rows.value().columns[0].ints[r];
    EXPECT_EQ(rows.value().columns[1].ints[r], k * 2);
    EXPECT_EQ(rows.value().columns[2].strings[r], "p" + std::to_string(k % 10));
  }
  // Two payload columns (v, s) x 100 selected rows — not x 40000 scanned.
  EXPECT_EQ(stats_.rows_decoded.load(), 200u);
  // The two fully-filtered blocks never read their payload columns.
  EXPECT_GT(stats_.payload_bytes_skipped.load(), 0u);
  EXPECT_GT(stats_.bytes_read.load(), 0u);
  EXPECT_EQ(stats_.rows_scanned.load(), 40000u);
}

TEST_F(LateMatFixture, DeletesOnlyFilterDecodesSurvivorsOfEveryColumn) {
  // No predicate and no SIP: epoch visibility and delete vectors alone
  // filter rows, so the filter view is empty and every column is payload,
  // decoded only for surviving rows.
  ctx_.epoch = LoadWithDeletesAndLaterEpoch();
  ScanOperator scan(BaseScan());
  auto rows = DrainOperator(&scan, &ctx_);
  ASSERT_TRUE(rows.ok());
  const RowBlock& out = rows.value();
  // Batches 1+2 are visible (k < 20000), minus the deleted k % 7 == 0 rows.
  size_t expected = 0;
  for (int64_t k = 0; k < 20000; ++k) expected += (k % 7 != 0);
  ASSERT_EQ(out.NumRows(), expected);
  for (size_t r = 0; r < out.NumRows(); ++r) {
    int64_t k = out.columns[0].ints[r];
    EXPECT_LT(k, 20000);
    EXPECT_NE(k % 7, 0);
    EXPECT_EQ(out.columns[1].ints[r], k * 2);
    EXPECT_EQ(out.columns[2].strings[r], "p" + std::to_string(k % 10));
  }
  EXPECT_EQ(stats_.rows_decoded.load(), expected * 3);
}

TEST_F(LateMatFixture, DeletesEpochPredicateAndSipTogether) {
  // All four filters (epoch, deletes, predicate, SIP) are live at once.
  Epoch e_del = LoadWithDeletesAndLaterEpoch();
  ctx_.epoch = e_del;

  ScanSpec spec = BaseScan();
  spec.predicate = BoundPred(Cmp(CompareOp::kLt, Col("k"), Lit(Value::Int64(5000))));
  auto sip = std::make_shared<SipFilter>();
  sip->probe_columns = {0};
  spec.sips = {sip};
  RowBlock build({TypeId::kInt64});
  for (int64_t i = 0; i < 30000; i += 3) build.columns[0].ints.push_back(i);
  JoinSpec jspec;
  jspec.type = JoinType::kInner;
  jspec.probe_keys = {0};
  jspec.build_keys = {0};
  jspec.sip = sip;
  HashJoinOperator join(std::make_unique<ScanOperator>(spec),
                        std::make_unique<MaterializedOperator>(
                            build, std::vector<std::string>{"bk"}),
                        jspec);
  auto rows = DrainOperator(&join, &ctx_);
  ASSERT_TRUE(rows.ok());
  const RowBlock& out = rows.value();

  // k < 5000, k % 3 == 0 (SIP+join), k % 7 != 0 (deleted): 1667 - 239 = 1428,
  // each exactly once, with its own v and s.
  std::set<int64_t> want;
  for (int64_t k = 0; k < 5000; k += 3) {
    if (k % 7 != 0) want.insert(k);
  }
  ASSERT_EQ(out.NumRows(), want.size());
  std::set<int64_t> seen;
  for (size_t r = 0; r < out.NumRows(); ++r) {
    int64_t k = out.columns[0].ints[r];
    EXPECT_TRUE(want.count(k)) << "unexpected key " << k;
    EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
    EXPECT_EQ(out.columns[1].ints[r], k * 2);
    EXPECT_EQ(out.columns[2].strings[r], "p" + std::to_string(k % 10));
    EXPECT_EQ(out.columns[3].ints[r], k);  // build key
  }

  // Sanity: the epoch filter is really engaged — at the final epoch a full
  // scan sees the third batch too.
  ExecContext head_ctx = ctx_;
  head_ctx.epoch = cluster_->epochs()->LatestQueryableEpoch();
  ScanOperator full(BaseScan());
  auto all_rows = DrainOperator(&full, &head_ctx);
  ASSERT_TRUE(all_rows.ok());
  ScanOperator at_del(BaseScan());
  auto del_rows = DrainOperator(&at_del, &ctx_);
  ASSERT_TRUE(del_rows.ok());
  EXPECT_GT(all_rows.value().NumRows(), del_rows.value().NumRows());
  size_t deleted = 0;
  for (int64_t k = 0; k < 20000; ++k) deleted += (k % 7 == 0);
  EXPECT_EQ(del_rows.value().NumRows(), 20000u - deleted);
}

TEST_F(LateMatFixture, ConstantPredicateHasNoColumnsToFilterBy) {
  LoadBatch(0, 2000);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ctx_.epoch = cluster_->epochs()->LatestQueryableEpoch();
  for (int64_t truth : {1, 0}) {
    ScanSpec spec = BaseScan();
    spec.predicate = BoundPred(
        Cmp(CompareOp::kEq, Lit(Value::Int64(truth)), Lit(Value::Int64(1))));
    ScanOperator scan(spec);
    auto rows = DrainOperator(&scan, &ctx_);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().NumRows(), truth ? 2000u : 0u);
  }
}

TEST_F(LateMatFixture, WosScanAppliesDeletesAndPredicate) {
  // No tuple mover: rows stay in the WOS; the scan's ranged-copy gather and
  // one-pass delete masking must agree with the filters.
  LoadBatch(0, 5000);
  auto txn = cluster_->txns()->Begin();
  std::vector<uint64_t> pos;
  for (uint64_t r = 0; r < 5000; r += 5) pos.push_back(r);  // delete k%5==0
  ASSERT_TRUE(ps_->AddDeletes(kWosTargetId, pos, txn.get()).ok());
  auto e_del = cluster_->Commit(txn);
  ASSERT_TRUE(e_del.ok());
  ctx_.epoch = e_del.value();

  ScanSpec spec = BaseScan();
  spec.predicate = BoundPred(Cmp(CompareOp::kLt, Col("k"), Lit(Value::Int64(1000))));
  ScanOperator scan(spec);
  auto rows = DrainOperator(&scan, &ctx_);
  ASSERT_TRUE(rows.ok());
  // k < 1000 and k % 5 != 0 -> 800 rows.
  ASSERT_EQ(rows.value().NumRows(), 800u);
  for (size_t r = 0; r < rows.value().NumRows(); ++r) {
    int64_t k = rows.value().columns[0].ints[r];
    EXPECT_NE(k % 5, 0);
    EXPECT_LT(k, 1000);
    EXPECT_EQ(rows.value().columns[1].ints[r], k * 2);
    EXPECT_EQ(rows.value().columns[2].strings[r], "p" + std::to_string(k % 10));
  }
}

TEST_F(ExecFixture, LimitStopsEarlyThroughExchange) {
  std::vector<OperatorPtr> producers;
  producers.push_back(std::make_unique<ScanOperator>(BaseScan()));
  auto root = MakeUnionExchange(std::move(producers), "Recv", true);
  LimitOperator limit(std::move(root), 5);
  auto rows = DrainOperator(&limit, &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().NumRows(), 5u);
  EXPECT_GT(stats_.exchange_bytes.load(), 0u);
}

// Deterministic producers for the exchange hedge/reroute tests: a fixed row
// batch, optionally failing before any output or sleeping forever (until
// cancelled at exchange teardown).
class TestSourceOperator : public Operator {
 public:
  enum class Behavior { kEmit, kFailBeforeOutput, kStall };

  TestSourceOperator(Behavior behavior, int64_t base, size_t rows)
      : behavior_(behavior), base_(base), rows_(rows) {}

  Status Open(ExecContext*) override { return Status::OK(); }
  Status GetNext(RowBlock* out) override {
    switch (behavior_) {
      case Behavior::kFailBeforeOutput:
        return Status::IoError("disk gone");
      case Behavior::kStall:
        // Long enough that the hedge always claims the slot first; the late
        // push is then orphaned and the producer loop exits.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        *out = RowBlock({TypeId::kInt64});
        out->columns[0].ints.push_back(base_);
        return Status::OK();
      case Behavior::kEmit:
        break;
    }
    *out = RowBlock({TypeId::kInt64});
    if (!emitted_) {
      emitted_ = true;
      for (size_t r = 0; r < rows_; ++r) out->columns[0].ints.push_back(base_ + r);
    }
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override { return {TypeId::kInt64}; }
  std::vector<std::string> OutputNames() const override { return {"v"}; }
  std::string DebugString() const override { return "TestSource"; }

 private:
  Behavior behavior_;
  int64_t base_;
  size_t rows_;
  bool emitted_ = false;
};

// A producer that fails before pushing anything is rerouted onto its rebuild
// factory (the "buddy copy"); the query completes with the buddy's rows and
// the reroute counter fires. No hedge deadline needed: reroute-on-failure is
// always on.
TEST_F(ExecFixture, ExchangeReroutesFailedProducerToBuddy) {
  std::vector<ExchangeProducerSpec> producers;
  ExchangeProducerSpec spec;
  spec.op = std::make_unique<TestSourceOperator>(
      TestSourceOperator::Behavior::kFailBeforeOutput, 0, 0);
  spec.origin = "node7";
  spec.rebuild = []() -> Result<OperatorPtr> {
    return OperatorPtr(
        std::make_unique<TestSourceOperator>(TestSourceOperator::Behavior::kEmit, 100, 4));
  };
  producers.push_back(std::move(spec));
  auto root = MakeUnionExchange(std::move(producers), "Recv", false);
  auto rows = DrainOperator(root.get(), &ctx_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().NumRows(), 4u);
  EXPECT_EQ(rows.value().columns[0].ints[0], 100);
  EXPECT_GE(stats_.exchange_reroutes.load(), 1u);
  EXPECT_EQ(stats_.exchange_hedges.load(), 0u);
}

// When the failed producer has no buddy left (rebuild fails), the statement
// error must carry the partition and origin node for forensics.
TEST_F(ExecFixture, ExchangeErrorCarriesOriginAndPartition) {
  std::vector<ExchangeProducerSpec> producers;
  ExchangeProducerSpec spec;
  spec.op = std::make_unique<TestSourceOperator>(
      TestSourceOperator::Behavior::kFailBeforeOutput, 0, 0);
  spec.origin = "node7";
  spec.rebuild = []() -> Result<OperatorPtr> {
    return Status::ClusterUnavailable("k-safety exhausted");
  };
  producers.push_back(std::move(spec));
  auto root = MakeUnionExchange(std::move(producers), "Recv", false);
  auto rows = DrainOperator(root.get(), &ctx_);
  ASSERT_FALSE(rows.ok());
  // The reroute's failure surfaces (not the original I/O error): the
  // partition has no copies left, so a statement-level replan is pointless.
  EXPECT_EQ(rows.status().code(), StatusCode::kClusterUnavailable);
  EXPECT_NE(rows.status().ToString().find("exchange partition 0 (node7)"),
            std::string::npos)
      << rows.status().ToString();
}

// A zero-progress straggler past its deadline is hedged against the buddy;
// the hedge claims the partition and the query returns the right rows.
TEST_F(ExecFixture, ExchangeHedgesZeroProgressStraggler) {
  ctx_.hedge_deadline_ms = 5;
  ctx_.hedge_max_attempts = 2;
  std::vector<ExchangeProducerSpec> producers;
  ExchangeProducerSpec spec;
  spec.op = std::make_unique<TestSourceOperator>(TestSourceOperator::Behavior::kStall,
                                                 0, 0);
  spec.origin = "node3";
  spec.rebuild = []() -> Result<OperatorPtr> {
    return OperatorPtr(
        std::make_unique<TestSourceOperator>(TestSourceOperator::Behavior::kEmit, 500, 3));
  };
  producers.push_back(std::move(spec));
  auto root = MakeUnionExchange(std::move(producers), "Recv", false);
  auto rows = DrainOperator(root.get(), &ctx_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().NumRows(), 3u);
  EXPECT_EQ(rows.value().columns[0].ints[0], 500);
  EXPECT_GE(stats_.exchange_hedges.load(), 1u);
  ctx_.hedge_deadline_ms = 0;
}

}  // namespace
}  // namespace stratica
