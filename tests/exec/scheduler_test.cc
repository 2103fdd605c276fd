// Unified worker pool tests (DESIGN.md §12): work-stealing under skewed
// task costs, deadlock-free fork/join on tiny pools, pinned-thread reuse,
// reservation->fan-out mapping, the kept-rows fan-out gate, parallel-plan
// correctness against serial plans, stats-merge exactness at 16 workers,
// cooperative abandonment of morsel fragments under an early-closing
// consumer (LIMIT), and a shared hash-join build spilling to sort-merge
// under two fragments.
#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "api/database.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/resource_manager.h"
#include "exec/scan.h"

namespace stratica {
namespace {

TEST(SchedulerTest, TaskSetRunsEverything) {
  Scheduler pool(4);
  std::atomic<int> ran{0};
  Scheduler::TaskSet tasks(&pool);
  for (int i = 0; i < 100; ++i) tasks.Submit([&] { ran.fetch_add(1); });
  tasks.Wait();
  EXPECT_EQ(ran.load(), 100);
  const auto& s = pool.stats();
  EXPECT_EQ(s.tasks_run.load() + s.tasks_stolen.load() + s.tasks_inline.load(),
            100u);
}

TEST(SchedulerTest, WorkStealingUnderSkewedCosts) {
  // Two expensive tasks occupy both workers while short tasks queue behind
  // them. The short tasks can only finish if someone other than the owning
  // workers drains the deques — the waiting thread helping during Wait()
  // (tasks_inline) or a sibling stealing (tasks_stolen); the release of the
  // blockers depends on it, so a scheduler without stealing hangs here.
  Scheduler pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::atomic<int> quick{0};
  Scheduler::TaskSet tasks(&pool);
  for (int i = 0; i < 2; ++i) {
    tasks.Submit([&] {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  while (started.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 20; ++i) tasks.Submit([&] { quick.fetch_add(1); });
  std::thread releaser([&] {
    while (quick.load() < 20) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    release.store(true);
  });
  tasks.Wait();
  releaser.join();
  EXPECT_EQ(quick.load(), 20);
  const auto& s = pool.stats();
  EXPECT_GT(s.tasks_stolen.load() + s.tasks_inline.load(), 0u);
}

TEST(SchedulerTest, SingleWorkerPoolNeverDeadlocks) {
  // Wait() helps run queued tasks, so a fork/join wider than the pool — or
  // nested inside a pool task — completes even with one worker.
  Scheduler pool(1);
  std::atomic<int> ran{0};
  Scheduler::TaskSet outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&] {
      Scheduler::TaskSet inner(&pool);
      for (int j = 0; j < 4; ++j) inner.Submit([&] { ran.fetch_add(1); });
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(SchedulerTest, ParallelForCoversRangeExactlyOnce) {
  Scheduler pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(SchedulerTest, PinnedThreadsAreReused) {
  Scheduler pool(1);
  auto p1 = pool.StartPinned([] {});
  p1.Join();
  // The first thread has parked; a later pinned task should claim it
  // (possibly after a park/claim race resolves — allow a few attempts).
  bool reused = false;
  for (int i = 0; i < 50 && !reused; ++i) {
    auto p = pool.StartPinned([] {});
    p.Join();
    reused = pool.stats().pinned_reused.load() > 0;
    if (!reused) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(reused);
}

TEST(SchedulerTest, DestroyWhilePinnedThreadParks) {
  // The destructor stops the workers, then the pinned threads. A pinned
  // thread that just finished its job may still be parking while the
  // workers are told to stop; each side's stop flag must be guarded by the
  // mutex its own waiters hold (TSan checks this; repeating widens the
  // park-vs-destroy window).
  for (int i = 0; i < 200; ++i) {
    Scheduler pool(1);
    std::atomic<int> ran{0};
    auto p = pool.StartPinned([&] { ran.fetch_add(1); });
    p.Join();
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(AllowedFanoutTest, MapsGrantToFanout) {
  // Full grant: run at the planned fan-out.
  EXPECT_EQ(ResourceManager::AllowedFanout(1 << 20, 1 << 20, 8), 8u);
  EXPECT_EQ(ResourceManager::AllowedFanout(2 << 20, 1 << 20, 8), 8u);
  // Half grant: half the fragments, keeping per-fragment memory as planned.
  EXPECT_EQ(ResourceManager::AllowedFanout(1 << 20, 2 << 20, 8), 4u);
  // Starved: never below 1.
  EXPECT_EQ(ResourceManager::AllowedFanout(1, 64 << 20, 8), 1u);
  // Serial plans are untouched.
  EXPECT_EQ(ResourceManager::AllowedFanout(0, 64 << 20, 1), 1u);
}

TEST(AllowedFanoutTest, AdmissionClampScalesRealQueriesDown) {
  // A pool far smaller than the plan estimate must still admit (clamped to
  // the whole pool) and the fan-out must scale with the clamp.
  ResourceManagerConfig cfg;
  cfg.memory_pool_bytes = 8 << 20;
  cfg.min_query_reserve_bytes = 1 << 20;
  ResourceManager rm(cfg);
  auto ticket = rm.Admit(64 << 20);
  ASSERT_TRUE(ticket.ok());
  size_t fanout = ResourceManager::AllowedFanout(ticket.value().bytes(), 64 << 20, 8);
  EXPECT_EQ(ticket.value().bytes(), 8u << 20);
  EXPECT_EQ(fanout, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: parallel morsel plans vs serial plans on identical data.

// `fact` holds 8 blocks' worth of rows, ids 0..131071. With the default
// three local segments it is three containers of about 43,700 rows, each
// spanning every id. With one local segment it is one container sorted by
// id in 8 full blocks: block b holds ids [16384 b, 16384 (b + 1)).
constexpr int kFactRows = 8 * 16384;

std::unique_ptr<Database> MakeDb(size_t fanout, size_t workers, uint32_t local_segments = 3) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
  opts.local_segments_per_node = local_segments;
  opts.intra_node_parallelism = fanout;
  opts.worker_threads = workers;
  auto db = std::make_unique<Database>(opts);
  auto create = [&](const char* sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  create(
      "CREATE TABLE fact (id INT NOT NULL, k INT, grp INT, v FLOAT)");
  create("CREATE TABLE dim (k INT NOT NULL, bucket INT)");
  // A whole-table scan reads twice the 65536 rows per unit the planner's
  // fan-out gate asks for; a scan its bounds prune to a block or two does
  // not clear it.
  RowBlock fact({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  for (int i = 0; i < kFactRows; ++i) {
    fact.columns[0].ints.push_back(i);
    fact.columns[1].ints.push_back(i % 500);
    fact.columns[2].ints.push_back(i % 7);
    fact.columns[3].doubles.push_back((i % 97) * 0.25);
  }
  EXPECT_TRUE(db->Load("fact", fact).ok());
  RowBlock dim({TypeId::kInt64, TypeId::kInt64});
  for (int i = 0; i < 500; ++i) {
    dim.columns[0].ints.push_back(i);
    dim.columns[1].ints.push_back(i % 3);
  }
  EXPECT_TRUE(db->Load("dim", dim).ok());
  EXPECT_TRUE(db->RunTupleMover().ok());
  return db;
}

std::string RunSorted(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  if (!r.ok()) return "<error>";
  return r.value().rows.ToString(1 << 20);
}

/// The pruning counters one statement adds to a database's totals.
struct ScanCounts {
  uint64_t rows_scanned, blocks_pruned, containers_pruned;
};

ScanCounts RunCounted(Database* db, const std::string& sql) {
  const ExecStats& s = *db->stats();
  ScanCounts before{s.rows_scanned.load(), s.blocks_pruned.load(),
                    s.containers_pruned.load()};
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  return {s.rows_scanned.load() - before.rows_scanned,
          s.blocks_pruned.load() - before.blocks_pruned,
          s.containers_pruned.load() - before.containers_pruned};
}

void ExpectSameCounts(const ScanCounts& serial, const ScanCounts& parallel,
                      const std::string& sql) {
  EXPECT_EQ(serial.rows_scanned, parallel.rows_scanned) << sql;
  EXPECT_EQ(serial.blocks_pruned, parallel.blocks_pruned) << sql;
  EXPECT_EQ(serial.containers_pruned, parallel.containers_pruned) << sql;
}

TEST(ParallelPlanTest, ExplainShowsParallelUnion) {
  auto db = MakeDb(4, 4);
  auto r = db->Execute("EXPLAIN SELECT COUNT(*) FROM fact WHERE grp = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().message.find("ParallelUnion"), std::string::npos) << r.value().message;
}

TEST(ParallelPlanTest, SmallTablesStaySerial) {
  auto db = MakeDb(4, 4);
  auto r = db->Execute("EXPLAIN SELECT COUNT(*) FROM dim");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().message.find("ParallelUnion"), std::string::npos) << r.value().message;
}

TEST(ParallelPlanTest, MatchesSerialResults) {
  for (uint32_t segments : {3u, 1u}) {
    SCOPED_TRACE("local segments " + std::to_string(segments));
    auto serial = MakeDb(1, 1, segments);
    auto parallel = MakeDb(8, 4, segments);
    const char* queries[] = {
        // Aggregation sweep over every row (morsel scan + per-fragment partial).
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact",
        // Grouped aggregation with a filter.
        "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM fact WHERE k < 400 "
        "GROUP BY grp ORDER BY grp",
        // Join probing a shared build, then grouped.
        "SELECT d.bucket, COUNT(*) AS n FROM fact f JOIN dim d ON f.k = d.k "
        "GROUP BY d.bucket ORDER BY d.bucket",
        // Plain filtered scan, deterministic order.
        "SELECT id, v FROM fact WHERE k = 123 ORDER BY id",
        // DISTINCT on top of the parallel union.
        "SELECT DISTINCT grp FROM fact ORDER BY grp",
        // Partial AVG/MIN per fragment, combined after the gather; v is a
        // multiple of 0.25, so every partial sum is exact in any order.
        "SELECT grp, AVG(v), MIN(k) FROM fact GROUP BY grp ORDER BY grp",
        // Not partialable: raw rows cross the gather into one aggregation.
        "SELECT grp, COUNT(DISTINCT k) FROM fact GROUP BY grp ORDER BY grp",
        // Pruned scans on the leading sort column. A point and the narrow
        // ranges keep a block or two, too few rows to fan out. With one
        // local segment the wide ranges keep blocks 1-5 and 0-5, pruning
        // blocks on both sides or after them, and run as morsel scans.
        // Ranges from 16000 cross the first block boundary.
        "SELECT id, k, v FROM fact WHERE id = 20000",
        "SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact "
        "WHERE id >= 20000 AND id < 21000",
        "SELECT id, v FROM fact WHERE id >= 20000 AND id < 21000 ORDER BY id",
        "SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact "
        "WHERE id >= 16000 AND id < 17000",
        "SELECT id, grp FROM fact WHERE id >= 16000 AND id < 17000 ORDER BY id",
        "SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact "
        "WHERE id >= 20000 AND id < 95000",
        "SELECT id, v FROM fact WHERE id >= 20000 AND id < 95000 AND k = 7 ORDER BY id",
        "SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM fact "
        "WHERE id >= 16000 AND id < 82000",
    };
    if (segments == 1) {
      // The wide ranges keep 81920 and 98304 rows: they fan out.
      for (const char* q : {"SELECT COUNT(*) FROM fact WHERE id >= 20000 AND id < 95000",
                            "SELECT COUNT(*) FROM fact WHERE id >= 16000 AND id < 82000"}) {
        auto explain = parallel->Execute(std::string("EXPLAIN ") + q);
        ASSERT_TRUE(explain.ok()) << explain.status().ToString();
        EXPECT_NE(explain.value().message.find("ParallelUnion"), std::string::npos) << q;
      }
    }
    for (const char* q : queries) {
      EXPECT_EQ(RunSorted(serial.get(), q), RunSorted(parallel.get(), q)) << q;
    }
    // A bound that prunes every block: no morsel, no rows, at either fan-out.
    for (Database* db : {serial.get(), parallel.get()}) {
      auto count = db->Execute("SELECT COUNT(*) FROM fact WHERE id > 200000");
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      ASSERT_EQ(count.value().NumRows(), 1u);
      EXPECT_EQ(count.value().At(0, 0).i64(), 0);
      auto rows = db->Execute("SELECT id, v FROM fact WHERE id > 200000");
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows.value().NumRows(), 0u);
    }
  }
}

TEST(ParallelPlanTest, PruningCountersMatchSerial) {
  // The morsel carve drops pruned containers and block ranges before any
  // fragment opens them. It must count them as a serial scan does: once
  // per container or block, however many morsels it would have made.
  const char* queries[] = {
      "SELECT COUNT(*) FROM fact WHERE id >= 20000 AND id < 21000",
      "SELECT SUM(v) FROM fact WHERE id >= 16000 AND id < 17000",
      "SELECT COUNT(*) FROM fact WHERE id >= 20000 AND id < 95000",
      "SELECT SUM(v) FROM fact WHERE id >= 16000 AND id < 82000",
      "SELECT COUNT(*) FROM fact WHERE id > 200000",
      "SELECT id FROM fact WHERE id = 20000 AND k < 100",
      "SELECT COUNT(*) FROM fact WHERE k = 7",
  };
  for (uint32_t segments : {3u, 1u}) {
    SCOPED_TRACE("local segments " + std::to_string(segments));
    auto serial = MakeDb(1, 1, segments);
    auto parallel = MakeDb(8, 4, segments);
    for (const char* q : queries) {
      ExpectSameCounts(RunCounted(serial.get(), q), RunCounted(parallel.get(), q), q);
    }
  }
  // On the sorted 8-block container the figures are known exactly. The
  // middle range keeps blocks 1-5 and is a morsel scan: the carve prunes
  // block 0 before its morsels and blocks 6 and 7 after them.
  auto parallel = MakeDb(8, 4, 1);
  const char* middle_sql = "SELECT COUNT(*) FROM fact WHERE id >= 20000 AND id < 95000";
  auto explain = parallel->Execute(std::string("EXPLAIN ") + middle_sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().message.find("ParallelUnion"), std::string::npos);
  ScanCounts middle = RunCounted(parallel.get(), middle_sql);
  EXPECT_EQ(middle.rows_scanned, 5u * 16384);
  EXPECT_EQ(middle.blocks_pruned, 3u);
  EXPECT_EQ(middle.containers_pruned, 0u);
  ScanCounts none = RunCounted(parallel.get(), "SELECT COUNT(*) FROM fact WHERE id > 200000");
  EXPECT_EQ(none.rows_scanned, 0u);
  EXPECT_EQ(none.blocks_pruned, 0u);
  EXPECT_EQ(none.containers_pruned, 1u);
}

TEST(ParallelPlanTest, WosScannedOnceWhenEveryRosBlockIsPruned) {
  // ROS holds ids 0..131071; the WOS holds committed ids 200000.., this
  // transaction's uncommitted ids 300000.. and another open transaction's
  // ids 400000... A bound above every ROS id leaves no morsel, and the WOS
  // is still read once: committed rows and own writes, nothing else.
  auto db = MakeDb(8, 4, 1);
  auto fact_rows = [](int64_t first, int n) {
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
    for (int64_t i = first; i < first + n; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].ints.push_back(i % 500);
      rows.columns[2].ints.push_back(i % 7);
      rows.columns[3].doubles.push_back(0.5);
    }
    return rows;
  };
  ASSERT_TRUE(db->Load("fact", fact_rows(200000, 10)).ok());
  Cluster* cluster = db->cluster();
  auto own = cluster->txns()->Begin();
  ASSERT_TRUE(cluster->Load("fact", fact_rows(300000, 5), own.get()).ok());
  auto other = cluster->txns()->Begin();
  ASSERT_TRUE(cluster->Load("fact", fact_rows(400000, 7), other.get()).ok());
  ProjectionStorage* ps = cluster->node(0)->GetStorage("fact_super");
  ASSERT_NE(ps, nullptr);
  ASSERT_EQ(ps->WosRowCount(), 22u);
  ASSERT_EQ(ps->NumContainers(), 1u);

  std::multiset<int64_t> want;
  for (int64_t i = 0; i < 10; ++i) want.insert(200000 + i);
  for (int64_t i = 0; i < 5; ++i) want.insert(300000 + i);
  ScanSpec spec;
  spec.storage = ps;
  spec.projection_columns = {0};
  spec.output_names = {"id"};
  spec.output_types = {TypeId::kInt64};
  AddScanConjunct(&spec, Cmp(CompareOp::kGt, ColIdx(0, TypeId::kInt64),
                             Lit(Value::Int64(150000))));
  for (size_t fanout : {1u, 8u}) {
    SCOPED_TRACE("fan-out " + std::to_string(fanout));
    auto morsels = fanout > 1 ? std::make_shared<MorselDispenser>(fanout) : nullptr;
    std::vector<OperatorPtr> fragments;
    for (size_t f = 0; f < fanout; ++f) {
      ScanSpec fragment = spec;
      fragment.morsels = morsels;
      fragments.push_back(std::make_unique<ScanOperator>(fragment));
    }
    OperatorPtr root = MakeUnionExchange(std::move(fragments), "ParallelUnion",
                                         /*count_network=*/false);
    ExecStats stats;
    ExecContext ctx = db->MakeExecContext();
    ctx.stats = &stats;
    ctx.txn_id = own->id();
    auto out = DrainOperator(root.get(), &ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const std::vector<int64_t>& ids = out.value().columns[0].ints;
    EXPECT_EQ(std::multiset<int64_t>(ids.begin(), ids.end()), want);
    EXPECT_EQ(stats.rows_scanned.load(), want.size());  // WOS rows only
    EXPECT_EQ(stats.containers_pruned.load(), 1u);
    EXPECT_EQ(stats.bytes_read.load(), 0u);  // no ROS reader opened a block
  }
  cluster->txns()->Rollback(own);
  cluster->txns()->Rollback(other);
}

TEST(ParallelPlanTest, AllNullBlockOfLeadingSortColumnNeverPrunes) {
  // `n` is sorted by the nullable `a`: 70000 NULLs, then a = 0..19999, so
  // its first four blocks (65536 rows) are all NULL and have no min/max. A
  // bound on `a` must keep them — NULL stats never prune — at every fan-out,
  // even though none of their rows can match. Kept, they are enough rows
  // for a bound on `a` to plan a morsel scan.
  auto make_db = [](size_t fanout, size_t workers) {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.k_safety = 0;
    opts.local_segments_per_node = 1;
    opts.intra_node_parallelism = fanout;
    opts.worker_threads = workers;
    auto db = std::make_unique<Database>(opts);
    EXPECT_TRUE(db->Execute("CREATE TABLE n (a INT, b INT NOT NULL)").ok());
    RowBlock rows({TypeId::kInt64, TypeId::kInt64});
    for (int64_t i = 0; i < 90000; ++i) {
      rows.columns[0].Append(i < 70000 ? Value::Null(TypeId::kInt64)
                                       : Value::Int64(i - 70000));
      rows.columns[1].ints.push_back(i);
    }
    EXPECT_TRUE(db->Load("n", rows).ok());
    EXPECT_TRUE(db->RunTupleMover().ok());
    return db;
  };
  auto serial = make_db(1, 1);
  auto parallel = make_db(8, 4);
  auto explain = parallel->Execute("EXPLAIN SELECT COUNT(*) FROM n WHERE a < 100");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().message.find("ParallelUnion"), std::string::npos);
  const char* queries[] = {
      "SELECT COUNT(*), SUM(b) FROM n WHERE a < 100",
      "SELECT a, b FROM n WHERE a >= 19990 ORDER BY a",
      "SELECT COUNT(*) FROM n WHERE a IS NULL",
      "SELECT COUNT(*) FROM n WHERE a > 100000",
  };
  for (const char* q : queries) {
    EXPECT_EQ(RunSorted(serial.get(), q), RunSorted(parallel.get(), q)) << q;
    ExpectSameCounts(RunCounted(serial.get(), q), RunCounted(parallel.get(), q), q);
  }
  // a < 100: the four all-NULL blocks and the block holding the last NULLs
  // and a = 0..11919 are read; only the last block (a >= 11920) is pruned.
  ScanCounts low = RunCounted(parallel.get(), "SELECT COUNT(*) FROM n WHERE a < 100");
  EXPECT_EQ(low.rows_scanned, 5u * 16384);
  EXPECT_EQ(low.blocks_pruned, 1u);
  auto count = parallel->Execute("SELECT COUNT(*) FROM n WHERE a < 100");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().At(0, 0).i64(), 100);
}

TEST(ParallelPlanTest, PrunedScanPlansSerial) {
  // The fan-out gate counts the rows a scan will read, not the rows its
  // table stores. On the sorted 8-block container `id < 100` keeps one
  // block, so the fan-out-8 database plans it as one pipeline, and it
  // answers and counts as the fan-out-1 database does. A whole-table
  // aggregate keeps every block and still fans out.
  auto serial = MakeDb(1, 1, 1);
  auto parallel = MakeDb(8, 4, 1);
  const std::string pruned = "SELECT COUNT(*), SUM(v), MAX(id) FROM fact WHERE id < 100";
  auto explain = parallel->Execute("EXPLAIN " + pruned);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain.value().message.find("ParallelUnion"), std::string::npos)
      << explain.value().message;
  EXPECT_EQ(RunSorted(serial.get(), pruned), RunSorted(parallel.get(), pruned));
  ScanCounts counts = RunCounted(parallel.get(), pruned);
  ExpectSameCounts(RunCounted(serial.get(), pruned), counts, pruned);
  EXPECT_EQ(counts.rows_scanned, 16384u);
  EXPECT_EQ(counts.blocks_pruned, 7u);
  // One pipeline starts no pinned producer thread.
  uint64_t pinned = parallel->scheduler()->stats().pinned_started.load();
  ASSERT_TRUE(parallel->Execute(pruned).ok());
  EXPECT_EQ(parallel->scheduler()->stats().pinned_started.load(), pinned);

  auto whole = parallel->Execute("EXPLAIN SELECT COUNT(*), SUM(v) FROM fact");
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_NE(whole.value().message.find("ParallelUnion"), std::string::npos)
      << whole.value().message;
}

TEST(ParallelPlanTest, PrunedScanGateAveragesOverUnits) {
  // Four nodes, K = 1: the gate asks for 65536 rows read per scan unit, on
  // average over the four units. `fact` holds 300000 rows, about 75000 per
  // node in one container sorted by id. `id < 1000` keeps each node's first
  // block: 65536 rows in all, enough for one unit but not for four, so it
  // plans serial. A whole-table aggregate reads every row and fans out.
  auto make_db = [](size_t fanout, size_t workers) {
    DatabaseOptions opts;
    opts.num_nodes = 4;
    opts.k_safety = 1;
    opts.local_segments_per_node = 1;
    opts.intra_node_parallelism = fanout;
    opts.worker_threads = workers;
    auto db = std::make_unique<Database>(opts);
    EXPECT_TRUE(db->Execute("CREATE TABLE fact (id INT NOT NULL, v FLOAT)").ok());
    RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
    for (int64_t i = 0; i < 300000; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].doubles.push_back((i % 97) * 0.25);
    }
    EXPECT_TRUE(db->Load("fact", rows).ok());
    EXPECT_TRUE(db->RunTupleMover().ok());
    return db;
  };
  auto serial = make_db(1, 1);
  auto parallel = make_db(4, 4);
  const std::string pruned = "SELECT COUNT(*), SUM(v), MAX(id) FROM fact WHERE id < 1000";
  const std::string whole = "SELECT COUNT(*), SUM(v), MAX(id) FROM fact";
  auto explain = parallel->Execute("EXPLAIN " + pruned);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain.value().message.find("ParallelUnion"), std::string::npos)
      << explain.value().message;
  explain = parallel->Execute("EXPLAIN " + whole);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().message.find("ParallelUnion"), std::string::npos)
      << explain.value().message;
  for (const std::string& q : {pruned, whole}) {
    EXPECT_EQ(RunSorted(serial.get(), q), RunSorted(parallel.get(), q)) << q;
    ExpectSameCounts(RunCounted(serial.get(), q), RunCounted(parallel.get(), q), q);
  }
  EXPECT_EQ(RunCounted(parallel.get(), pruned).rows_scanned, 4u * 16384);
}

TEST(ParallelPlanTest, StatsMergeExactAt16Workers) {
  // Every morsel worker counts into a thread-local ExecStats merged at the
  // pipeline barrier; the total must be exact, not approximate.
  auto db = MakeDb(16, 16);
  uint64_t before = db->stats()->rows_scanned.load();
  auto r = db->Execute("SELECT COUNT(*) FROM fact");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().At(0, 0).i64(), kFactRows);
  uint64_t scanned = db->stats()->rows_scanned.load() - before;
  EXPECT_EQ(scanned, static_cast<uint64_t>(kFactRows));
}

TEST(ParallelPlanTest, LimitAbandonsMorselWorkersCleanly) {
  // The consumer closes after 5 rows; ConsumerClosed must cancel + join all
  // morsel fragments before Close returns (no hang, no leak — TSan lane
  // verifies the teardown ordering).
  auto db = MakeDb(8, 4);
  auto r = db->Execute("SELECT id FROM fact LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NumRows(), 5u);
  // The database must remain fully usable afterwards.
  auto again = db->Execute("SELECT COUNT(*) FROM fact");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().At(0, 0).i64(), kFactRows);
}

TEST(ParallelPlanTest, ReservationNeverExceededUnderParallelStress) {
  // Concurrent parallel queries against a small pool: the admission gauge
  // may never exceed the pool, and every query still answers (possibly at
  // reduced fan-out via AllowedFanout). `t` is big enough for the planner's
  // fan-out gate (65536 rows read per unit).
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.intra_node_parallelism = 8;
  opts.worker_threads = 4;
  opts.query_memory_budget = 32ull << 20;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT NOT NULL, v INT)").ok());
  RowBlock rows({TypeId::kInt64, TypeId::kInt64});
  for (int i = 0; i < 80000; ++i) {
    rows.columns[0].ints.push_back(i);
    rows.columns[1].ints.push_back(i % 13);
  }
  ASSERT_TRUE(db.Load("t", rows).ok());
  ASSERT_TRUE(db.RunTupleMover().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        auto r = db.Execute("SELECT v, COUNT(*) FROM t GROUP BY v");
        if (!r.ok() || r.value().NumRows() != 13) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto stats = db.resource_manager()->stats();
  EXPECT_LE(stats.peak_reserved_bytes, 32ull << 20);
  EXPECT_EQ(stats.active_queries, 0u);
}


TEST(SharedJoinBuildTest, SpillsToMergeUnderTwoFragments) {
  // Two fragments probe one build that cannot fit a 1-byte budget: the build
  // spills once and each fragment sort-merges its own probe morsels against
  // the whole spilled build; the union is the exact 1:1 self-join.
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
  opts.worker_threads = 2;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT NOT NULL, v INT)").ok());
  RowBlock rows({TypeId::kInt64, TypeId::kInt64});
  for (int i = 0; i < 1000; ++i) {
    rows.columns[0].ints.push_back(i);
    rows.columns[1].ints.push_back(i % 13);
  }
  ASSERT_TRUE(db.Load("t", rows).ok());
  ASSERT_TRUE(db.RunTupleMover().ok());

  ScanSpec scan;
  scan.storage = db.cluster()->node(0)->GetStorage("t_super");
  ASSERT_NE(scan.storage, nullptr);
  scan.projection_columns = {0, 1};
  scan.output_names = {"id", "v"};
  scan.output_types = {TypeId::kInt64, TypeId::kInt64};
  JoinSpec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = {0};
  spec.build_keys = {0};
  auto build =
      std::make_shared<SharedJoinBuild>(std::make_unique<ScanOperator>(scan), spec, 2);
  auto morsels = std::make_shared<MorselDispenser>(2);
  std::vector<OperatorPtr> fragments;
  std::vector<HashJoinOperator*> joins;
  for (int f = 0; f < 2; ++f) {
    ScanSpec probe = scan;
    probe.morsels = morsels;
    auto join = std::make_unique<HashJoinOperator>(std::make_unique<ScanOperator>(probe),
                                                   build, /*show_build=*/f == 0);
    joins.push_back(join.get());
    fragments.push_back(std::move(join));
  }
  OperatorPtr root = MakeUnionExchange(std::move(fragments), "ParallelUnion",
                                       /*count_network=*/false);

  ResourceBudget budget(1);
  ExecStats stats;
  ExecContext ctx = db.MakeExecContext();
  ctx.budget = &budget;
  ctx.stats = &stats;
  ASSERT_NE(ctx.scheduler, nullptr);
  auto out = DrainOperator(root.get(), &ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().NumRows(), 1000u);  // id is unique: 1:1 self join
  for (size_t r = 0; r < out.value().NumRows(); ++r) {
    EXPECT_EQ(out.value().columns[0].ints[r], out.value().columns[2].ints[r]) << r;
  }
  EXPECT_EQ(stats.hash_to_merge_switches.load(), 1u);
  for (const HashJoinOperator* join : joins) EXPECT_TRUE(join->switched_to_merge());
}

}  // namespace
}  // namespace stratica
