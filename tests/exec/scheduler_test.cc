// Unified worker pool tests (DESIGN.md §12): work-stealing under skewed
// task costs, deadlock-free fork/join on tiny pools, pinned-thread reuse,
// reservation->fan-out mapping, parallel-plan correctness against serial
// plans, stats-merge exactness at 16 workers, cooperative abandonment of
// morsel fragments under an early-closing consumer (LIMIT), and a shared
// hash-join build spilling to sort-merge under two fragments.
#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

std::unique_ptr<Database> MakeDb(size_t fanout, size_t workers) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.k_safety = 0;
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
  // Big enough to clear the planner's kMinParallelRowsPerUnit gate.
  RowBlock fact({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  constexpr int kRows = 40000;
  for (int i = 0; i < kRows; ++i) {
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
  auto serial = MakeDb(1, 1);
  auto parallel = MakeDb(8, 4);
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
  };
  for (const char* q : queries) {
    EXPECT_EQ(RunSorted(serial.get(), q), RunSorted(parallel.get(), q)) << q;
  }
}

TEST(ParallelPlanTest, StatsMergeExactAt16Workers) {
  // Every morsel worker counts into a thread-local ExecStats merged at the
  // pipeline barrier; the total must be exact, not approximate.
  auto db = MakeDb(16, 16);
  uint64_t before = db->stats()->rows_scanned.load();
  auto r = db->Execute("SELECT COUNT(*) FROM fact");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().At(0, 0).i64(), 40000);
  uint64_t scanned = db->stats()->rows_scanned.load() - before;
  EXPECT_EQ(scanned, 40000u);
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
  EXPECT_EQ(again.value().At(0, 0).i64(), 40000);
}

TEST(ParallelPlanTest, ReservationNeverExceededUnderParallelStress) {
  // Concurrent parallel queries against a small pool: the admission gauge
  // may never exceed the pool, and every query still answers (possibly at
  // reduced fan-out via AllowedFanout).
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.intra_node_parallelism = 8;
  opts.worker_threads = 4;
  opts.query_memory_budget = 32ull << 20;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT NOT NULL, v INT)").ok());
  RowBlock rows({TypeId::kInt64, TypeId::kInt64});
  for (int i = 0; i < 40000; ++i) {
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
