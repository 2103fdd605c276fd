// Concurrent query execution (DESIGN.md §9): thread-safe Database::Execute,
// snapshot atomicity under mixed read/DML traffic with the background tuple
// mover running, admission-control bounds, per-query stats merging, and the
// CREATE PROJECTION refresh-failure rollback.
//
// These tests are the primary TSan workload: they drive every shared-state
// path (storage snapshots, commit stamping, lock manager, resource manager,
// mover vs. scans) from many threads at once.
#include "api/database.h"
#include "common/fault_fs.h"
#include "exec/scan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace stratica {
namespace {

QueryResult MustExec(Database* db, const std::string& sql) {
  auto result = db->Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

std::unique_ptr<Database> MakeLoadedDb(DatabaseOptions opts, int rows) {
  auto db = std::make_unique<Database>(std::move(opts));
  MustExec(db.get(), "CREATE TABLE t (id INT NOT NULL, grp INT, val INT)");
  RowBlock block({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
  for (int i = 0; i < rows; ++i) {
    block.columns[0].ints.push_back(i);
    block.columns[1].ints.push_back(i % 10);
    block.columns[2].ints.push_back(i % 97);
  }
  EXPECT_TRUE(db->Load("t", block).ok());
  EXPECT_TRUE(db->RunTupleMover().ok());
  return db;
}

// Independent read-only queries from many threads must all see the same
// snapshot results a serial caller sees.
TEST(ConcurrencyTest, ConcurrentReadersMatchSerialResults) {
  auto db = MakeLoadedDb({}, 5000);
  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM t",
      "SELECT SUM(val) FROM t WHERE grp = 3",
      "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp",
      "SELECT id FROM t WHERE id < 5 ORDER BY id",
  };
  std::vector<std::string> expected;
  for (const auto& q : queries) expected.push_back(MustExec(db.get(), q).rows.ToString(100));

  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = (t + i) % queries.size();
        auto r = db->Execute(queries[qi]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (r.value().rows.ToString(100) != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Per-query stats merged into the cumulative totals: 48 full or filtered
  // scans of 5000 rows each must have accumulated.
  EXPECT_GE(db->stats()->rows_scanned.load(), 5000u * kThreads * kIters / 2);
}

// Mixed readers + INSERT/DELETE writers + the background tuple mover.
// Invariants checked against a serial oracle:
//   - epochs are atomic: every snapshot sees whole 10-row batches, so
//     COUNT(*) % 10 == 0 at every instant;
//   - one query = one snapshot: SUM(val) == 7 * COUNT(*) always (val==7);
//   - final state equals the oracle (all odd batches, even ones deleted).
TEST(ConcurrencyTest, MixedWorkloadMatchesSerialOracle) {
  DatabaseOptions opts;
  opts.tuple_mover_interval_ms = 1;  // hammer moveout/mergeout during DML
  Database db(opts);
  MustExec(&db, "CREATE TABLE u (id INT NOT NULL, val INT)");

  constexpr int kWriters = 3;
  constexpr int kBatchesPerWriter = 8;
  constexpr int kBatchRows = 10;
  constexpr int kReaders = 3;
  std::atomic<bool> writers_done{false};
  // Latch: writers start once every reader has finished one read, so the
  // writers cannot all finish before any reader is scheduled.
  std::atomic<int> readers_pending{kReaders};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (readers_pending.load() > 0) std::this_thread::yield();
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        int base = (w * kBatchesPerWriter + b) * kBatchRows;
        std::string sql = "INSERT INTO u VALUES ";
        for (int r = 0; r < kBatchRows; ++r) {
          if (r) sql += ", ";
          sql += "(" + std::to_string(base + r) + ", 7)";
        }
        auto ins = db.Execute(sql);
        ASSERT_TRUE(ins.ok()) << ins.status().ToString();
      }
      // Delete this writer's even batches, one statement per batch.
      for (int b = 0; b < kBatchesPerWriter; b += 2) {
        int base = (w * kBatchesPerWriter + b) * kBatchRows;
        auto del = db.Execute("DELETE FROM u WHERE id >= " + std::to_string(base) +
                              " AND id < " + std::to_string(base + kBatchRows));
        ASSERT_TRUE(del.ok()) << del.status().ToString();
        ASSERT_EQ(del.value().affected_rows, static_cast<uint64_t>(kBatchRows));
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      while (!writers_done.load()) {
        auto res = db.Execute("SELECT COUNT(*) AS n, SUM(val) AS s FROM u");
        // Count down before any assertion can return, or writers would hang.
        if (first) readers_pending.fetch_sub(1);
        first = false;
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        int64_t n = res.value().At(0, 0).i64();
        ASSERT_EQ(n % kBatchRows, 0)
            << "snapshot saw a partial batch: epochs are not atomic";
        if (n > 0) {
          ASSERT_EQ(res.value().At(0, 1).i64(), 7 * n)
              << "COUNT and SUM disagree within one query snapshot";
        }
        reads.fetch_add(1);
      }
    });
  }

  for (auto& th : writers) th.join();
  writers_done = true;
  for (auto& th : readers) th.join();
  db.StopBackgroundTupleMover();
  EXPECT_GT(reads.load(), 0u);

  // Serial oracle: odd batches survive.
  int64_t expect_rows = 0, expect_id_sum = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 1; b < kBatchesPerWriter; b += 2) {
      int base = (w * kBatchesPerWriter + b) * kBatchRows;
      for (int r = 0; r < kBatchRows; ++r) {
        ++expect_rows;
        expect_id_sum += base + r;
      }
    }
  }
  ASSERT_TRUE(db.RunTupleMover().ok());
  auto fin = MustExec(&db, "SELECT COUNT(*) AS n, SUM(id) AS s FROM u");
  EXPECT_EQ(fin.At(0, 0).i64(), expect_rows);
  EXPECT_EQ(fin.At(0, 1).i64(), expect_id_sum);
  // And after purging history past the AHM the answer must not change.
  ASSERT_TRUE(db.AdvanceAhm().ok());
  ASSERT_TRUE(db.RunTupleMover().ok());
  auto purged = MustExec(&db, "SELECT COUNT(*) AS n, SUM(id) AS s FROM u");
  EXPECT_EQ(purged.At(0, 0).i64(), expect_rows);
  EXPECT_EQ(purged.At(0, 1).i64(), expect_id_sum);
}

// The admission controller must bound both reserved memory (never above
// query_memory_budget) and active queries (the slot cap) while every query
// still completes.
TEST(ConcurrencyTest, AdmissionBoundsMemoryAndSlots) {
  DatabaseOptions opts;
  opts.query_memory_budget = 24ull << 20;  // a couple of group-by plans
  opts.max_concurrent_queries = 2;
  auto db = MakeLoadedDb(std::move(opts), 2000);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        auto r = db->Execute("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r.value().NumRows(), 10u);
      }
    });
  }
  for (auto& th : threads) th.join();

  auto s = db->resource_manager()->stats();
  EXPECT_GE(s.admitted, static_cast<uint64_t>(kThreads * 4));
  EXPECT_LE(s.peak_reserved_bytes, 24ull << 20) << "over-reserved past the pool";
  EXPECT_LE(s.peak_active_queries, 2u) << "slot cap not enforced";
  EXPECT_EQ(s.reserved_bytes, 0u);
  EXPECT_EQ(s.active_queries, 0u);
}

// A query whose reservation cannot be satisfied in time fails with
// ResourceExhausted instead of over-reserving.
TEST(ConcurrencyTest, AdmissionTimeoutFailsQuery) {
  DatabaseOptions opts;
  opts.query_memory_budget = 8ull << 20;
  opts.max_concurrent_queries = 1;
  opts.admission_timeout_ms = 80;
  auto db = MakeLoadedDb(std::move(opts), 50000);

  // Thread A holds the single slot with a real query; thread B must queue
  // behind it and give up after the 80 ms admission timeout.
  std::atomic<int> exhausted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto r = db->Execute(
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp");
        if (!r.ok()) {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
              << r.status().ToString();
          exhausted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // With one slot and four threads, at least the tail of the queue starves;
  // the exact count is timing-dependent.
  EXPECT_EQ(db->resource_manager()->stats().timeouts,
            static_cast<uint64_t>(exhausted.load()));
}

// CREATE PROJECTION whose refresh cannot run (one ring slot's source copy
// is unreadable) must fail the statement AND leave no half-created
// projection behind.
TEST(ConcurrencyTest, CreateProjectionRefreshFailureRollsBack) {
  MemFileSystem base;
  auto fault_fs = std::make_shared<FaultFs>(&base, 7);
  DatabaseOptions opts;
  opts.num_nodes = 3;
  opts.k_safety = 1;
  opts.fs = fault_fs;
  auto db = std::make_unique<Database>(opts);
  MustExec(db.get(), "CREATE TABLE s (a INT NOT NULL, b INT)");
  MustExec(db.get(), "INSERT INTO s VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
  ASSERT_TRUE(db->RunTupleMover().ok());  // the rows now sit in ROS files

  // Every read of one node's super-projection files fails for good, and so
  // does every read of the buddy copies while the DDL runs. Refresh reads
  // that node's ring slot from the node's own copy, then from the slot's
  // buddy, so it cannot run; queries fail over to the buddy.
  uint32_t faulty = 0;
  for (; faulty < 3; ++faulty) {
    if (db->cluster()->node(faulty)->GetStorage("s_super")->NumContainers() > 0) break;
  }
  ASSERT_LT(faulty, 3u);
  FaultRule unreadable;
  unreadable.path_pattern = "^node" + std::to_string(faulty) + "/s_super/";
  unreadable.op_mask = kFaultRead;
  unreadable.kind = FaultKind::kPersistentError;
  size_t rule = fault_fs->AddRule(unreadable);
  FaultRule buddies_unreadable = unreadable;
  buddies_unreadable.path_pattern = "^node[0-9]+/s_super_b1/";
  size_t buddy_rule = fault_fs->AddRule(buddies_unreadable);
  auto created = db->Execute(
      "CREATE PROJECTION p_ab (a, b) AS SELECT a, b FROM s ORDER BY b "
      "SEGMENTED BY HASH(b)");
  ASSERT_FALSE(created.ok()) << "refresh failure was swallowed";
  // The buddies heal; the failed reads quarantined the copies they hit, and
  // the repair pass (the tuple mover's tick) lifts that from the clean ones.
  fault_fs->RemoveRule(buddy_rule);
  ASSERT_TRUE(db->cluster()->RepairQuarantined().ok());
  // No trace left: catalog clean (primary and buddy), storage dropped.
  EXPECT_FALSE(db->catalog()->GetProjection("p_ab").ok());
  EXPECT_FALSE(db->catalog()->GetProjection("p_ab_b1").ok());
  for (uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(db->cluster()->node(n)->GetStorage("p_ab"), nullptr);
  }
  // Queries keep working against the super projection, and the failed
  // refresh must not leak its S lock: DML (I lock, S-incompatible) still
  // runs instead of timing out.
  auto r = MustExec(db.get(), "SELECT SUM(b) FROM s");
  EXPECT_EQ(r.At(0, 0).i64(), 100);
  auto ins = db->Execute("INSERT INTO s VALUES (5, 0)");
  ASSERT_TRUE(ins.ok()) << "failed refresh leaked its table lock: "
                        << ins.status().ToString();
  // Once the fault clears the same DDL succeeds and the projection answers.
  fault_fs->RemoveRule(rule);
  MustExec(db.get(),
           "CREATE PROJECTION p_ab (a, b) AS SELECT a, b FROM s ORDER BY b "
           "SEGMENTED BY HASH(b)");
  EXPECT_TRUE(db->catalog()->GetProjection("p_ab").ok());
  auto r2 = MustExec(db.get(), "SELECT SUM(b) FROM s");
  EXPECT_EQ(r2.At(0, 0).i64(), 100);
}

// The copy path falls back per ring slot: with one copy of a slot
// unreadable, refresh reads that slot from its buddy instead, so CREATE
// PROJECTION succeeds and the new projection holds every row.
TEST(ConcurrencyTest, CreateProjectionRefreshFallsBackToBuddyCopy) {
  MemFileSystem base;
  auto fault_fs = std::make_shared<FaultFs>(&base, 7);
  DatabaseOptions opts;
  opts.num_nodes = 3;
  opts.k_safety = 1;
  opts.fs = fault_fs;
  auto db = std::make_unique<Database>(opts);
  MustExec(db.get(), "CREATE TABLE s (a INT NOT NULL, b INT)");
  MustExec(db.get(), "INSERT INTO s VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
  ASSERT_TRUE(db->RunTupleMover().ok());
  uint32_t faulty = 0;
  for (; faulty < 3; ++faulty) {
    if (db->cluster()->node(faulty)->GetStorage("s_super")->NumContainers() > 0) break;
  }
  ASSERT_LT(faulty, 3u);
  FaultRule unreadable;
  unreadable.path_pattern = "^node" + std::to_string(faulty) + "/s_super/";
  unreadable.op_mask = kFaultRead;
  unreadable.kind = FaultKind::kPersistentError;
  fault_fs->AddRule(unreadable);
  MustExec(db.get(),
           "CREATE PROJECTION p_ab (a, b) AS SELECT a, b FROM s ORDER BY b "
           "SEGMENTED BY HASH(b)");
  auto r = MustExec(db.get(), "SELECT SUM(b) FROM s");
  EXPECT_EQ(r.At(0, 0).i64(), 100);
  // Through the new projection itself: its copies on every node sum to 100.
  Epoch now = db->cluster()->epochs()->LatestQueryableEpoch();
  int64_t sum = 0;
  for (uint32_t n = 0; n < 3; ++n) {
    auto read = ScanCopy(db->fs(), db->cluster()->node(n)->GetStorage("p_ab"), now, {});
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    for (int64_t b : read.value().columns[1].ints) sum += b;
  }
  EXPECT_EQ(sum, 100);
}

// Each query gets private ExecStats; the cumulative totals equal the sum
// over queries (no interleaving, no lost updates).
TEST(ConcurrencyTest, PerQueryStatsMergeExactly) {
  auto db = MakeLoadedDb({}, 1000);
  uint64_t before = db->stats()->rows_scanned.load();
  constexpr int kThreads = 6;
  constexpr int kIters = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto r = db->Execute("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r.value().At(0, 0).i64(), 1000);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every query scans exactly 1000 rows; the merged total must be exact.
  EXPECT_EQ(db->stats()->rows_scanned.load() - before,
            1000u * kThreads * kIters);
}

}  // namespace
}  // namespace stratica
