// Cluster-scale chaos (DESIGN.md §11): a VirtualCluster at
// STRATICA_CLUSTER_SCALE_NODES simulated nodes (default 64 for local ctest;
// CI runs 256) under mixed INSERT traffic and snapshot queries while a
// seeded chaos agent drives per-node health — stragglers, flaky I/O, node
// kills — followed by one elastic add-node rebalance with readers still
// live, a deterministic straggler-hedge probe and a deterministic
// reroute probe. Oracle: zero lost, duplicate or phantom rows; snapshot
// counts stay batch-atomic; the degraded paths (hedges, reroutes/failovers)
// actually fired.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/virtual_cluster.h"
#include "exec/scan.h"

namespace stratica {
namespace {

uint32_t ScaleNodes() {
  const char* env = std::getenv("STRATICA_CLUSTER_SCALE_NODES");
  int n = env != nullptr ? std::atoi(env) : 64;
  return n >= 4 ? static_cast<uint32_t>(n) : 64u;
}

Status ExecOk(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  return r.status();
}

/// Physically duplicated (id, epoch) pairs across every live storage copy —
/// the signature of a double-applied recovery or rebalance range.
std::string FindPhysicalDups(VirtualCluster& vc) {
  std::string out;
  for (uint32_t n = 0; n < vc.num_nodes(); ++n) {
    auto* node = vc.cluster()->node(n);
    for (const auto& name : node->StorageNames()) {
      auto* ps = node->GetStorage(name);
      int id_col = -1;
      const auto& cols = ps->config().column_names;
      for (size_t c = 0; c < cols.size(); ++c) {
        if (cols[c] == "id") id_col = static_cast<int>(c);
      }
      if (id_col < 0) continue;
      auto read =
          ScanCopy(vc.db()->fs(), ps, Epoch{1} << 60, {kScanCommitEpoch, kScanDeleteEpoch});
      if (!read.ok()) continue;
      const RowBlock& rows = read.value();
      std::vector<Epoch> row_epochs(rows.columns[cols.size()].ints.begin(),
                                    rows.columns[cols.size()].ints.end());
      std::map<std::pair<int64_t, Epoch>, int> seen;
      for (size_t r = 0; r < rows.NumRows(); ++r) {
        if (++seen[{rows.columns[id_col].ints[r], row_epochs[r]}] == 2) {
          out += "  node" + std::to_string(n) + "/" + name + " id=" +
                 std::to_string(rows.columns[id_col].ints[r]) + " epoch=" +
                 std::to_string(row_epochs[r]) + "\n";
        }
      }
    }
  }
  return out;
}

TEST(ClusterScaleTest, ChaosSurvivesAtScale) {
  constexpr int kBatch = 10;
  constexpr int kBatches = 20;
  const uint32_t nodes = ScaleNodes();
  const uint64_t seed = 4242;

  VirtualClusterOptions opts;
  opts.num_nodes = nodes;
  opts.k_safety = 1;
  opts.seed = seed;
  // A straggler pays 20ms per file op — far past the 5ms zero-progress
  // deadline, so a scan partition landing on it always hedges to the buddy.
  opts.model.slow_latency_us = 20000;
  opts.model.slow_jitter_us = 2000;
  opts.model.flaky_probability = 0.05;
  opts.db.hedge_deadline_ms = 5;
  opts.db.tuple_mover_interval_ms = 1;
  // One pipeline per node keeps the thread count sane at 256 nodes.
  opts.db.intra_node_parallelism = 1;
  VirtualCluster vc(opts);
  Database* db = vc.db();

  ASSERT_TRUE(ExecOk(db, "CREATE TABLE s (id INT NOT NULL, val INT)").ok());

  // Preload a ROS-resident base so every node owns files chaos can bite on.
  // A multiple of kBatch keeps the readers' snapshot invariant simple.
  const int64_t preload = static_cast<int64_t>(nodes) * 50;
  static_assert(kBatch == 10, "preload multiple-of-batch math");
  RowBlock base_rows({TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < preload; ++i) {
    base_rows.columns[0].ints.push_back(1000000 + i);
    base_rows.columns[1].ints.push_back(1);
  }
  ASSERT_TRUE(db->Load("s", base_rows).ok());
  ASSERT_TRUE(db->RunTupleMover().ok());

  std::set<int64_t> committed;  // whole batches, DML thread only
  std::set<int64_t> uncertain;
  std::atomic<bool> dml_done{false};
  std::atomic<bool> stop_readers{false};
  std::atomic<int> snapshot_violations{0};

  std::thread dml([&] {
    for (int b = 0; b < kBatches; ++b) {
      int64_t base = static_cast<int64_t>(b) * kBatch;
      std::string sql = "INSERT INTO s VALUES ";
      for (int r = 0; r < kBatch; ++r) {
        if (r) sql += ", ";
        sql += "(" + std::to_string(base + r) + ", 1)";
      }
      if (ExecOk(db, sql).ok()) {
        committed.insert(base);
      } else {
        uncertain.insert(base);
      }
    }
    dml_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto r = db->Execute("SELECT COUNT(*) FROM s");
        if (!r.ok()) continue;  // degraded availability is fine mid-chaos
        if (r.value().At(0, 0).i64() % kBatch != 0) snapshot_violations.fetch_add(1);
      }
    });
  }

  // Seeded chaos: stragglers, flaky nodes and at most one kill at a time
  // (k=1) while the DML runs.
  std::vector<std::string> chaos_log;
  {
    Rng rng(DeriveSeed(seed, /*stream=*/1));
    int down = -1;
    std::set<uint32_t> degraded;
    while (!dml_done.load(std::memory_order_acquire)) {
      uint32_t victim = static_cast<uint32_t>(rng.Next() % nodes);
      switch (rng.Next() % 8) {
        case 0:
          if (down < 0 && !degraded.count(victim) && vc.KillNode(victim).ok()) {
            down = static_cast<int>(victim);
            chaos_log.push_back("down node" + std::to_string(victim));
          }
          break;
        case 1:
          if (down >= 0 && vc.ReviveNode(static_cast<uint32_t>(down)).ok()) {
            chaos_log.push_back("revived node" + std::to_string(down));
            down = -1;
          }
          break;
        case 2:
          if (victim != static_cast<uint32_t>(down) &&
              vc.SetNodeHealth(victim, NodeHealth::kSlow).ok()) {
            degraded.insert(victim);
            chaos_log.push_back("slow node" + std::to_string(victim));
          }
          break;
        case 3:
          if (victim != static_cast<uint32_t>(down) &&
              vc.SetNodeHealth(victim, NodeHealth::kFlaky).ok()) {
            degraded.insert(victim);
            chaos_log.push_back("flaky node" + std::to_string(victim));
          }
          break;
        case 4:
          for (uint32_t n : degraded) (void)vc.ReviveNode(n);
          degraded.clear();
          break;
        default:
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // Heal everything: degradations first, then the downed node (its
    // recovery needs healthy sources; retry while recovery sorts itself out).
    for (uint32_t n : degraded) ASSERT_TRUE(vc.ReviveNode(n).ok());
    for (int round = 0; down >= 0 && round < 50; ++round) {
      if (vc.ReviveNode(static_cast<uint32_t>(down)).ok()) down = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_LT(down, 0) << "node never recovered";
  }
  dml.join();

  // One elastic add-node rebalance with readers still querying. Bounded S
  // waits mean an attempt can time out under load; retry.
  {
    Status grow;
    for (int attempt = 0; attempt < 100; ++attempt) {
      grow = vc.cluster()->AddNodeAndRebalance();
      if (grow.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(grow.ok()) << grow.ToString();
  }
  EXPECT_EQ(vc.num_nodes(), nodes + 1);

  // Probe phase must be deterministic: stop the readers (a mid-flight
  // reader query would absorb the injected fault itself — quarantining the
  // probed copies so the probe query routes around them at plan time — and
  // its own failover counters only merge when it completes), stop the
  // background mover (its mergeout could likewise trip the fault first),
  // and drain chaos-era quarantines, which the planner would route around.
  stop_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(snapshot_violations.load(), 0);
  db->StopBackgroundTupleMover();
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(db->RunTupleMover().ok());
    bool clean = true;
    for (uint32_t n = 0; n < vc.num_nodes(); ++n) {
      auto* node = vc.cluster()->node(n);
      for (const auto& name : node->StorageNames()) {
        clean &= !node->GetStorage(name)->quarantined();
      }
    }
    if (clean) break;
  }

  // Deterministic straggler probe: one node slow, the query must still
  // answer (its partitions hedge onto buddies past the 5ms deadline).
  {
    uint64_t hedges_before = db->stats()->exchange_hedges.load();
    ASSERT_TRUE(vc.SetNodeHealth(nodes / 2, NodeHealth::kSlow).ok());
    auto r = db->Execute("SELECT SUM(val) FROM s");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(vc.ReviveNode(nodes / 2).ok());
    EXPECT_GT(db->stats()->exchange_hedges.load(), hedges_before);
  }

  // Deterministic reroute probe: persistent read failures on one node's
  // files mid-plan force the buddy to serve (exchange reroute or statement
  // replan, whichever catches it first); the mover tick then repairs the
  // quarantined copies. Hedging is disabled for the probe — at hundreds of
  // producer threads a speculative hedge can claim the probed partition and
  // abandon the primary before it ever touches the faulted files.
  db->SetHedgeDeadlineMs(0);
  {
    uint64_t rerouted_before = db->stats()->exchange_reroutes.load() +
                               db->stats()->reads_failed_over.load();
    FaultRule rule;
    rule.path_pattern = "node3/.*\\.(dat|idx)";
    rule.op_mask = kFaultRead;
    rule.kind = FaultKind::kPersistentError;
    size_t id = vc.fault_fs()->AddRule(rule);
    auto r = db->Execute("SELECT SUM(val) FROM s");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    vc.fault_fs()->RemoveRule(id);
    EXPECT_GT(db->stats()->exchange_reroutes.load() +
                  db->stats()->reads_failed_over.load(),
              rerouted_before);
    ASSERT_TRUE(db->RunTupleMover().ok());  // drains the quarantine
  }
  db->SetHedgeDeadlineMs(opts.db.hedge_deadline_ms);

  // Quiesce and verify the oracle. Forensics on failure: the chaos schedule
  // plus every physically duplicated (id, epoch) pair and the fault-fs op
  // log land in the test output.
  vc.fault_fs()->SetEnabled(false);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(db->RunTupleMover().ok());
    bool clean = true;
    for (uint32_t n = 0; n < vc.num_nodes(); ++n) {
      auto* node = vc.cluster()->node(n);
      for (const auto& name : node->StorageNames()) {
        clean &= !node->GetStorage(name)->quarantined();
      }
    }
    if (clean) break;
  }
  EXPECT_EQ(vc.cluster()->NumUpNodes(), nodes + 1);

  std::string dups = FindPhysicalDups(vc);
  EXPECT_TRUE(dups.empty()) << dups;

  auto ids = db->Execute("SELECT id FROM s WHERE id < 1000000 ORDER BY id");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  std::set<int64_t> present;
  for (size_t r = 0; r < ids.value().NumRows(); ++r) {
    int64_t id = ids.value().At(r, 0).i64();
    EXPECT_TRUE(present.insert(id).second) << "duplicate id " << id;
  }
  for (int64_t base : committed) {
    for (int r = 0; r < kBatch; ++r) {
      EXPECT_TRUE(present.count(base + r)) << "lost committed row " << base + r;
    }
  }
  for (int64_t base = 0; base < kBatches * kBatch; base += kBatch) {
    bool attempted = committed.count(base) || uncertain.count(base);
    int found = 0;
    for (int r = 0; r < kBatch; ++r) found += present.count(base + r) ? 1 : 0;
    if (!attempted) {
      EXPECT_EQ(found, 0) << "phantom batch at " << base;
    } else {
      EXPECT_TRUE(found == 0 || found == kBatch)
          << "torn batch at " << base << ": " << found << "/" << kBatch;
    }
  }
  auto total = db->Execute("SELECT COUNT(*) FROM s");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value().At(0, 0).i64(),
            preload + static_cast<int64_t>(committed.size()) * kBatch +
                [&] {
                  int64_t extra = 0;
                  for (int64_t base : uncertain) {
                    extra += present.count(base) ? kBatch : 0;
                  }
                  return extra;
                }());

  if (::testing::Test::HasFailure()) {
    std::string log = "chaos schedule:\n";
    for (const auto& ev : chaos_log) log += "  " + ev + "\n";
    ADD_FAILURE() << log << vc.fault_fs()->DumpOpLog();
  }
}

}  // namespace
}  // namespace stratica
