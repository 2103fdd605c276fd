// Cluster tests: segmentation ring invariants, buddy placement, quorum
// commit with ejection, recovery equivalence, refresh, rebalance, backup.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "api/database.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/scan.h"

namespace stratica {
namespace {

TEST(SegmentationRingTest, EveryHashMapsToExactlyOneNode) {
  Rng rng(1);
  for (uint32_t n : {1u, 2u, 3u, 4u, 7u, 16u}) {
    SegmentationRing ring(n);
    for (int i = 0; i < 1000; ++i) {
      uint64_t h = rng.Next();
      uint32_t node = ring.NodeFor(h, 0);
      EXPECT_LT(node, n);
      auto [lo, hi] = ring.RangeStoredBy(node, 0);
      EXPECT_GE(h, lo);
      EXPECT_LE(h, hi);
    }
  }
}

TEST(SegmentationRingTest, RangesPartitionTheSpace) {
  for (uint32_t n : {1u, 2u, 3u, 5u, 8u}) {
    SegmentationRing ring(n);
    uint64_t expected_lo = 0;
    for (uint32_t slot = 0; slot < n; ++slot) {
      auto [lo, hi] = ring.SlotRange(slot);
      EXPECT_EQ(lo, expected_lo) << "n=" << n << " slot=" << slot;
      if (slot + 1 == n) {
        EXPECT_EQ(hi, UINT64_MAX);
      } else {
        expected_lo = hi + 1;
      }
    }
  }
}

TEST(SegmentationRingTest, BuddyOffsetNeverColocates) {
  Rng rng(2);
  for (uint32_t n : {2u, 3u, 4u, 8u}) {
    SegmentationRing ring(n);
    for (int i = 0; i < 500; ++i) {
      uint64_t h = rng.Next();
      EXPECT_NE(ring.NodeFor(h, 0), ring.NodeFor(h, 1))
          << "buddy co-located at n=" << n;
    }
  }
}

TEST(SegmentationRingTest, RoughlyBalanced) {
  SegmentationRing ring(4);
  Rng rng(3);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[ring.NodeFor(Mix64(rng.Next()), 0)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

// ---------------------------------------------------------------------------

class ClusterFixture : public ::testing::Test {
 protected:
  explicit ClusterFixture(uint64_t wos_capacity_rows = ClusterConfig().wos_capacity_rows) {
    Init(4, 1, wos_capacity_rows);
  }

  void Init(uint32_t nodes, uint32_t k, uint64_t wos_capacity_rows) {
    ClusterConfig cfg;
    cfg.num_nodes = nodes;
    cfg.k_safety = k;
    cfg.wos_capacity_rows = wos_capacity_rows;
    cfg.direct_ros_row_threshold = 1000000;  // default through WOS in tests
    cluster_ = std::make_unique<Cluster>(cfg, &fs_, &catalog_);

    TableDef sales;
    sales.name = "sales";
    sales.columns = {{"sale_id", TypeId::kInt64, false},
                     {"cust", TypeId::kInt64, true},
                     {"price", TypeId::kFloat64, true}};
    ASSERT_TRUE(cluster_->CreateTableWithSuperProjection(std::move(sales)).ok());
  }

  RowBlock MakeRows(int start, int count) {
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
    for (int i = start; i < start + count; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].ints.push_back(i % 50);
      rows.columns[2].doubles.push_back(i * 1.25);
    }
    return rows;
  }

  Epoch LoadAndCommit(int start, int count) {
    auto txn = cluster_->txns()->Begin();
    auto result = cluster_->Load("sales", MakeRows(start, count), txn.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    auto e = cluster_->Commit(txn);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? e.value() : 0;
  }

  // Sum of visible sale_ids across all up nodes for one projection family,
  // used as a cheap content fingerprint; read at `at` (0 = now).
  int64_t Fingerprint(const std::string& projection, Epoch at = 0) {
    int64_t sum = 0;
    Epoch now = at != 0 ? at : cluster_->epochs()->LatestQueryableEpoch();
    for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
      auto* ps = cluster_->node(n)->GetStorage(projection);
      if (!ps || !cluster_->node(n)->up()) continue;
      auto read = ScanCopy(&fs_, ps, now, {kScanDeleteEpoch});
      EXPECT_TRUE(read.ok());
      if (!read.ok()) continue;
      const RowBlock& rows = read.value();
      const std::vector<int64_t>& dels = rows.columns.back().ints;
      // Sum sale_id wherever the projection stores it.
      size_t id_col = 0;
      for (size_t c = 0; c < ps->config().column_names.size(); ++c) {
        if (ps->config().column_names[c] == "sale_id") id_col = c;
      }
      for (size_t r = 0; r < rows.NumRows(); ++r) {
        if (dels[r] == 0) sum += rows.columns[id_col].ints[r];
      }
    }
    return sum;
  }

  // Delete rows whose first column is below `bound` from `table`'s super
  // projection and buddy on every up node, by issuing delete vectors
  // (simulating a DELETE statement's effect); returns the commit epoch.
  Epoch DeleteIdsBelow(int64_t bound, const std::string& table = "sales") {
    Epoch now = cluster_->epochs()->LatestQueryableEpoch();
    auto txn = cluster_->txns()->Begin();
    for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
      if (!cluster_->node(n)->up()) continue;
      for (const std::string& proj : {table + "_super", table + "_super_b1"}) {
        auto* ps = cluster_->node(n)->GetStorage(proj);
        auto read = ScanCopy(&fs_, ps, now, {kScanTarget, kScanPosition, kScanDeleteEpoch});
        EXPECT_TRUE(read.ok());
        if (!read.ok()) continue;
        const RowBlock& rows = read.value();
        const size_t ncols = ps->config().column_names.size();
        std::map<uint64_t, std::vector<uint64_t>> by_target;
        for (size_t r = 0; r < rows.NumRows(); ++r) {
          if (rows.columns[0].ints[r] < bound)
            by_target[rows.columns[ncols].ints[r]].push_back(rows.columns[ncols + 1].ints[r]);
        }
        for (auto& [target, positions] : by_target) {
          EXPECT_TRUE(ps->AddDeletes(target, positions, txn.get()).ok());
        }
      }
    }
    auto e = cluster_->Commit(txn);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? e.value() : 0;
  }

  // Narrow projection of `sales` sorted and segmented by cust (Section 5.2's
  // late-created projection).
  ProjectionDef NarrowProjection() {
    ProjectionDef narrow;
    narrow.name = "sales_by_cust";
    narrow.anchor_table = "sales";
    narrow.columns = {{"cust", -1, EncodingId::kRle},
                      {"price", -1, EncodingId::kAuto},
                      {"sale_id", -1, EncodingId::kAuto}};
    narrow.sort_columns = {0};
    narrow.segmentation.expr = Func(FuncKind::kHash, {Col("cust")});
    return narrow;
  }

  // The `customers` dimension (cust 0..39 only; sales reference 0..49) and
  // the `sales_prejoin` projection that denormalizes its region.
  void CreateCustomersAndPrejoin() {
    TableDef dim;
    dim.name = "customers";
    dim.columns = {{"cust_id", TypeId::kInt64, false},
                   {"region", TypeId::kString, true}};
    ASSERT_TRUE(cluster_->CreateTableWithSuperProjection(std::move(dim)).ok());
    RowBlock dim_rows({TypeId::kInt64, TypeId::kString});
    for (int i = 0; i < 40; ++i) {
      dim_rows.columns[0].ints.push_back(i);
      dim_rows.columns[1].strings.push_back(i % 2 ? "east" : "west");
    }
    auto txn = cluster_->txns()->Begin();
    ASSERT_TRUE(cluster_->Load("customers", dim_rows, txn.get()).ok());
    ASSERT_TRUE(cluster_->Commit(txn).ok());

    ProjectionDef prejoin;
    prejoin.name = "sales_prejoin";
    prejoin.anchor_table = "sales";
    prejoin.columns = {{"sale_id", -1, EncodingId::kAuto},
                       {"cust", -1, EncodingId::kAuto},
                       {"price", -1, EncodingId::kAuto},
                       {"customers.region", -1, EncodingId::kRle}};
    prejoin.sort_columns = {1};
    prejoin.segmentation.expr = Func(FuncKind::kHash, {Col("sale_id")});
    prejoin.prejoins.push_back({"customers", {"cust"}, {"cust_id"}});
    ASSERT_TRUE(cluster_->CreateProjectionWithBuddies(prejoin).ok());
  }

  // Every copy of `sales_prejoin` holds `want_rows` rows across the nodes,
  // each with the region its cust maps to.
  void ExpectPrejoinRows(uint64_t want_rows) {
    Epoch now = cluster_->epochs()->LatestQueryableEpoch();
    for (const std::string proj : {"sales_prejoin", "sales_prejoin_b1"}) {
      SCOPED_TRACE(proj);
      uint64_t prejoin_rows = 0;
      for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
        auto* ps = cluster_->node(n)->GetStorage(proj);
        ASSERT_NE(ps, nullptr);
        auto read = ScanCopy(&fs_, ps, now, {kScanDeleteEpoch});
        ASSERT_TRUE(read.ok());
        const RowBlock& rows = read.value();
        prejoin_rows += rows.NumRows();
        for (size_t r = 0; r < rows.NumRows(); ++r) {
          int64_t cust = rows.columns[1].ints[r];
          EXPECT_EQ(rows.columns[3].strings[r], cust % 2 ? "east" : "west");
        }
      }
      EXPECT_EQ(prejoin_rows, want_rows);
    }
  }

  MemFileSystem fs_;
  Catalog catalog_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterFixture, SuperProjectionAndBuddyCreated) {
  auto names = catalog_.ProjectionNames();
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("sales_super"));
  EXPECT_TRUE(set.count("sales_super_b1"));  // K=1 buddy
  auto buddy = catalog_.GetProjection("sales_super_b1");
  ASSERT_TRUE(buddy.ok());
  EXPECT_EQ(buddy.value().buddy_of, "sales_super");
  EXPECT_EQ(buddy.value().segmentation.node_offset, 1u);
}

TEST_F(ClusterFixture, LoadSegmentsAcrossNodesAndBuddiesDisjoint) {
  LoadAndCommit(0, 1000);
  // Expected fingerprint: sum 0..999.
  int64_t expected = 999 * 1000 / 2;
  EXPECT_EQ(Fingerprint("sales_super"), expected);
  EXPECT_EQ(Fingerprint("sales_super_b1"), expected);

  // No row is stored on the same node by both the primary and its buddy.
  Epoch now = cluster_->epochs()->LatestQueryableEpoch();
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto prim_read =
        ScanCopy(&fs_, cluster_->node(n)->GetStorage("sales_super"), now, {kScanDeleteEpoch});
    ASSERT_TRUE(prim_read.ok());
    auto bud_read = ScanCopy(&fs_, cluster_->node(n)->GetStorage("sales_super_b1"), now,
                             {kScanDeleteEpoch});
    ASSERT_TRUE(bud_read.ok());
    const RowBlock& prim = prim_read.value();
    const RowBlock& bud = bud_read.value();
    std::set<int64_t> prim_ids(prim.columns[0].ints.begin(),
                               prim.columns[0].ints.end());
    for (int64_t id : bud.columns[0].ints) {
      EXPECT_FALSE(prim_ids.count(id)) << "row " << id << " co-located on node " << n;
    }
  }
}

TEST_F(ClusterFixture, RejectsNullInNonNullableColumn) {
  RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  rows.columns[0].Append(Value::Int64(1));
  rows.columns[0].Append(Value::Null(TypeId::kInt64));  // sale_id NOT NULL
  rows.columns[1].Append(Value::Int64(5));
  rows.columns[1].Append(Value::Int64(6));
  rows.columns[2].Append(Value::Float64(1.0));
  rows.columns[2].Append(Value::Float64(2.0));
  auto txn = cluster_->txns()->Begin();
  auto result = cluster_->Load("sales", rows, txn.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows_loaded, 1u);
  ASSERT_EQ(result.value().rejected.size(), 1u);
  EXPECT_EQ(result.value().rejected[0].row_index, 1u);
  ASSERT_TRUE(cluster_->Commit(txn).ok());
}

TEST_F(ClusterFixture, CommitFailureEjectsNodeButCommitSucceeds) {
  cluster_->node(2)->FailNextCommit();
  LoadAndCommit(0, 400);
  EXPECT_FALSE(cluster_->node(2)->up());
  EXPECT_EQ(cluster_->NumUpNodes(), 3u);
  // The ejected node lost its WOS slice, but every row survives in either
  // the primary or the buddy on an up node (K-safety).
  EXPECT_TRUE(cluster_->IsDataAvailable("sales"));
  Epoch now = cluster_->epochs()->LatestQueryableEpoch();
  std::set<int64_t> ids;
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    if (!cluster_->node(n)->up()) continue;
    for (const std::string proj : {"sales_super", "sales_super_b1"}) {
      auto read = ScanCopy(&fs_, cluster_->node(n)->GetStorage(proj), now, {kScanDeleteEpoch});
      ASSERT_TRUE(read.ok());
      for (int64_t id : read.value().columns[0].ints) ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), 400u) << "some rows lost despite K-safety";
  // After recovery the primary is whole again.
  ASSERT_TRUE(cluster_->RecoverNode(2).ok());
  EXPECT_EQ(Fingerprint("sales_super"), 399 * 400 / 2);
}

TEST_F(ClusterFixture, QuorumLossBlocksCommit) {
  ASSERT_TRUE(cluster_->MarkNodeDown(0).ok());
  EXPECT_TRUE(cluster_->HasQuorum());  // 3 of 4 >= N/2+1
  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());
  EXPECT_FALSE(cluster_->HasQuorum());  // 2 of 4: split-brain guard trips
  auto txn = cluster_->txns()->Begin();
  auto result = cluster_->Load("sales", MakeRows(0, 10), txn.get());
  EXPECT_EQ(result.status().code(), StatusCode::kClusterUnavailable);
}

TEST_F(ClusterFixture, KSafetyDataAvailability) {
  EXPECT_TRUE(cluster_->IsDataAvailable("sales"));
  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());
  EXPECT_TRUE(cluster_->IsDataAvailable("sales"));  // K=1 tolerates 1 down
  ASSERT_TRUE(cluster_->MarkNodeDown(2).ok());
  // Adjacent nodes down: slot stored primarily on node 1 has its buddy on
  // node 2 -> unavailable.
  EXPECT_FALSE(cluster_->IsDataAvailable("sales"));
}

TEST_F(ClusterFixture, RecoveryRestoresExactContent) {
  LoadAndCommit(0, 500);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());

  int64_t before = Fingerprint("sales_super");
  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());
  // DML while the node is down: it misses these rows.
  LoadAndCommit(500, 300);
  LoadAndCommit(800, 200);

  ASSERT_TRUE(cluster_->RecoverNode(1).ok());
  EXPECT_TRUE(cluster_->node(1)->up());
  int64_t expected = 999 * 1000 / 2;
  EXPECT_EQ(Fingerprint("sales_super"), expected);
  EXPECT_EQ(Fingerprint("sales_super_b1"), expected);
  EXPECT_GT(before, 0);
}

TEST_F(ClusterFixture, RecoveryReplaysMissedDeletes) {
  LoadAndCommit(0, 100);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ASSERT_TRUE(cluster_->MarkNodeDown(0).ok());

  // Delete sale_id 0..9 cluster-wide while node 0 is down.
  ASSERT_GT(DeleteIdsBelow(10), 0u);

  ASSERT_TRUE(cluster_->RecoverNode(0).ok());
  int64_t expected = 99 * 100 / 2 - 45;  // sum 0..99 minus deleted 0..9
  EXPECT_EQ(Fingerprint("sales_super"), expected);
  EXPECT_EQ(Fingerprint("sales_super_b1"), expected);
}

// A crash loses committed deletes not yet persisted, and a direct load after
// them advanced the LGE past them. The down copy must not serve those rows as
// live at the latest epoch (its scan fails over instead), and recovery must
// replay the lost deletes.
TEST_F(ClusterFixture, CrashLostDeletesNeverReappear) {
  auto direct_load = [&](int start, int count) {
    auto txn = cluster_->txns()->Begin();
    ASSERT_TRUE(cluster_->Load("sales", MakeRows(start, count), txn.get(), true).ok());
    ASSERT_TRUE(cluster_->Commit(txn).ok());
  };
  direct_load(0, 100);
  ASSERT_GT(DeleteIdsBelow(40), 0u);
  direct_load(100, 100);
  Epoch now = cluster_->epochs()->LatestQueryableEpoch();
  auto* ps = cluster_->node(1)->GetStorage("sales_super");
  ASSERT_EQ(ps->lge(), now);

  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());
  EXPECT_LT(ps->lge(), now);
  auto read = ScanCopy(&fs_, ps, now, {});
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsTransient()) << read.status().ToString();

  ASSERT_TRUE(cluster_->RecoverNode(1).ok());
  int64_t expected = 199 * 200 / 2 - 39 * 40 / 2;  // sum 0..199 minus deleted 0..39
  EXPECT_EQ(Fingerprint("sales_super"), expected);
  EXPECT_EQ(Fingerprint("sales_super_b1"), expected);
}

TEST_F(ClusterFixture, RefreshPopulatesLateProjection) {
  LoadAndCommit(0, 300);
  // Deletes committed before the refresh must survive it with their epochs.
  Epoch deleted_at = DeleteIdsBelow(10);
  ASSERT_GT(deleted_at, 1u);
  // Narrow projection created after the data was loaded (Section 5.2).
  ASSERT_TRUE(cluster_->CreateProjectionWithBuddies(NarrowProjection()).ok());
  EXPECT_EQ(Fingerprint("sales_by_cust"), 0);  // empty before refresh

  ASSERT_TRUE(cluster_->RefreshProjection("sales_by_cust").ok());
  ASSERT_TRUE(cluster_->RefreshProjection("sales_by_cust_b1").ok());
  int64_t expected = 299 * 300 / 2 - 45;  // sum 0..299 minus deleted 0..9
  EXPECT_EQ(Fingerprint("sales_by_cust"), expected);
  EXPECT_EQ(Fingerprint("sales_by_cust_b1"), expected);
  // Read before the delete committed, the deleted rows are still there.
  EXPECT_EQ(Fingerprint("sales_by_cust", deleted_at - 1), 299 * 300 / 2);
  EXPECT_EQ(Fingerprint("sales_by_cust_b1", deleted_at - 1), 299 * 300 / 2);
}

// Refresh reads each ring slot from any live copy: with node 1 down, its
// slot of the source comes from the buddy, and recovery fills node 1's
// copies of the refreshed projection afterwards.
TEST_F(ClusterFixture, RefreshSucceedsWithNodeDown) {
  LoadAndCommit(0, 300);
  ASSERT_TRUE(cluster_->CreateProjectionWithBuddies(NarrowProjection()).ok());
  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());

  Status refreshed = cluster_->RefreshProjection("sales_by_cust");
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  refreshed = cluster_->RefreshProjection("sales_by_cust_b1");
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();

  ASSERT_TRUE(cluster_->RecoverNode(1).ok());
  int64_t expected = 299 * 300 / 2;
  EXPECT_EQ(Fingerprint("sales_by_cust"), expected);
  EXPECT_EQ(Fingerprint("sales_by_cust_b1"), expected);
}

// Rebalance charges the interconnect once for every row that changes host:
// 64 B per row, counted from where each copy's rows sit before and after.
TEST_F(ClusterFixture, RebalanceChargesEachMovedRowOnce) {
  LoadAndCommit(0, 600);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  auto hosts = [&] {
    std::map<std::pair<std::string, int64_t>, uint32_t> where;
    Epoch now = cluster_->epochs()->LatestQueryableEpoch();
    for (const std::string proj : {"sales_super", "sales_super_b1"}) {
      for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
        auto read =
            ScanCopy(&fs_, cluster_->node(n)->GetStorage(proj), now, {kScanDeleteEpoch});
        EXPECT_TRUE(read.ok());
        if (!read.ok()) continue;
        for (int64_t id : read.value().columns[0].ints) where[{proj, id}] = n;
      }
    }
    return where;
  };
  auto before = hosts();
  ASSERT_EQ(before.size(), 1200u);
  uint64_t bytes_before = cluster_->network_bytes();

  ASSERT_TRUE(cluster_->AddNodeAndRebalance().ok());
  auto after = hosts();
  ASSERT_EQ(after.size(), 1200u);
  uint64_t moved = 0;
  for (const auto& [row, host] : before) moved += after.at(row) != host;
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(cluster_->network_bytes() - bytes_before, 64 * moved);
}

TEST_F(ClusterFixture, AddNodeRebalancePreservesContentAndPlacement) {
  LoadAndCommit(0, 600);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  int64_t expected = 599 * 600 / 2;
  ASSERT_EQ(Fingerprint("sales_super"), expected);

  ASSERT_TRUE(cluster_->AddNodeAndRebalance().ok());
  EXPECT_EQ(cluster_->num_nodes(), 5u);
  EXPECT_EQ(Fingerprint("sales_super"), expected);
  EXPECT_EQ(Fingerprint("sales_super_b1"), expected);

  // Placement matches the new ring.
  Epoch now = cluster_->epochs()->LatestQueryableEpoch();
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto* ps = cluster_->node(n)->GetStorage("sales_super");
    auto read = ScanCopy(&fs_, ps, now, {kScanDeleteEpoch});
    ASSERT_TRUE(read.ok());
    const RowBlock& rows = read.value();
    ColumnVector hashes;
    ASSERT_TRUE(EvalExpr(*ps->config().segmentation_expr, rows, &hashes).ok());
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      EXPECT_EQ(cluster_->ring().NodeFor(static_cast<uint64_t>(hashes.ints[r]), 0), n);
    }
  }
  // The new node actually received data.
  EXPECT_GT(cluster_->node(4)->GetStorage("sales_super")->TotalRosRows(), 0u);
}

TEST_F(ClusterFixture, BackupHardLinksSurviveMergeout) {
  LoadAndCommit(0, 200);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  auto files = cluster_->Backup("snap1");
  ASSERT_TRUE(files.ok());
  EXPECT_GT(files.value(), 0u);

  // Mergeout replaces and deletes original files; backup content persists.
  LoadAndCommit(200, 200);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  auto backup_files = fs_.List("backup/snap1/");
  ASSERT_TRUE(backup_files.ok());
  EXPECT_EQ(backup_files.value().size(), files.value() + 1);  // +1 catalog
  for (const auto& f : backup_files.value()) {
    EXPECT_TRUE(fs_.ReadFile(f).ok()) << f;
  }
}

TEST_F(ClusterFixture, AhmHeldWhileNodeDown) {
  LoadAndCommit(0, 100);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ASSERT_TRUE(cluster_->AdvanceAhm().ok());
  Epoch ahm1 = cluster_->epochs()->ahm();
  EXPECT_GT(ahm1, 0u);

  ASSERT_TRUE(cluster_->MarkNodeDown(3).ok());
  LoadAndCommit(100, 100);
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ASSERT_TRUE(cluster_->AdvanceAhm().ok());
  EXPECT_EQ(cluster_->epochs()->ahm(), ahm1) << "AHM advanced while a node was down";

  ASSERT_TRUE(cluster_->RecoverNode(3).ok());
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  ASSERT_TRUE(cluster_->AdvanceAhm().ok());
  EXPECT_GT(cluster_->epochs()->ahm(), ahm1);
}

TEST_F(ClusterFixture, PrejoinProjectionDenormalizesAndRejectsOrphans) {
  ASSERT_NO_FATAL_FAILURE(CreateCustomersAndPrejoin());
  auto txn2 = cluster_->txns()->Begin();
  auto result = cluster_->Load("sales", MakeRows(0, 100), txn2.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(cluster_->Commit(txn2).ok());
  // Rows with cust in 40..49 have no dimension match: rejected from the
  // prejoin projection (Section 7, rejected records).
  EXPECT_EQ(result.value().rejected.size(), 20u);  // 100 rows, cust = i%50

  // The prejoin projection stores the denormalized region column.
  ExpectPrejoinRows(80);
}

// The dimension read takes each ring slot from any live copy, so a prejoin
// load succeeds with a node down; recovery then fills that node's copies.
TEST_F(ClusterFixture, PrejoinLoadSucceedsWithNodeDown) {
  ASSERT_NO_FATAL_FAILURE(CreateCustomersAndPrejoin());
  ASSERT_TRUE(cluster_->MarkNodeDown(1).ok());
  auto txn = cluster_->txns()->Begin();
  auto result = cluster_->Load("sales", MakeRows(0, 100), txn.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(cluster_->Commit(txn).ok());
  EXPECT_EQ(result.value().rejected.size(), 20u);

  ASSERT_TRUE(cluster_->RecoverNode(1).ok());
  ExpectPrejoinRows(80);
}

// Only dimension rows live at the load's snapshot join: a deleted customer
// rejects its sales like a missing one.
TEST_F(ClusterFixture, PrejoinLoadRejectsDeletedDimensionRows) {
  ASSERT_NO_FATAL_FAILURE(CreateCustomersAndPrejoin());
  ASSERT_GT(DeleteIdsBelow(10, "customers"), 0u);
  auto txn = cluster_->txns()->Begin();
  auto result = cluster_->Load("sales", MakeRows(0, 100), txn.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(cluster_->Commit(txn).ok());
  EXPECT_EQ(result.value().rejected.size(), 40u);  // cust 0..9 and 40..49
  ExpectPrejoinRows(60);
}

// Refresh of a prejoin projection over rows loaded before it existed joins
// them exactly as a load would have.
TEST_F(ClusterFixture, PrejoinRefreshOverExistingRows) {
  LoadAndCommit(0, 100);
  ASSERT_NO_FATAL_FAILURE(CreateCustomersAndPrejoin());
  Status refreshed = cluster_->RefreshProjection("sales_prejoin");
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  refreshed = cluster_->RefreshProjection("sales_prejoin_b1");
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  ExpectPrejoinRows(80);
}

// A small WOS capacity: once a copy's WOS is saturated, loads into it go
// direct to ROS, so the WOS stays bounded and no answer changes.
class SmallWosClusterTest : public ClusterFixture {
 protected:
  static constexpr uint64_t kWosCapacity = 64;
  SmallWosClusterTest() : ClusterFixture(kWosCapacity) {}
};

TEST_F(SmallWosClusterTest, SaturatedWosSendsLoadsToRos) {
  // 25 loads of 40 rows, about 10 per copy each: every copy's WOS fills
  // within a few loads, and every load after that goes direct to ROS.
  constexpr int kLoads = 25, kRowsPerLoad = 40;
  for (int i = 0; i < kLoads; ++i) {
    LoadAndCommit(i * kRowsPerLoad, kRowsPerLoad);
    for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
      for (const char* proj : {"sales_super", "sales_super_b1"}) {
        EXPECT_LE(cluster_->node(n)->GetStorage(proj)->WosRowCount(),
                  kWosCapacity + kRowsPerLoad)
            << proj << " on node " << n << " after load " << i;
      }
    }
  }
  size_t containers = 0;
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    containers += cluster_->node(n)->GetStorage("sales_super")->NumContainers();
  }
  EXPECT_GT(containers, 0u);
  // Every row is visible exactly once, through WOS or ROS, on both copies
  // and with a predicate that prunes by the sort column.
  constexpr int64_t kRows = kLoads * kRowsPerLoad;
  EXPECT_EQ(Fingerprint("sales_super"), kRows * (kRows - 1) / 2);
  EXPECT_EQ(Fingerprint("sales_super_b1"), kRows * (kRows - 1) / 2);
  Epoch now = cluster_->epochs()->LatestQueryableEpoch();
  int64_t low = 0;
  for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto read = ScanCopy(&fs_, cluster_->node(n)->GetStorage("sales_super"), now, {},
                         Cmp(CompareOp::kLt, ColIdx(0, TypeId::kInt64),
                             Lit(Value::Int64(100))));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    low += static_cast<int64_t>(read.value().NumRows());
  }
  EXPECT_EQ(low, 100);
  // The tuple mover folds the rest of the WOS in; nothing changes.
  ASSERT_TRUE(cluster_->RunTupleMover().ok());
  EXPECT_EQ(Fingerprint("sales_super"), kRows * (kRows - 1) / 2);
}

// Loads with rejected rows through both the WOS and direct-to-ROS on 4 nodes
// with K=1 and 3 local segments per node. The rejects, each node's rows per
// local segment, and SELECT answers must match a plain-C++ oracle, before and
// after the tuple mover.
TEST(ClusterLoadTest, RejectsAndSegmentsMatchOracle) {
  DatabaseOptions opts;
  opts.num_nodes = 4;
  opts.k_safety = 1;
  opts.local_segments_per_node = 3;
  Database db(opts);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE m (id INT NOT NULL, grp VARCHAR NOT NULL, v FLOAT)").ok());

  struct OracleRow {
    int64_t id;
    std::string grp;
    bool v_null;
    double v;
  };
  std::vector<OracleRow> accepted;
  Rng rng(19);
  // Builds a batch; `rejects` receives the indexes of the rows the oracle
  // expects rejected, and `accepted` the rows it expects loaded.
  auto make_batch = [&](int64_t first_id, size_t n, std::vector<uint64_t>* rejects) {
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kFloat64});
    for (size_t i = 0; i < n; ++i) {
      int64_t id = first_id + static_cast<int64_t>(i);
      bool id_null = rng.Uniform(13) == 0;
      bool grp_null = rng.Uniform(17) == 0;
      bool v_null = rng.Uniform(5) == 0;
      std::string grp = "g" + std::to_string(rng.Uniform(6));
      double v = static_cast<double>(rng.Uniform(1000)) / 4;
      rows.columns[0].Append(id_null ? Value::Null(TypeId::kInt64) : Value::Int64(id));
      rows.columns[1].Append(grp_null ? Value::Null(TypeId::kString) : Value::String(grp));
      rows.columns[2].Append(v_null ? Value::Null(TypeId::kFloat64) : Value::Float64(v));
      if (id_null || grp_null) {
        rejects->push_back(i);
      } else {
        accepted.push_back({id, grp, v_null, v});
      }
    }
    return rows;
  };

  // Node and local segment of every accepted row, per projection: the
  // default super projection segments by HASH(id), i.e. HashCombine of the
  // HASH seed with HashInt64(id); the buddy is the same ring shifted by one.
  auto expect_placement = [&](bool check_containers) {
    Cluster* cluster = db.cluster();
    Epoch now = cluster->epochs()->LatestQueryableEpoch();
    SegmentationRing ring = cluster->ring();
    for (uint32_t offset : {0u, 1u}) {
      std::string proj = offset == 0 ? "m_super" : "m_super_b1";
      SCOPED_TRACE(proj);
      std::vector<std::multiset<int64_t>> want_ids(cluster->num_nodes());
      std::vector<std::map<uint32_t, uint64_t>> want_segs(cluster->num_nodes());
      for (const auto& r : accepted) {
        uint64_t h = HashCombine(0x9b97ULL, HashInt64(r.id));
        uint32_t node = ring.NodeFor(h, offset);
        want_ids[node].insert(r.id);
        ++want_segs[node][cluster->node(node)->GetStorage(proj)->LocalSegmentOf(h)];
      }
      for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
        SCOPED_TRACE(n);
        ProjectionStorage* ps = cluster->node(n)->GetStorage(proj);
        ASSERT_NE(ps, nullptr);
        auto read = ScanCopy(db.fs(), ps, now, {kScanDeleteEpoch});
        ASSERT_TRUE(read.ok());
        const RowBlock& rows = read.value();
        ASSERT_EQ(ps->config().column_names[0], "id");
        EXPECT_EQ(rows.NumRows(), want_ids[n].size());
        std::multiset<int64_t> got(rows.columns[0].ints.begin(),
                                   rows.columns[0].ints.end());
        EXPECT_EQ(got, want_ids[n]);
        if (!check_containers) continue;
        EXPECT_EQ(ps->WosRowCount(), 0u);
        std::map<uint32_t, uint64_t> got_segs;
        for (const auto& c : ps->Containers()) got_segs[c->local_segment] += c->row_count;
        EXPECT_EQ(got_segs, want_segs[n]);
        EXPECT_GT(got_segs.size(), 1u);  // several local segments were written
      }
    }
  };

  auto expect_answers = [&]() {
    int64_t count = 0, id_sum = 0, v_count = 0;
    double v_sum = 0;
    std::map<std::string, int64_t> per_grp;
    for (const auto& r : accepted) {
      ++count;
      id_sum += r.id;
      ++per_grp[r.grp];
      if (!r.v_null) {
        ++v_count;
        v_sum += r.v;
      }
    }
    auto agg = db.Execute("SELECT COUNT(*), SUM(id), COUNT(v), SUM(v) FROM m");
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    ASSERT_EQ(agg.value().NumRows(), 1u);
    EXPECT_EQ(agg.value().At(0, 0).i64(), count);
    EXPECT_EQ(agg.value().At(0, 1).i64(), id_sum);
    EXPECT_EQ(agg.value().At(0, 2).i64(), v_count);
    EXPECT_DOUBLE_EQ(agg.value().At(0, 3).f64(), v_sum);  // quarters sum exactly
    auto groups = db.Execute("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp");
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    ASSERT_EQ(groups.value().NumRows(), per_grp.size());
    size_t i = 0;
    for (const auto& [grp, n] : per_grp) {
      EXPECT_EQ(groups.value().At(i, 0).str(), grp);
      EXPECT_EQ(groups.value().At(i, 1).i64(), n);
      ++i;
    }
  };

  std::vector<uint64_t> want_wos_rejects, want_direct_rejects;
  RowBlock wos_rows = make_batch(0, 3000, &want_wos_rejects);
  RowBlock direct_rows = make_batch(3000, 5000, &want_direct_rejects);
  for (auto [rows, direct, want] :
       {std::make_tuple(&wos_rows, false, &want_wos_rejects),
        std::make_tuple(&direct_rows, true, &want_direct_rejects)}) {
    SCOPED_TRACE(direct ? "direct" : "wos");
    auto loaded = db.Load("m", *rows, direct);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_FALSE(want->empty());
    EXPECT_EQ(loaded.value().rows_loaded, rows->NumRows() - want->size());
    std::vector<uint64_t> got;
    for (const auto& rej : loaded.value().rejected) got.push_back(rej.row_index);
    std::sort(got.begin(), got.end());  // reported column by column
    EXPECT_EQ(got, *want);
  }
  expect_placement(/*check_containers=*/false);
  expect_answers();
  ASSERT_TRUE(db.RunTupleMover().ok());
  expect_placement(/*check_containers=*/true);
  expect_answers();
}

}  // namespace
}  // namespace stratica
