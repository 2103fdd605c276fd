// WOS/ROS/delete-vector lifecycle and snapshot-visibility tests.
#include "storage/projection_storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/fault_fs.h"
#include "exec/scan.h"
#include "storage/sort_util.h"
#include "tuplemover/tuple_mover.h"

namespace stratica {
namespace {

// Positions of `target` deleted as of the snapshot, in list order.
std::vector<uint64_t> DeletedPositions(const StorageSnapshot& snap, uint64_t target) {
  std::vector<uint64_t> out;
  snap.ForEachDelete(target, 0, UINT64_MAX, [&](uint64_t p, Epoch) { out.push_back(p); });
  return out;
}

bool IsDeleted(const StorageSnapshot& snap, uint64_t target, uint64_t position) {
  bool hit = false;
  snap.ForEachDelete(target, position, position + 1, [&](uint64_t, Epoch) { hit = true; });
  return hit;
}

// Deletes visible in the snapshot over every target, own uncommitted ones
// included.
size_t TotalDeleted(const StorageSnapshot& snap) {
  std::set<uint64_t> targets;
  for (const auto& [target, list] : snap.deletes) targets.insert(target);
  for (const auto& d : snap.own_deletes) targets.insert(d->target_id);
  size_t n = 0;
  for (uint64_t t : targets) n += DeletedPositions(snap, t).size();
  return n;
}

class StorageFixture : public ::testing::Test {
 protected:
  StorageFixture()
      : tm_(&epochs_, &locks_),
        mover_(&epochs_),
        ps_(&fs_, "node0/p_sales", MakeConfig()) {}

  static ProjectionStorageConfig MakeConfig() {
    ProjectionStorageConfig cfg;
    cfg.projection = "p_sales";
    cfg.column_names = {"sale_id", "date", "price"};
    cfg.column_types = {TypeId::kInt64, TypeId::kDate, TypeId::kFloat64};
    cfg.encodings = {EncodingId::kAuto, EncodingId::kRle, EncodingId::kAuto};
    cfg.sort_columns = {1, 0};  // by date, then sale_id
    cfg.num_local_segments = 1;
    BindSchema schema;
    schema.Add("sale_id", TypeId::kInt64);
    schema.Add("date", TypeId::kDate);
    schema.Add("price", TypeId::kFloat64);
    cfg.segmentation_expr = Func(FuncKind::kHash, {Col("sale_id")});
    EXPECT_TRUE(BindExpr(cfg.segmentation_expr, schema).ok());
    return cfg;
  }

  RowBlock MakeRows(int start, int count) {
    RowBlock rows({TypeId::kInt64, TypeId::kDate, TypeId::kFloat64});
    for (int i = start; i < start + count; ++i) {
      rows.columns[0].ints.push_back(i);
      rows.columns[1].ints.push_back(MakeDate(2012, 1 + (i % 4), 1));
      rows.columns[2].doubles.push_back(i * 0.5);
    }
    return rows;
  }

  Epoch InsertAndCommit(RowBlock rows) {
    auto txn = tm_.Begin();
    EXPECT_TRUE(ps_.InsertWos(std::move(rows), txn.get()).ok());
    auto e = tm_.Commit(txn);
    EXPECT_TRUE(e.ok());
    return e.value();
  }

  MemFileSystem fs_;
  EpochManager epochs_;
  LockManager locks_;
  TransactionManager tm_;
  TupleMover mover_;
  ProjectionStorage ps_;
};

TEST_F(StorageFixture, UncommittedWosInvisibleToOthers) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.InsertWos(MakeRows(0, 10), txn.get()).ok());
  auto snap_other = ps_.GetSnapshot(epochs_.LatestQueryableEpoch());
  EXPECT_EQ(snap_other.TotalRows(), 0u);
  // Read-your-writes: same transaction sees its chunk.
  auto snap_self = ps_.GetSnapshot(txn->snapshot_epoch(), txn->id());
  EXPECT_EQ(snap_self.TotalRows(), 10u);
  tm_.Rollback(txn);
  EXPECT_EQ(ps_.WosRowCount(), 0u);
}

TEST_F(StorageFixture, CommitMakesWosVisibleAtNewEpoch) {
  Epoch e = InsertAndCommit(MakeRows(0, 25));
  auto before = ps_.GetSnapshot(e - 1);
  EXPECT_EQ(before.TotalRows(), 0u);
  auto after = ps_.GetSnapshot(e);
  EXPECT_EQ(after.TotalRows(), 25u);
}

TEST_F(StorageFixture, MoveoutSortsSplitsAndAdvancesLge) {
  InsertAndCommit(MakeRows(0, 100));
  Epoch last = InsertAndCommit(MakeRows(100, 100));
  EXPECT_EQ(ps_.WosRowCount(), 200u);
  EXPECT_EQ(ps_.lge(), 0u);

  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  EXPECT_EQ(ps_.WosRowCount(), 0u);
  EXPECT_EQ(ps_.lge(), last);
  EXPECT_GT(ps_.NumContainers(), 0u);
  EXPECT_EQ(ps_.TotalRosRows(), 200u);

  // Containers are sorted by the projection sort order.
  for (const auto& c : ps_.Containers()) {
    RowBlock rows;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
    EXPECT_TRUE(IsSorted(rows, {1, 0}));
  }

  // Snapshot total preserved.
  auto snap = ps_.GetSnapshot(last);
  EXPECT_EQ(snap.TotalRows(), 200u);
}

TEST_F(StorageFixture, DirectRosLoadBypassesWos) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.InsertDirectRos(MakeRows(0, 50), txn.get()).ok());
  EXPECT_EQ(ps_.WosRowCount(), 0u);
  // Invisible before commit...
  EXPECT_EQ(ps_.GetSnapshot(epochs_.LatestQueryableEpoch()).TotalRows(), 0u);
  auto e = tm_.Commit(txn);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(ps_.GetSnapshot(e.value()).TotalRows(), 50u);
  // LGE advanced directly (nothing pending in WOS).
  EXPECT_EQ(ps_.lge(), e.value());
}

TEST_F(StorageFixture, DirectRosRollbackDeletesFiles) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.InsertDirectRos(MakeRows(0, 50), txn.get()).ok());
  auto files = fs_.List("node0/p_sales");
  ASSERT_TRUE(files.ok());
  EXPECT_GT(files.value().size(), 0u);
  tm_.Rollback(txn);
  files = fs_.List("node0/p_sales");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), 0u);
  EXPECT_EQ(ps_.NumContainers(), 0u);
}

TEST_F(StorageFixture, FailedDirectLoadLeavesNoFiles) {
  // Writing the container's last column index fails: the load fails, and
  // the container's writer removes the files it wrote before the fault, so
  // a scrub afterwards finds nothing to remove.
  FaultFs faulty(&fs_, /*seed=*/1);
  FaultRule rule;
  rule.path_pattern = ".*/price\\.idx";
  rule.op_mask = kFaultWrite;
  rule.kind = FaultKind::kPersistentError;
  faulty.AddRule(rule);
  ProjectionStorage ps(&faulty, "node0/p_faulty", MakeConfig());
  auto txn = tm_.Begin();
  EXPECT_FALSE(ps.InsertDirectRos(MakeRows(0, 50), txn.get()).ok());
  tm_.Rollback(txn);
  EXPECT_GT(faulty.stats().persistent_errors.load(), 0u);
  faulty.ClearRules();
  EXPECT_EQ(fs_.List("node0/p_faulty/").value().size(), 0u);
  auto removed = ps.ScrubFiles();
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 0u);
  EXPECT_EQ(ps.NumContainers(), 0u);
}

TEST_F(StorageFixture, DeleteVectorHidesRowsAtSnapshot) {
  Epoch e_ins = InsertAndCommit(MakeRows(0, 10));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  auto containers = ps_.Containers();
  ASSERT_FALSE(containers.empty());

  // Delete positions 0 and 1 of the first container.
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(containers[0]->id, {0, 1}, txn.get()).ok());
  auto e_del = tm_.Commit(txn);
  ASSERT_TRUE(e_del.ok());

  auto before = ps_.GetSnapshot(e_ins);
  EXPECT_EQ(TotalDeleted(before), 0u);  // time travel: not yet deleted
  auto after = ps_.GetSnapshot(e_del.value());
  EXPECT_EQ(TotalDeleted(after), 2u);
  EXPECT_TRUE(IsDeleted(after, containers[0]->id, 0));
  EXPECT_FALSE(IsDeleted(after, containers[0]->id, 5));
}

TEST_F(StorageFixture, MoveoutTranslatesWosDeletes) {
  InsertAndCommit(MakeRows(0, 20));
  // Delete WOS positions 3 and 7 (rows with sale_id 3 and 7).
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(kWosTargetId, {3, 7}, txn.get()).ok());
  auto e_del = tm_.Commit(txn);
  ASSERT_TRUE(e_del.ok());

  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  auto snap = ps_.GetSnapshot(epochs_.LatestQueryableEpoch());
  // Two rows still deleted after translation to container targets.
  EXPECT_EQ(TotalDeleted(snap), 2u);
  // And the deleted rows are sale_id 3 and 7: check by reading back.
  uint64_t deleted_ids = 0;
  for (const auto& c : ps_.Containers()) {
    RowBlock rows;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
    for (uint64_t pos : DeletedPositions(snap, c->id)) {
      deleted_ids += rows.columns[0].ints[pos];
    }
  }
  EXPECT_EQ(deleted_ids, 10u);  // 3 + 7
}

TEST_F(StorageFixture, UncommittedDeletesVisibleOnlyToTheirTransaction) {
  InsertAndCommit(MakeRows(0, 10));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  uint64_t target = ps_.Containers()[0]->id;
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(target, {2, 4}, txn.get()).ok());
  Epoch now = epochs_.LatestQueryableEpoch();
  EXPECT_EQ(TotalDeleted(ps_.GetSnapshot(now)), 0u);
  auto own = ps_.GetSnapshot(now, txn->id());
  EXPECT_EQ(DeletedPositions(own, target), (std::vector<uint64_t>{2, 4}));
  // A scan inside the transaction skips the rows; one outside sees all ten.
  ExecContext ctx;
  ctx.fs = &fs_;
  ctx.epoch = now;
  ctx.txn_id = txn->id();
  ScanSpec spec;
  spec.storage = &ps_;
  spec.projection_columns = {0};
  spec.output_names = {"sale_id"};
  spec.output_types = {TypeId::kInt64};
  ScanOperator scan(spec);
  auto mine = DrainOperator(&scan, &ctx);
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine.value().NumRows(), 8u);
  auto others = ScanCopy(&fs_, &ps_, now, {});
  ASSERT_TRUE(others.ok());
  EXPECT_EQ(others.value().NumRows(), 10u);

  tm_.Rollback(txn);
  auto after = ps_.GetSnapshot(now, txn->id());
  EXPECT_TRUE(after.own_deletes.empty());
  EXPECT_EQ(after.deletes.count(target), 0u);
  EXPECT_FALSE(ps_.DeletesPending(target));
}

TEST_F(StorageFixture, SnapshotTakenBeforeCommitMissesTheDelete) {
  InsertAndCommit(MakeRows(0, 10));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  uint64_t target = ps_.Containers()[0]->id;
  Epoch before = epochs_.LatestQueryableEpoch();
  auto snap = ps_.GetSnapshot(before);
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(target, {0, 1, 2}, txn.get()).ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  // The old snapshot kept the list it shared; the new one sees the delete.
  EXPECT_EQ(TotalDeleted(snap), 0u);
  EXPECT_EQ(snap.deletes.count(target), 0u);
  EXPECT_EQ(TotalDeleted(ps_.GetSnapshot(epochs_.LatestQueryableEpoch())), 3u);
  // A scan at the old epoch still returns every row, a history scan shows
  // nothing deleted there.
  auto old_rows = ScanCopy(&fs_, &ps_, before, {kScanDeleteEpoch});
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows.value().NumRows(), 10u);
  for (int64_t d : old_rows.value().columns.back().ints) EXPECT_EQ(d, 0);
}

TEST_F(StorageFixture, DeleteChunkSpanningBlocksHidesExactlyItsPositions) {
  constexpr int kRows = 40000;  // three blocks of kDefaultRowsPerBlock
  auto load = tm_.Begin();
  ASSERT_TRUE(ps_.InsertDirectRos(MakeRows(0, kRows), load.get()).ok());
  ASSERT_TRUE(tm_.Commit(load).ok());
  ASSERT_EQ(ps_.Containers().size(), 1u);
  uint64_t target = ps_.Containers()[0]->id;
  const std::vector<uint64_t> doomed = {0, 1, 16383, 16384, 16385, 32767, 32768, 39999};
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(target, doomed, txn.get()).ok());
  auto e_del = tm_.Commit(txn);
  ASSERT_TRUE(e_del.ok());

  auto live = ScanCopy(&fs_, &ps_, e_del.value(), {kScanPosition});
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().NumRows(), kRows - doomed.size());
  std::set<int64_t> seen(live.value().columns.back().ints.begin(),
                         live.value().columns.back().ints.end());
  for (uint64_t p = 0; p < kRows; ++p) {
    bool is_doomed = std::find(doomed.begin(), doomed.end(), p) != doomed.end();
    EXPECT_EQ(seen.count(static_cast<int64_t>(p)), is_doomed ? 0u : 1u) << p;
  }
  // A history read keeps every row and stamps exactly the doomed ones.
  auto history = ScanCopy(&fs_, &ps_, e_del.value(), {kScanPosition, kScanDeleteEpoch});
  ASSERT_TRUE(history.ok());
  const RowBlock& h = history.value();
  ASSERT_EQ(h.NumRows(), static_cast<size_t>(kRows));
  std::vector<uint64_t> stamped;
  for (size_t r = 0; r < h.NumRows(); ++r) {
    if (h.columns[4].ints[r] != 0) {
      EXPECT_EQ(static_cast<Epoch>(h.columns[4].ints[r]), e_del.value());
      stamped.push_back(static_cast<uint64_t>(h.columns[3].ints[r]));
    }
  }
  std::sort(stamped.begin(), stamped.end());
  EXPECT_EQ(stamped, doomed);
}

TEST_F(StorageFixture, MergeoutCoalescesContainers) {
  for (int batch = 0; batch < 5; ++batch) {
    InsertAndCommit(MakeRows(batch * 40, 40));
    ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  }
  size_t before = ps_.NumContainers();
  EXPECT_GE(before, 5u);
  ASSERT_TRUE(mover_.MergeoutAll(&ps_).ok());
  size_t after = ps_.NumContainers();
  EXPECT_LT(after, before);
  EXPECT_EQ(ps_.TotalRosRows(), 200u);
  // Merged data still sorted and complete.
  auto snap = ps_.GetSnapshot(epochs_.LatestQueryableEpoch());
  EXPECT_EQ(snap.TotalRows(), 200u);
}

TEST_F(StorageFixture, MergeoutPurgesAhmHistoryAndRemapsDeletes) {
  InsertAndCommit(MakeRows(0, 30));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  InsertAndCommit(MakeRows(30, 30));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());

  // Delete rows in the first batch of containers.
  auto containers = ps_.Containers();
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(containers[0]->id, {0, 1, 2}, txn.get()).ok());
  auto e_del = tm_.Commit(txn);
  ASSERT_TRUE(e_del.ok());

  // Case 1: AHM before the delete -> rows survive the merge with their
  // delete markers remapped.
  ASSERT_TRUE(mover_.MergeoutAll(&ps_).ok());
  auto snap = ps_.GetSnapshot(epochs_.LatestQueryableEpoch());
  EXPECT_EQ(TotalDeleted(snap), 3u);
  EXPECT_EQ(ps_.TotalRosRows(), 60u);

  // Case 2: advance AHM past the delete; next merge purges the rows.
  epochs_.AdvanceAhm(e_del.value());
  InsertAndCommit(MakeRows(60, 30));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  ASSERT_TRUE(mover_.MergeoutAll(&ps_).ok());
  EXPECT_EQ(ps_.TotalRosRows(), 87u);  // 90 loaded - 3 purged
  snap = ps_.GetSnapshot(epochs_.LatestQueryableEpoch());
  EXPECT_EQ(TotalDeleted(snap), 0u);
  EXPECT_EQ(snap.TotalRows(), 87u);
}

TEST_F(StorageFixture, StrataAssignment) {
  TupleMoverConfig cfg;
  cfg.strata_base_bytes = 1000;
  cfg.strata_factor = 10.0;
  TupleMover mover(&epochs_, cfg);
  EXPECT_EQ(mover.Stratum(10), 0);
  EXPECT_EQ(mover.Stratum(1000), 0);
  EXPECT_EQ(mover.Stratum(1001), 1);
  EXPECT_EQ(mover.Stratum(10000), 1);
  EXPECT_EQ(mover.Stratum(100001), 3);
}

TEST_F(StorageFixture, DvRosRoundTrip) {
  DeleteVectorChunk chunk;
  chunk.target_id = 7;
  chunk.positions = {10, 11, 12, 50, 1000};
  chunk.epochs = {3, 3, 3, 4, 4};
  ASSERT_TRUE(WriteDvRos(&fs_, chunk, "dv_test").ok());
  auto rt = ReadDvRos(&fs_, "dv_test", 7);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value()->positions, chunk.positions);
  EXPECT_EQ(rt.value()->epochs, chunk.epochs);
  EXPECT_TRUE(rt.value()->persisted);
}

TEST_F(StorageFixture, CrashLosesWosKeepsRos) {
  InsertAndCommit(MakeRows(0, 50));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  InsertAndCommit(MakeRows(50, 25));  // stays in WOS
  EXPECT_EQ(ps_.GetSnapshot(epochs_.LatestQueryableEpoch()).TotalRows(), 75u);

  ps_.CrashVolatileState();
  // WOS rows lost; ROS rows survive. This is why the LGE exists.
  EXPECT_EQ(ps_.GetSnapshot(epochs_.LatestQueryableEpoch()).TotalRows(), 50u);
  EXPECT_EQ(ps_.WosRowCount(), 0u);
}

// Moveout advances the LGE past a committed delete not yet in DVROS. A crash
// loses that delete, so it backs the LGE off to just before it; a delete the
// tuple mover persisted survives the crash and leaves the LGE alone.
TEST_F(StorageFixture, CrashLowersLgeBelowLostDeletes) {
  InsertAndCommit(MakeRows(0, 50));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  uint64_t target = ps_.Containers().front()->id;
  auto txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(target, {1, 2}, txn.get()).ok());
  auto lost = tm_.Commit(txn);
  ASSERT_TRUE(lost.ok());
  InsertAndCommit(MakeRows(50, 10));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  ASSERT_GT(ps_.lge(), lost.value());

  ps_.CrashVolatileState();
  EXPECT_EQ(ps_.lge(), lost.value() - 1);
  EXPECT_EQ(TotalDeleted(ps_.GetSnapshot(epochs_.LatestQueryableEpoch())), 0u);

  txn = tm_.Begin();
  ASSERT_TRUE(ps_.AddDeletes(target, {3}, txn.get()).ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  ASSERT_TRUE(mover_.MoveDeleteVectors(&ps_).ok());
  Epoch kept = ps_.lge();
  ps_.CrashVolatileState();
  EXPECT_EQ(ps_.lge(), kept);
  EXPECT_EQ(TotalDeleted(ps_.GetSnapshot(epochs_.LatestQueryableEpoch())), 1u);
}

// A container's rows all carry per-row epochs or none do: a batch that
// switches is an error, not a backfill.
TEST_F(StorageFixture, RosWriterRejectsBatchesMixingEpochs) {
  const auto cfg = MakeConfig();
  RosWriter plain(&fs_, "node0/w1", 1, "p_sales", cfg.column_names, cfg.column_types,
                  cfg.encodings);
  ASSERT_TRUE(plain.Append(MakeRows(0, 10), {}).ok());
  EXPECT_EQ(plain.Append(MakeRows(10, 2), {5, 5}).code(), StatusCode::kInternal);
  RosWriter stamped(&fs_, "node0/w2", 2, "p_sales", cfg.column_names, cfg.column_types,
                    cfg.encodings);
  ASSERT_TRUE(stamped.Append(MakeRows(0, 2), {5, 5}).ok());
  EXPECT_EQ(stamped.Append(MakeRows(2, 10), {}).code(), StatusCode::kInternal);
}

// Removing a container removes its DVROS files: after a mergeout retires
// containers with persisted deletes, and after a truncation drops one and
// empties a surviving container's chunk, every file left under the
// projection directory belongs to the storage, so a scrub finds no orphan.
TEST_F(StorageFixture, RemovedContainersTakeTheirDvRosFiles) {
  auto delete_and_persist = [&](uint64_t target, std::vector<uint64_t> positions) {
    auto txn = tm_.Begin();
    EXPECT_TRUE(ps_.AddDeletes(target, std::move(positions), txn.get()).ok());
    EXPECT_TRUE(tm_.Commit(txn).ok());
    EXPECT_TRUE(mover_.MoveDeleteVectors(&ps_).ok());
  };
  auto count_dv_files = [&] {
    std::vector<std::string> files = fs_.List("node0/p_sales/").value();
    return std::count_if(files.begin(), files.end(), [](const std::string& f) {
      return f.find("/dv") != std::string::npos;
    });
  };

  InsertAndCommit(MakeRows(0, 40));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  InsertAndCommit(MakeRows(40, 40));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  std::vector<uint64_t> inputs;
  for (const auto& c : ps_.Containers()) inputs.push_back(c->id);
  ASSERT_EQ(inputs.size(), 2u);
  delete_and_persist(inputs[0], {1, 2});
  delete_and_persist(inputs[1], {3});
  ASSERT_EQ(count_dv_files(), 2u);
  ASSERT_TRUE(mover_.MergeoutAll(&ps_).ok());
  ps_.GcRetired();
  ASSERT_EQ(ps_.NumContainers(), 1u);
  EXPECT_EQ(count_dv_files(), 0u);
  EXPECT_EQ(ps_.ScrubFiles().value(), 0u);

  // `older`, the merged container, survives a truncation to its epoch, and
  // its chunks (the re-targeted deletes and a new one), deleted later,
  // empty; `newer` is dropped with its persisted chunk.
  Epoch merged_at = ps_.Containers()[0]->max_epoch;
  InsertAndCommit(MakeRows(80, 40));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  uint64_t older = ps_.Containers()[0]->id;
  uint64_t newer = ps_.Containers()[1]->id;
  delete_and_persist(older, {0});
  delete_and_persist(newer, {5});
  ASSERT_EQ(count_dv_files(), 3u);
  EXPECT_EQ(ps_.TruncateForRecovery(merged_at), merged_at);
  ASSERT_EQ(ps_.NumContainers(), 1u);
  EXPECT_EQ(ps_.Containers()[0]->id, older);
  EXPECT_EQ(count_dv_files(), 0u);
  EXPECT_EQ(ps_.ScrubFiles().value(), 0u);
}

// Truncation trims a persisted chunk without rewriting it: the entries at
// or below the truncation point move to a new chunk, the old DVROS file
// goes, and the next mover pass persists the new chunk. No DVROS file on
// disk holds a delete newer than the truncation point.
TEST_F(StorageFixture, TruncationLeavesNoDvRosEntryPastIt) {
  auto delete_rows = [&](uint64_t target, std::vector<uint64_t> positions) {
    auto txn = tm_.Begin();
    EXPECT_TRUE(ps_.AddDeletes(target, std::move(positions), txn.get()).ok());
    auto e = tm_.Commit(txn);
    EXPECT_TRUE(e.ok());
    return e.ok() ? e.value() : 0;
  };
  // The delete epochs the DVROS files on disk hold, sorted.
  auto epochs_on_disk = [&] {
    std::vector<Epoch> epochs;
    const std::vector<std::string> files = fs_.List("node0/p_sales/").value();
    for (const auto& f : files) {
      if (f.find("/dv") == std::string::npos) continue;
      auto chunk = ReadDvRos(&fs_, f, 0);
      EXPECT_TRUE(chunk.ok()) << f << ": " << chunk.status().ToString();
      if (chunk.ok()) epochs.insert(epochs.end(), chunk.value()->epochs.begin(),
                                    chunk.value()->epochs.end());
    }
    std::sort(epochs.begin(), epochs.end());
    return epochs;
  };

  // Mergeout re-targets two containers' deletes, committed at `kept` and
  // `trimmed`, onto one chunk of the merged container.
  InsertAndCommit(MakeRows(0, 40));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  InsertAndCommit(MakeRows(40, 40));
  ASSERT_TRUE(mover_.Moveout(&ps_).ok());
  std::vector<uint64_t> inputs;
  for (const auto& c : ps_.Containers()) inputs.push_back(c->id);
  ASSERT_EQ(inputs.size(), 2u);
  const Epoch kept = delete_rows(inputs[0], {1, 2});
  const Epoch trimmed = delete_rows(inputs[1], {3});
  ASSERT_TRUE(mover_.MergeoutAll(&ps_).ok());
  ps_.GcRetired();
  ASSERT_EQ(ps_.NumContainers(), 1u);
  const uint64_t merged = ps_.Containers()[0]->id;
  ASSERT_EQ(ps_.ContainerDeleteChunks(merged).size(), 1u);
  ASSERT_TRUE(mover_.MoveDeleteVectors(&ps_).ok());
  ASSERT_EQ(epochs_on_disk(), (std::vector<Epoch>{kept, kept, trimmed}));

  EXPECT_EQ(ps_.TruncateForRecovery(kept), kept);
  ASSERT_EQ(ps_.NumContainers(), 1u);
  EXPECT_EQ(epochs_on_disk(), std::vector<Epoch>{});
  EXPECT_EQ(ps_.ScrubFiles().value(), 0u);
  auto chunks = ps_.ContainerDeleteChunks(merged);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0]->epochs, (std::vector<Epoch>{kept, kept}));
  EXPECT_FALSE(chunks[0]->persisted);

  ASSERT_TRUE(mover_.MoveDeleteVectors(&ps_).ok());
  EXPECT_EQ(epochs_on_disk(), (std::vector<Epoch>{kept, kept}));
  EXPECT_TRUE(ps_.Revalidate().ok());
  EXPECT_EQ(ps_.ScrubFiles().value(), 0u);
}

class PartitionedStorageFixture : public StorageFixture {
 protected:
  PartitionedStorageFixture() : pps_(&fs_, "node0/p_part", MakePartitionedConfig()) {}

  static ProjectionStorageConfig MakePartitionedConfig() {
    ProjectionStorageConfig cfg = MakeConfig();
    cfg.projection = "p_part";
    BindSchema schema;
    schema.Add("sale_id", TypeId::kInt64);
    schema.Add("date", TypeId::kDate);
    schema.Add("price", TypeId::kFloat64);
    cfg.partition_expr = Func(FuncKind::kYearMonth, {Col("date")});
    EXPECT_TRUE(BindExpr(cfg.partition_expr, schema).ok());
    cfg.num_local_segments = 3;
    return cfg;
  }

  ProjectionStorage pps_;
};

TEST_F(PartitionedStorageFixture, MoveoutSplitsByPartitionAndLocalSegment) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(pps_.InsertWos(MakeRows(0, 400), txn.get()).ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  ASSERT_TRUE(mover_.Moveout(&pps_).ok());

  // 4 months x 3 local segments = up to 12 containers; each holds a single
  // partition key (Section 3.5 invariant).
  auto containers = pps_.Containers();
  EXPECT_GE(containers.size(), 4u);
  EXPECT_LE(containers.size(), 12u);
  for (const auto& c : containers) {
    RowBlock rows;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      int64_t ym = DateYear(rows.columns[1].ints[r]) * 100 +
                   DateMonth(rows.columns[1].ints[r]);
      EXPECT_EQ(ym, c->partition_key);
    }
  }
}

TEST_F(PartitionedStorageFixture, MergeoutPreservesPartitionBoundaries) {
  for (int b = 0; b < 4; ++b) {
    auto txn = tm_.Begin();
    ASSERT_TRUE(pps_.InsertWos(MakeRows(b * 100, 100), txn.get()).ok());
    ASSERT_TRUE(tm_.Commit(txn).ok());
    ASSERT_TRUE(mover_.Moveout(&pps_).ok());
  }
  ASSERT_TRUE(mover_.MergeoutAll(&pps_).ok());
  for (const auto& c : pps_.Containers()) {
    RowBlock rows;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &rows, nullptr).ok());
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      int64_t ym = DateYear(rows.columns[1].ints[r]) * 100 +
                   DateMonth(rows.columns[1].ints[r]);
      EXPECT_EQ(ym, c->partition_key) << "partition boundary violated by mergeout";
    }
  }
  EXPECT_EQ(pps_.TotalRosRows(), 400u);
}

TEST_F(PartitionedStorageFixture, DropPartitionIsFileLevelAndImmediate) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(pps_.InsertWos(MakeRows(0, 400), txn.get()).ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  ASSERT_TRUE(mover_.Moveout(&pps_).ok());
  // A committed delete on a February container, persisted to DVROS: the
  // drop must take its file along with the container's.
  uint64_t february = 0;
  for (const auto& c : pps_.Containers()) {
    if (c->partition_key == 201202) february = c->id;
  }
  ASSERT_NE(february, 0u);
  txn = tm_.Begin();
  ASSERT_TRUE(pps_.AddDeletes(february, {0}, txn.get()).ok());
  ASSERT_TRUE(tm_.Commit(txn).ok());
  ASSERT_TRUE(mover_.MoveDeleteVectors(&pps_).ok());

  uint64_t before_rows = pps_.TotalRosRows();
  uint64_t before_files = fs_.List("node0/p_part").value().size();
  auto dropped = pps_.DropPartition(201202);  // drop February 2012
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(dropped.value(), 0u);
  EXPECT_EQ(pps_.TotalRosRows(), before_rows - dropped.value());
  EXPECT_LT(fs_.List("node0/p_part").value().size(), before_files);
  // Remaining data has no February rows.
  for (const auto& c : pps_.Containers()) {
    EXPECT_NE(c->partition_key, 201202);
  }
  // Every file left belongs to a live container: a scrub finds no orphan.
  EXPECT_EQ(pps_.ScrubFiles().value(), 0u);
}

// Recovery's ingest: unsorted rows with per-row commit and delete epochs
// come out as one sorted container per (partition, local segment), each
// row keeping its commit epoch and, at its new position, its delete epoch.
TEST_F(PartitionedStorageFixture, IngestRecoveredSplitsSortsAndKeepsEpochs) {
  RowBlock rows({TypeId::kInt64, TypeId::kDate, TypeId::kFloat64});
  std::vector<Epoch> epochs, deletes;
  std::map<int64_t, std::pair<Epoch, Epoch>> want;  // sale_id -> (epoch, delete)
  for (int i = 0; i < 400; ++i) {
    int64_t id = (i * 7919) % 400;  // a permutation of 0..399: unsorted
    rows.columns[0].ints.push_back(id);
    rows.columns[1].ints.push_back(MakeDate(2012, 1 + id % 4, 1 + id % 28));
    rows.columns[2].doubles.push_back(id * 0.5);
    epochs.push_back(3 + 2 * (id % 3));       // 3, 5 or 7
    deletes.push_back(id % 20 == 0 ? 8 : 0);  // 20 deleted rows
    want[id] = {epochs.back(), deletes.back()};
  }
  ASSERT_FALSE(IsSorted(rows, {1, 0}));
  ASSERT_TRUE(pps_.IngestRecovered(std::move(rows), epochs, deletes, 9).ok());
  EXPECT_EQ(pps_.lge(), 9u);

  StorageSnapshot snap = pps_.GetSnapshot(9);
  std::set<std::pair<int64_t, uint32_t>> groups;
  size_t seen = 0, deleted = 0;
  for (const auto& c : pps_.Containers()) {
    EXPECT_TRUE(groups.insert({c->partition_key, c->local_segment}).second);
    RowBlock got;
    std::vector<Epoch> got_epochs;
    ASSERT_TRUE(ReadRosContainer(&fs_, *c, &got, &got_epochs).ok());
    EXPECT_TRUE(IsSorted(got, {1, 0}));
    ColumnVector hashes;
    ASSERT_TRUE(EvalExpr(*pps_.config().segmentation_expr, got, &hashes).ok());
    std::map<uint64_t, Epoch> dels;
    snap.ForEachDelete(c->id, 0, UINT64_MAX, [&](uint64_t p, Epoch e) { dels[p] = e; });
    for (size_t r = 0; r < got.NumRows(); ++r) {
      const int64_t date = got.columns[1].ints[r];
      EXPECT_EQ(DateYear(date) * 100 + DateMonth(date), c->partition_key);
      EXPECT_EQ(pps_.LocalSegmentOf(static_cast<uint64_t>(hashes.ints[r])),
                c->local_segment);
      const auto& [epoch, del] = want.at(got.columns[0].ints[r]);
      EXPECT_EQ(got_epochs[r], epoch);
      auto d = dels.find(r);
      EXPECT_EQ(d == dels.end() ? 0 : d->second, del);
      ++seen;
    }
    deleted += dels.size();
  }
  EXPECT_EQ(seen, 400u);
  EXPECT_EQ(deleted, 20u);
  EXPECT_GT(groups.size(), 4u);
}

}  // namespace
}  // namespace stratica
