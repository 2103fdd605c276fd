// Tuple mover tests (DESIGN.md §8): moveout and mergeout are checked
// against oracles built from the data itself. Every inserted row carries a
// unique payload v = batch * 1000 + i, so the merged container can be
// checked row by row: sort order, which rows were purged at the AHM, each
// row's commit epoch, stability within equal keys, and which rows the
// re-targeted delete vectors point at.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/fault_fs.h"
#include "common/rng.h"
#include "exec/scan.h"
#include "storage/projection_storage.h"
#include "storage/sort_util.h"
#include "tuplemover/tuple_mover.h"
#include "txn/transaction.h"

namespace stratica {
namespace {

struct MoverWorld {
  MemFileSystem fs;
  EpochManager epochs;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;
  std::unique_ptr<ProjectionStorage> ps;
  std::unique_ptr<TupleMover> mover;

  // Filled by RunWorkload: each batch's commit epoch, and the v payloads of
  // the rows each delete round targeted.
  std::vector<Epoch> batch_epochs;
  std::set<int64_t> deleted_v[2];

  MoverWorld() {
    tm = std::make_unique<TransactionManager>(&epochs, &locks);
    TupleMoverConfig cfg;
    cfg.strata_base_bytes = 16 << 10;
    cfg.merge_fanin_min = 2;
    mover = std::make_unique<TupleMover>(&epochs, cfg);
    ProjectionStorageConfig pcfg;
    pcfg.projection = "p";
    pcfg.column_names = {"k", "s", "v"};
    pcfg.column_types = {TypeId::kInt64, TypeId::kString, TypeId::kInt64};
    pcfg.encodings = {EncodingId::kAuto, EncodingId::kAuto, EncodingId::kAuto};
    pcfg.sort_columns = {0, 1};  // int + string: fixed and variable key parts
    pcfg.num_local_segments = 1;
    ps = std::make_unique<ProjectionStorage>(&fs, "node0/p", pcfg);
  }

  /// Deterministic workload: batches of skewed keys (duplicates across and
  /// within batches), per-batch moveout, some committed deletes, partial
  /// AHM advance, then mergeout to quiescence.
  void RunWorkload() {
    Rng rng(77);
    for (int batch = 0; batch < 6; ++batch) {
      RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
      for (int i = 0; i < 500; ++i) {
        rows.columns[0].ints.push_back(rng.Range(0, 40));
        rows.columns[1].strings.push_back(rng.RandomString(rng.Uniform(5)));
        rows.columns[2].ints.push_back(batch * 1000 + i);
      }
      auto txn = tm->Begin();
      ASSERT_TRUE(ps->InsertWos(std::move(rows), txn.get()).ok());
      auto epoch = tm->Commit(txn);
      ASSERT_TRUE(epoch.ok());
      batch_epochs.push_back(epoch.value());
      ASSERT_TRUE(mover->Moveout(ps.get()).ok());
    }
    // Committed deletes on the first two containers: some will purge (AHM
    // passes their epoch), some must re-target to the merged container.
    auto containers = ps->Containers();
    ASSERT_GE(containers.size(), 2u);
    std::sort(containers.begin(), containers.end(),
              [](const RosContainerPtr& a, const RosContainerPtr& b) {
                return a->id < b->id;
              });
    for (int round = 0; round < 2; ++round) {
      RowBlock target;
      std::vector<Epoch> target_epochs;
      ASSERT_TRUE(
          ReadRosContainer(&fs, *containers[round], &target, &target_epochs).ok());
      auto txn = tm->Begin();
      std::vector<uint64_t> positions;
      for (uint64_t p = static_cast<uint64_t>(round); p < 60; p += 7) {
        positions.push_back(p);
        deleted_v[round].insert(target.columns[2].ints[p]);
      }
      ASSERT_TRUE(
          ps->AddDeletes(containers[round]->id, std::move(positions), txn.get()).ok());
      ASSERT_TRUE(tm->Commit(txn).ok());
    }
    // AHM between the two delete epochs: round 0's deletes purge at
    // mergeout, round 1's survive as re-targeted delete vectors.
    epochs.AdvanceAhm(epochs.LatestQueryableEpoch() - 1);
    ASSERT_TRUE(mover->MergeoutAll(ps.get()).ok());
  }
};

TEST(TupleMoverMergePathTest, MergeoutMatchesDataOracle) {
  MoverWorld world;
  ASSERT_NO_FATAL_FAILURE(world.RunWorkload());
  ASSERT_EQ(world.deleted_v[0].size(), 9u);
  ASSERT_EQ(world.deleted_v[1].size(), 9u);

  // Six containers merged into one; round 0's deletes were purged.
  EXPECT_EQ(world.mover->stats().rows_merged, 3000u);
  EXPECT_EQ(world.mover->stats().rows_purged, 9u);
  auto containers = world.ps->Containers();
  ASSERT_EQ(containers.size(), 1u);
  RowBlock rows;
  std::vector<Epoch> row_epochs;
  ASSERT_TRUE(ReadRosContainer(&world.fs, *containers[0], &rows, &row_epochs).ok());
  rows.DecodeAll();
  ASSERT_EQ(rows.NumRows(), 2991u);
  ASSERT_EQ(row_epochs.size(), rows.NumRows());

  EXPECT_TRUE(IsSorted(rows, {0, 1}));
  const std::vector<int64_t>& v = rows.columns[2].ints;
  std::set<int64_t> want_v;
  for (int64_t batch = 0; batch < 6; ++batch) {
    for (int64_t i = 0; i < 500; ++i) {
      if (world.deleted_v[0].count(batch * 1000 + i) == 0) {
        want_v.insert(batch * 1000 + i);
      }
    }
  }
  EXPECT_EQ(std::set<int64_t>(v.begin(), v.end()), want_v);
  // Within a run of equal (k, s), each batch's rows keep ascending v: both
  // the moveout sort and the mergeout merge are stable.
  std::map<int64_t, int64_t> last_v_of_batch;
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    const int64_t batch = v[r] / 1000;
    ASSERT_EQ(row_epochs[r], world.batch_epochs[batch]) << "row " << r;
    if (r > 0 && CompareRows(rows, r - 1, rows, r, {0, 1}, {0, 1}) != 0) {
      last_v_of_batch.clear();
    }
    auto it = last_v_of_batch.find(batch);
    if (it != last_v_of_batch.end()) ASSERT_LT(it->second, v[r]) << "row " << r;
    last_v_of_batch[batch] = v[r];
  }

  // Round 1's deletes survive, re-targeted at exactly those rows.
  std::multiset<int64_t> retargeted_v;
  for (const auto& d : world.ps->ContainerDeleteChunks(containers[0]->id)) {
    for (uint64_t pos : d->positions) {
      ASSERT_LT(pos, rows.NumRows());
      retargeted_v.insert(v[pos]);
    }
  }
  EXPECT_EQ(retargeted_v, std::multiset<int64_t>(world.deleted_v[1].begin(),
                                                 world.deleted_v[1].end()));
}

TEST(TupleMoverMergePathTest, MoveoutProducesSortedContainers) {
  MoverWorld world;
  Rng rng(5);
  // Several committed chunks in one moveout, every row with a unique
  // payload v = chunk * 1000 + i. Its global WOS position is chunk * 300 + i.
  std::vector<Epoch> chunk_epochs;
  for (int chunk = 0; chunk < 4; ++chunk) {
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < 300; ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, 25));
      rows.columns[1].strings.push_back(rng.RandomString(3));
      rows.columns[2].ints.push_back(chunk * 1000 + i);
    }
    auto txn = world.tm->Begin();
    ASSERT_TRUE(world.ps->InsertWos(std::move(rows), txn.get()).ok());
    auto epoch = world.tm->Commit(txn);
    ASSERT_TRUE(epoch.ok());
    chunk_epochs.push_back(epoch.value());
  }
  // Committed WOS deletes on known rows, spread over every chunk.
  std::set<int64_t> deleted_v;
  std::vector<uint64_t> positions;
  for (uint64_t p = 3; p < 1200; p += 41) {
    positions.push_back(p);
    deleted_v.insert(static_cast<int64_t>(p / 300 * 1000 + p % 300));
  }
  auto del = world.tm->Begin();
  ASSERT_TRUE(world.ps->AddDeletes(kWosTargetId, std::move(positions), del.get()).ok());
  auto del_epoch = world.tm->Commit(del);
  ASSERT_TRUE(del_epoch.ok());

  ASSERT_TRUE(world.mover->Moveout(world.ps.get()).ok());
  EXPECT_EQ(world.ps->WosRowCount(), 0u);
  size_t moved = 0;
  std::multiset<int64_t> moved_deleted_v;
  for (const auto& c : world.ps->Containers()) {
    RowBlock rows;
    std::vector<Epoch> epochs;
    ASSERT_TRUE(ReadRosContainer(&world.fs, *c, &rows, &epochs).ok());
    rows.DecodeAll();
    ASSERT_EQ(epochs.size(), rows.NumRows());
    EXPECT_TRUE(IsSorted(rows, {0, 1}));
    const std::vector<int64_t>& v = rows.columns[2].ints;
    for (size_t r = 0; r < rows.NumRows(); ++r) {
      ASSERT_EQ(epochs[r], chunk_epochs[v[r] / 1000]) << "row " << r;
      // Equal keys keep chunk order, then row order: ascending v.
      if (r > 0 && CompareRows(rows, r - 1, rows, r, {0, 1}, {0, 1}) == 0) {
        ASSERT_LT(v[r - 1], v[r]) << "row " << r;
      }
    }
    moved += rows.NumRows();
    // The moved delete chunks point exactly at the deleted rows.
    for (const auto& d : world.ps->ContainerDeleteChunks(c->id)) {
      for (size_t i = 0; i < d->size(); ++i) {
        ASSERT_LT(d->positions[i], rows.NumRows());
        EXPECT_EQ(d->epochs[i], del_epoch.value());
        moved_deleted_v.insert(v[d->positions[i]]);
      }
    }
  }
  EXPECT_EQ(moved, 1200u);
  EXPECT_EQ(moved_deleted_v, std::multiset<int64_t>(deleted_v.begin(), deleted_v.end()));
}

TEST(TupleMoverMergePathTest, HostDownMidPassEndsStale) {
  MoverWorld world;
  std::atomic<bool> up{true};
  world.ps->SetHostUpFlag(&up);
  for (int batch = 0; batch < 3; ++batch) {
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < 50; ++i) {
      rows.columns[0].ints.push_back(i % 7);
      rows.columns[1].strings.push_back("x");
      rows.columns[2].ints.push_back(batch * 1000 + i);
    }
    auto txn = world.tm->Begin();
    ASSERT_TRUE(world.ps->InsertWos(std::move(rows), txn.get()).ok());
    ASSERT_TRUE(world.tm->Commit(txn).ok());
    if (batch < 2) ASSERT_TRUE(world.mover->Moveout(world.ps.get()).ok());
  }
  // The host goes down after the mover sampled the storage: MarkNodeDown
  // clears the flag before its crash wipe, so the scans fail. Both
  // operations end stale, not in an error, and publish nothing.
  up = false;
  ASSERT_TRUE(world.mover->Moveout(world.ps.get()).ok());
  auto merged = world.mover->MergeoutOnce(world.ps.get());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged.value());
  EXPECT_EQ(world.mover->stats().stale_applies, 2u);
  EXPECT_EQ(world.mover->stats().moveouts, 2u);
  EXPECT_EQ(world.mover->stats().mergeouts, 0u);
  EXPECT_EQ(world.ps->NumContainers(), 2u);
  EXPECT_EQ(world.ps->WosRowCount(), 50u);
}

/// Forwards to `base`, and calls `on_read` once, before the first read of a
/// path under `trigger_dir`.
class TriggerFs : public FileSystem {
 public:
  explicit TriggerFs(FileSystem* base) : base_(base) {}

  std::string trigger_dir;
  mutable std::function<void()> on_read;

  Status WriteFile(const std::string& path, const std::string& data) override {
    return base_->WriteFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    Fire(path);
    return base_->ReadFile(path);
  }
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t length) const override {
    Fire(path);
    return base_->ReadRange(path, offset, length);
  }
  Status ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                       std::string* out) const override {
    Fire(path);
    return base_->ReadRangeInto(path, offset, length, out);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) const override { return base_->Exists(path); }
  Status Delete(const std::string& path) override { return base_->Delete(path); }
  Result<std::vector<std::string>> List(const std::string& prefix) const override {
    return base_->List(prefix);
  }
  Status HardLink(const std::string& source, const std::string& target) override {
    return base_->HardLink(source, target);
  }

 private:
  void Fire(const std::string& path) const {
    if (!on_read || path.compare(0, trigger_dir.size(), trigger_dir) != 0) return;
    auto fn = std::move(on_read);
    on_read = nullptr;
    fn();
  }

  FileSystem* base_;
};

TEST(TupleMoverMergePathTest, DeleteCommittedDuringMergeoutStaysDeleted) {
  MoverWorld world;
  TriggerFs fs(&world.fs);
  ProjectionStorage ps(&fs, "node0/q", world.ps->config());
  // Three containers of distinct sizes: the merge reads them smallest
  // first, so the first input is the first batch's, the last the third's.
  Rng rng(9);
  for (int batch = 0; batch < 3; ++batch) {
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < 100 * (batch + 1); ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, 40));
      rows.columns[1].strings.push_back(rng.RandomString(3));
      rows.columns[2].ints.push_back(batch * 1000 + i);
    }
    auto txn = world.tm->Begin();
    ASSERT_TRUE(ps.InsertWos(std::move(rows), txn.get()).ok());
    ASSERT_TRUE(world.tm->Commit(txn).ok());
    ASSERT_TRUE(world.mover->Moveout(&ps).ok());
  }
  auto containers = ps.Containers();
  ASSERT_EQ(containers.size(), 3u);
  const RosContainerPtr first = containers[0];
  ASSERT_LT(first->total_bytes, containers[1]->total_bytes);
  ASSERT_LT(containers[1]->total_bytes, containers[2]->total_bytes);
  RowBlock first_rows;
  ASSERT_TRUE(ReadRosContainer(&world.fs, *first, &first_rows, nullptr).ok());
  first_rows.DecodeAll();
  const int64_t doomed_v = first_rows.columns[2].ints[5];

  // A DELETE against the first input commits when the mergeout first reads
  // a file of its last input, long after it read the first input's deletes.
  // No T lock keeps it out, as a direct MergeoutOnce takes none.
  fs.trigger_dir = containers[2]->dir + "/";
  fs.on_read = [&] {
    auto txn = world.tm->Begin();
    ASSERT_TRUE(ps.AddDeletes(first->id, {5}, txn.get()).ok());
    ASSERT_TRUE(world.tm->Commit(txn).ok());
  };
  auto live_v = [&] {
    std::multiset<int64_t> v;
    auto read = ScanCopy(&fs, &ps, world.epochs.LatestQueryableEpoch(), {});
    EXPECT_TRUE(read.ok());
    if (read.ok()) v.insert(read.value().columns[2].ints.begin(), read.value().columns[2].ints.end());
    return v;
  };
  auto merged = world.mover->MergeoutOnce(&ps);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_FALSE(fs.on_read) << "the mergeout never read its last input";
  // Its output would lose the delete: the apply is stale, the inputs stay.
  EXPECT_FALSE(merged.value());
  EXPECT_EQ(world.mover->stats().stale_applies, 1u);
  std::multiset<int64_t> live = live_v();
  EXPECT_EQ(live.size(), 599u);
  EXPECT_EQ(live.count(doomed_v), 0u);

  // The next pass merges with the delete re-targeted at the output.
  ASSERT_TRUE(world.mover->MergeoutAll(&ps).ok());
  EXPECT_EQ(ps.NumContainers(), 1u);
  live = live_v();
  EXPECT_EQ(live.size(), 599u);
  EXPECT_EQ(live.count(doomed_v), 0u);
}

// One container of 200 rows in a storage whose DVROS writes each take
// 1 ms, so an interruption from another thread lands while a mover pass is
// part-way through persisting a round's delete chunks.
struct SlowDvWorld {
  MoverWorld world;
  FaultFs fs{&world.fs, /*seed=*/3};
  ProjectionStorage ps{&fs, "node0/q", world.ps->config()};
  uint64_t target = 0;

  SlowDvWorld() {
    FaultRule slow_dv_writes;
    slow_dv_writes.path_pattern = ".*/dv[0-9]+";
    slow_dv_writes.op_mask = kFaultWrite;
    slow_dv_writes.kind = FaultKind::kLatency;
    slow_dv_writes.latency_us = 1000;
    fs.AddRule(slow_dv_writes);
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < 200; ++i) {
      rows.columns[0].ints.push_back(i % 40);
      rows.columns[1].strings.push_back("x");
      rows.columns[2].ints.push_back(i);
    }
    auto load = world.tm->Begin();
    EXPECT_TRUE(ps.InsertWos(std::move(rows), load.get()).ok());
    EXPECT_TRUE(world.tm->Commit(load).ok());
    EXPECT_TRUE(world.mover->Moveout(&ps).ok());
    EXPECT_EQ(ps.NumContainers(), 1u);
    target = ps.Containers()[0]->id;
  }

  std::vector<std::string> DvFiles() const {
    std::vector<std::string> files = world.fs.List("node0/q/").value();
    files.erase(std::remove_if(files.begin(), files.end(),
                               [](const std::string& f) {
                                 return f.find("/dv") == std::string::npos;
                               }),
                files.end());
    return files;
  }

  /// Deletes rows first..first+count-1, one committed chunk each; returns
  /// their commit epochs.
  std::vector<Epoch> DeleteEach(uint64_t first, uint64_t count) {
    std::vector<Epoch> epochs;
    for (uint64_t i = first; i < first + count; ++i) {
      auto txn = world.tm->Begin();
      EXPECT_TRUE(ps.AddDeletes(target, {i}, txn.get()).ok());
      auto e = world.tm->Commit(txn);
      EXPECT_TRUE(e.ok());
      epochs.push_back(e.ok() ? e.value() : 0);
    }
    return epochs;
  }

  /// Runs a mover pass persisting delete chunks and calls `interrupt` once
  /// the pass has written a DVROS file; returns the pass's status.
  Status MoveWhile(const std::function<void()>& interrupt) {
    const size_t before = DvFiles().size();
    std::atomic<bool> done{false};
    Status moved;
    std::thread mover([&] {
      moved = world.mover->MoveDeleteVectors(&ps);
      done = true;
    });
    while (!done.load() && DvFiles().size() == before) std::this_thread::yield();
    interrupt();
    mover.join();
    return moved;
  }
};

// A mover pass persisting delete chunks races a crash that drops the
// unpersisted ones (MarkNodeDown runs CrashVolatileState on another
// thread). Each chunk ends persisted with its DVROS file, or dropped with
// no file left behind: every persisted chunk's file reads back, and a
// scrub finds nothing to remove. Under TSan this also checks that the two
// threads touch a chunk's persisted state only under the storage mutex.
TEST(TupleMoverMergePathTest, DeleteVectorMoveRacesCrash) {
  SlowDvWorld w;
  // 10 rounds of 20 one-row chunks delete each row once.
  for (uint64_t round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    w.DeleteEach(round * 20, 20);
    Status moved = w.MoveWhile([&] { w.ps.CrashVolatileState(); });
    ASSERT_TRUE(moved.ok()) << moved.ToString();
    EXPECT_TRUE(w.ps.Revalidate().ok());
    auto removed = w.ps.ScrubFiles();
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    EXPECT_EQ(removed.value(), 0u);
  }
}

// A mover pass persisting delete chunks races a recovery truncation to the
// middle of the round's deletes. Truncation never rewrites a chunk the pass
// may be reading; it swaps chunks out (under TSan a rewrite in place is a
// data race with the pass's DVROS write). Afterwards exactly the deletes at
// or below the truncation point survive, no DVROS file on disk holds a
// later one, and a scrub finds nothing to remove.
TEST(TupleMoverMergePathTest, DeleteVectorMoveRacesTruncation) {
  SlowDvWorld w;
  for (uint64_t round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Epoch trunc = w.DeleteEach(round * 20, 20)[9];
    Status moved = w.MoveWhile([&] { EXPECT_EQ(w.ps.TruncateForRecovery(trunc), trunc); });
    ASSERT_TRUE(moved.ok()) << moved.ToString();
    EXPECT_TRUE(w.ps.Revalidate().ok());
    auto removed = w.ps.ScrubFiles();
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    EXPECT_EQ(removed.value(), 0u);
    uint64_t kept = 0;
    for (const auto& d : w.ps.ContainerDeleteChunks(w.target)) {
      kept += d->size();
      for (Epoch e : d->epochs) EXPECT_LE(e, trunc);
    }
    EXPECT_EQ(kept, 10 * (round + 1));
    for (const auto& f : w.DvFiles()) {
      auto on_disk = ReadDvRos(&w.world.fs, f, w.target);
      ASSERT_TRUE(on_disk.ok()) << f << ": " << on_disk.status().ToString();
      for (Epoch e : on_disk.value()->epochs) EXPECT_LE(e, trunc) << f;
    }
  }
}

}  // namespace
}  // namespace stratica
