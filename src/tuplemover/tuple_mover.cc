#include "tuplemover/tuple_mover.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "exec/scan.h"

namespace stratica {

namespace {

// The mover reads every committed row and delete of its inputs, one whose
// commit epoch is not yet queryable included.
constexpr Epoch kAllCommitted = kUncommittedEpoch - 1;

// The mover's one read (DESIGN.md §7): a serial sorted history scan of
// `snap`, whose containers or WOS chunks are the operation's inputs. Rows
// come out in sort order, equal keys in snapshot order (WOS arrival, or
// merge order), as every projection column, then commit and delete epoch.
std::unique_ptr<ScanOperator> MoverScan(ProjectionStorage* ps, StorageSnapshot snap) {
  ScanSpec spec = ScanCopySpec(ps, {kScanCommitEpoch, kScanDeleteEpoch});
  spec.sorted_output = true;
  spec.sort_key_outputs = ps->config().sort_columns;
  snap.epoch = kAllCommitted;
  spec.snapshot = std::move(snap);
  return std::make_unique<ScanOperator>(std::move(spec));
}

}  // namespace

int TupleMover::Stratum(uint64_t bytes) const {
  // Stratum s covers (base * factor^(s-1), base * factor^s].
  if (bytes <= cfg_.strata_base_bytes) return 0;
  double ratio = static_cast<double>(bytes) / static_cast<double>(cfg_.strata_base_bytes);
  return static_cast<int>(
      std::ceil(std::log(ratio) / std::log(cfg_.strata_factor) - 1e-9));
}

Status TupleMover::ReadFailed(ProjectionStorage* ps, uint64_t gen, Status st) {
  // A host that went down fails the scan, and recovery may have removed the
  // inputs under it: either way the operation is stale, as an apply after
  // a generation change is. Any other error (a persistent one has
  // quarantined the copy) goes to the caller.
  if (ps->generation() == gen && ps->HostUp()) return st;
  ++stats_.stale_applies;
  return Status::OK();
}

Status TupleMover::Moveout(ProjectionStorage* ps) {
  // Sampled before any input is read: if recovery bumps it while we work,
  // the apply below is rejected and the output discarded.
  const uint64_t gen = ps->generation();
  const Epoch up_to = epochs_->LatestQueryableEpoch();
  // Input: the committed WOS chunks at or below up_to, and the WOS deletes.
  StorageSnapshot snap = ps->GetSnapshot(up_to);
  if (snap.wos.empty()) return Status::OK();

  // An uncommitted delete transaction may still be pointing at WOS
  // positions; moving them out from under it would corrupt its targets.
  // The paper serializes these cases with the T lock; we detect and defer.
  if (ps->DeletesPending(kWosTargetId)) return Status::OK();  // retry later

  MoveoutApply apply;
  apply.consumed_chunks = snap.wos;
  apply.new_lge = up_to;
  apply.base_generation = gen;
  apply.read_deletes = snap.deletes;
  snap.ros.clear();
  ExecContext ctx;
  ctx.fs = ps->fs();
  ctx.epoch = kAllCommitted;
  Result<RowBlock> read = DrainOperator(MoverScan(ps, std::move(snap)).get(), &ctx);
  if (!read.ok()) return ReadFailed(ps, gen, read.status());
  RowBlock sorted = std::move(read).value();

  // The two epoch columns give each row its epoch and, for a deleted row, a
  // delete at its new position; the writer keeps partitions and local
  // segments apart.
  const size_t ncols = ps->config().column_types.size();
  const std::vector<int64_t>& commit = sorted.columns[ncols].ints;
  const std::vector<int64_t>& del = sorted.columns[ncols + 1].ints;
  std::vector<Epoch> epochs(commit.begin(), commit.end());
  std::vector<Epoch> deletes(del.begin(), del.end());
  sorted.columns.resize(ncols);
  STRATICA_ASSIGN_OR_RETURN(apply.new_containers,
                            ps->WriteSorted(sorted, epochs, deletes, up_to));
  stats_.rows_moved_out += sorted.NumRows();

  Status st = ps->ApplyMoveout(apply);
  if (st.code() == StatusCode::kTxnAborted) {
    // The node crashed / was recovered, or a delete committed against the
    // WOS, while this moveout ran; the output must not be published.
    for (const auto& c : apply.new_containers) ps->DeleteContainerFiles(*c.container, {});
    ++stats_.stale_applies;
    return Status::OK();
  }
  if (st.ok()) ++stats_.moveouts;
  return st;
}

Result<bool> TupleMover::MergeoutOnce(ProjectionStorage* ps) {
  const uint64_t gen = ps->generation();
  // One snapshot supplies the candidates and their delete lists.
  StorageSnapshot snap = ps->GetSnapshot(kAllCommitted);
  // Candidate groups: committed containers keyed by (partition, segment,
  // stratum). Partition and local-segment boundaries are always preserved.
  std::map<std::tuple<int64_t, uint32_t, int>, std::vector<RosContainerPtr>> buckets;
  for (const auto& c : snap.ros) {
    buckets[{c->partition_key, c->local_segment, Stratum(c->total_bytes)}].push_back(c);
  }
  // Lowest stratum first: small files hurt the most (seeks, handles, merge
  // fan-in), and merging upward keeps rewrite counts logarithmic.
  const std::vector<RosContainerPtr>* best = nullptr;
  std::tuple<int64_t, uint32_t, int> best_key;
  for (const auto& [key, group] : buckets) {
    if (group.size() < cfg_.merge_fanin_min) continue;
    if (!best || std::get<2>(key) < std::get<2>(best_key)) {
      best = &group;
      best_key = key;
    }
  }
  if (!best) return false;

  std::vector<RosContainerPtr> inputs = *best;
  std::sort(inputs.begin(), inputs.end(),
            [](const RosContainerPtr& a, const RosContainerPtr& b) {
              return a->total_bytes < b->total_bytes;
            });
  if (inputs.size() > cfg_.merge_fanin_max) inputs.resize(cfg_.merge_fanin_max);
  // Respect the maximum container size.
  uint64_t total = 0;
  size_t take = 0;
  for (; take < inputs.size(); ++take) {
    if (total + inputs[take]->total_bytes > cfg_.max_ros_bytes) break;
    total += inputs[take]->total_bytes;
  }
  if (take < cfg_.merge_fanin_min) return false;
  inputs.resize(take);

  MergeoutApply apply;
  for (const auto& c : inputs) apply.removed_container_ids.push_back(c->id);
  apply.base_generation = gen;
  apply.read_deletes = snap.deletes;
  snap.ros = inputs;  // merge order: equal keys keep the smaller input's rows first
  snap.wos.clear();

  const auto& cfg = ps->config();
  const size_t ncols = cfg.column_types.size();
  const Epoch ahm = epochs_->ahm();
  auto [new_id, dir] = ps->AllocateContainer();
  RosWriter writer(ps->fs(), dir, new_id, cfg.projection, cfg.column_names,
                   cfg.column_types, cfg.encodings);

  // Stream the merged inputs block by block. Rows deleted at or before the
  // AHM are purged (no one can query history there) by masking them out of
  // the block in one Filter pass; the rest keep their commit epochs, and
  // their surviving deletes are re-targeted at output positions.
  ExecContext ctx;
  ctx.fs = ps->fs();
  ctx.epoch = kAllCommitted;
  std::unique_ptr<ScanOperator> scan = MoverScan(ps, std::move(snap));
  Status st = scan->Open(&ctx);
  DeleteList deletes;
  uint64_t out_pos = 0;
  RowBlock block;
  std::vector<Epoch> epochs;
  std::vector<uint8_t> keep;
  while (st.ok()) {
    st = scan->GetNext(&block);
    const size_t n = block.NumRows();
    if (!st.ok() || n == 0) break;
    const std::vector<int64_t>& commit = block.columns[ncols].ints;
    const std::vector<int64_t>& del = block.columns[ncols + 1].ints;
    keep.assign(n, 1);
    epochs.clear();
    for (size_t i = 0; i < n; ++i) {
      const Epoch d = static_cast<Epoch>(del[i]);
      if (d != 0 && d <= ahm) {
        keep[i] = 0;
        continue;
      }
      if (d != 0) deletes.push_back({out_pos, d});
      epochs.push_back(static_cast<Epoch>(commit[i]));
      ++out_pos;
    }
    stats_.rows_merged += n;
    stats_.rows_purged += n - epochs.size();
    block.columns.resize(ncols);
    if (epochs.size() < n) {
      for (auto& col : block.columns) col.Filter(keep);
    }
    if (!epochs.empty()) st = writer.Append(block, epochs);
  }
  Status closed = scan->Close();
  if (st.ok()) st = closed;
  if (!st.ok()) {
    STRATICA_RETURN_NOT_OK(ReadFailed(ps, gen, st));
    return false;
  }

  STRATICA_ASSIGN_OR_RETURN(
      RosContainerPtr merged,
      writer.Finish(inputs[0]->partition_key, inputs[0]->local_segment, 0));
  apply.new_container = std::const_pointer_cast<RosContainer>(merged);
  if (!deletes.empty()) apply.new_dvs.push_back(MakeDeleteChunk(new_id, std::move(deletes)));
  st = ps->ApplyMergeout(apply);
  if (st.code() == StatusCode::kTxnAborted) {
    // Recovery rewrote the storage, or a delete committed against an
    // input, under this mergeout; discard the output (its inputs may be
    // truncated and its files already scrubbed).
    ps->DeleteContainerFiles(*apply.new_container, {});
    ++stats_.stale_applies;
    return false;
  }
  STRATICA_RETURN_NOT_OK(st);
  ++stats_.mergeouts;
  return true;
}

Status TupleMover::MergeoutAll(ProjectionStorage* ps) {
  for (;;) {
    STRATICA_ASSIGN_OR_RETURN(bool merged, MergeoutOnce(ps));
    if (!merged) return Status::OK();
  }
}

Status TupleMover::MoveDeleteVectors(ProjectionStorage* ps) {
  const uint64_t gen = ps->generation();
  // DVWOS -> DVROS: persist the committed chunks not yet persisted, using
  // the same storage format as user data. WOS-target chunks stay in memory
  // until their rows move out.
  for (const auto& c : ps->Containers()) {
    for (const auto& d : ps->ContainerDeleteChunks(c->id)) {
      if (d->persisted || d->size() == 0) continue;
      // Recovery rewrote the storage: the chunk may no longer be in the
      // manifest and the target directory may be gone. Stop; the next pass
      // re-reads a consistent state.
      if (ps->generation() != gen) return Status::OK();
      std::string path = c->dir + "/dv" + std::to_string(reinterpret_cast<uintptr_t>(d.get()));
      STRATICA_RETURN_NOT_OK(WriteDvRos(ps->fs(), *d, path));
      // A crash, recovery or scrub since `gen` may have dropped the chunk
      // or scrubbed the file: the storage then removes it, and the next
      // pass starts over.
      if (!ps->MarkDeletesPersisted(d, path, gen)) return Status::OK();
      ++stats_.dv_chunks_persisted;
    }
  }
  return Status::OK();
}

}  // namespace stratica
