#include "tuplemover/tuple_mover.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "exec/merge.h"
#include "storage/sort_util.h"

namespace stratica {

namespace {

// Remove a discarded mover output's files (the apply was rejected because
// recovery mutated the storage mid-operation; some files may already have
// been scrubbed, so failures are ignored).
void DeleteDiscardedContainerFiles(FileSystem* fs, const RosContainer& c) {
  for (const auto& col : c.columns) {
    (void)fs->Delete(col.data_path);
    (void)fs->Delete(col.index_path);
  }
  if (!c.epoch_data_path.empty()) {
    (void)fs->Delete(c.epoch_data_path);
    (void)fs->Delete(c.epoch_index_path);
  }
  (void)fs->Delete(c.dir + "/meta");
}

}  // namespace

int TupleMover::Stratum(uint64_t bytes) const {
  // Stratum s covers (base * factor^(s-1), base * factor^s].
  if (bytes <= cfg_.strata_base_bytes) return 0;
  double ratio = static_cast<double>(bytes) / static_cast<double>(cfg_.strata_base_bytes);
  return static_cast<int>(
      std::ceil(std::log(ratio) / std::log(cfg_.strata_factor) - 1e-9));
}

Status TupleMover::Moveout(ProjectionStorage* ps) {
  // Sampled before any input is read: if recovery bumps it while we work,
  // the apply below is rejected and the output discarded.
  const uint64_t gen = ps->generation();
  Epoch up_to = epochs_->LatestQueryableEpoch();
  std::vector<WosChunkPtr> chunks = ps->CommittedWosChunks(up_to);
  if (chunks.empty()) return Status::OK();

  // An uncommitted delete transaction may still be pointing at WOS
  // positions; moving them out from under it would corrupt its targets.
  // The paper serializes these cases with the T lock; we detect and defer.
  if (ps->DeletesPending(kWosTargetId)) return Status::OK();  // retry later

  const auto& cfg = ps->config();
  std::vector<SortKey> sort_keys;
  for (uint32_t c : cfg.sort_columns) sort_keys.push_back({c, false});

  RowBlock sorted(std::vector<TypeId>(cfg.column_types));
  std::vector<uint64_t> sorted_pos;
  std::vector<Epoch> sorted_epochs;
  // Sort each chunk independently (normalized-key sort), then merge the
  // sorted chunks through the shared loser-tree kernel — the same
  // n·log(chunk) + k-way-merge shape the Sort operator uses for runs.
  // Chunk order = WOS arrival order, so the merger's low-index tie-break
  // reproduces the stable concatenate-then-sort result exactly.
  std::vector<std::unique_ptr<MergeInput>> inputs;
  std::vector<std::vector<uint64_t>> chunk_pos(chunks.size());
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const auto& chunk = chunks[ci];
    std::vector<uint32_t> perm =
        ComputeSortPermutationDirected(chunk->rows, sort_keys);
    chunk_pos[ci].reserve(perm.size());
    for (uint32_t r : perm) chunk_pos[ci].push_back(chunk->start_pos + r);
    inputs.push_back(
        std::make_unique<BlockMergeInput>(ApplyPermutation(chunk->rows, perm)));
  }
  LoserTreeMerger merger(std::move(inputs), sort_keys);
  STRATICA_RETURN_NOT_OK(merger.Init());
  std::vector<MergeSourceRef> prov;
  while (!merger.Done()) {
    prov.clear();
    STRATICA_RETURN_NOT_OK(merger.Next(&sorted, 1 << 16, &prov));
    for (const auto& ref : prov) {
      sorted_pos.push_back(chunk_pos[ref.input][ref.row]);
      sorted_epochs.push_back(chunks[ref.input]->epoch);
    }
  }

  // Split by (partition key, local segment) — moveout never mixes them.
  std::map<std::pair<int64_t, uint32_t>, std::vector<uint32_t>> groups;
  STRATICA_RETURN_NOT_OK(ps->SplitForStorage(sorted, &groups));

  MoveoutApply apply;
  apply.consumed_chunks = chunks;
  apply.new_lge = up_to;
  // Map from global WOS position to (container, new position) so delete
  // vectors can chase their rows.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> pos_map;

  for (const auto& [key, rows] : groups) {
    auto [id, dir] = ps->AllocateContainer();
    RosWriter writer(ps->fs(), dir, id, cfg.projection, cfg.column_names,
                     cfg.column_types, cfg.encodings);
    std::vector<Epoch> group_epochs;
    group_epochs.reserve(rows.size());
    for (uint32_t r : rows) {
      group_epochs.push_back(sorted_epochs[r]);
      pos_map[sorted_pos[r]] = {id, group_epochs.size() - 1};
    }
    STRATICA_RETURN_NOT_OK(writer.Append(ApplyPermutation(sorted, rows), group_epochs));
    STRATICA_ASSIGN_OR_RETURN(RosContainerPtr ros,
                              writer.Finish(key.first, key.second, up_to));
    apply.new_containers.push_back(std::const_pointer_cast<RosContainer>(ros));
    stats_.rows_moved_out += rows.size();
  }

  // Translate committed WOS deletes that point at moved rows, sorted by
  // their new positions.
  std::map<uint64_t, DeleteList> moved_deletes;
  if (DeleteListPtr wos_deletes = ps->Deletes(kWosTargetId)) {
    for (const DeleteEntry& e : *wos_deletes) {
      auto it = pos_map.find(e.position);
      if (it == pos_map.end()) continue;  // row still in WOS
      moved_deletes[it->second.first].push_back({it->second.second, e.epoch});
    }
  }
  for (auto& [cid, list] : moved_deletes)
    apply.new_dvs.push_back(MakeDeleteChunk(cid, std::move(list)));

  apply.base_generation = gen;
  Status st = ps->ApplyMoveout(apply);
  if (st.code() == StatusCode::kTxnAborted) {
    // The node crashed / was recovered while this moveout ran; the consumed
    // WOS chunks no longer exist and the output must not be published.
    for (const auto& c : apply.new_containers) {
      DeleteDiscardedContainerFiles(ps->fs(), *c);
    }
    ++stats_.stale_applies;
    return Status::OK();
  }
  if (st.ok()) ++stats_.moveouts;
  return st;
}

Result<bool> TupleMover::MergeoutOnce(ProjectionStorage* ps) {
  const uint64_t gen = ps->generation();
  std::vector<RosContainerPtr> containers = ps->Containers();
  // Candidate groups: committed containers keyed by (partition, segment,
  // stratum). Partition and local-segment boundaries are always preserved.
  std::map<std::tuple<int64_t, uint32_t, int>, std::vector<RosContainerPtr>> buckets;
  for (const auto& c : containers) {
    if (c->min_epoch == kUncommittedEpoch) continue;
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

  const auto& cfg = ps->config();
  Epoch ahm = epochs_->ahm();

  // Load sources (each already sorted by the projection sort order) along
  // with epochs and their delete lists.
  struct Source {
    RowBlock rows;
    std::vector<Epoch> epochs;
    DeleteListPtr deletes;  // may be null
  };
  std::vector<Source> sources(inputs.size());
  for (size_t s = 0; s < inputs.size(); ++s) {
    STRATICA_RETURN_NOT_OK(
        ReadRosContainer(ps->fs(), *inputs[s], &sources[s].rows, &sources[s].epochs));
    sources[s].deletes = ps->Deletes(inputs[s]->id);
  }

  auto [new_id, dir] = ps->AllocateContainer();
  RosWriter writer(ps->fs(), dir, new_id, cfg.projection, cfg.column_names,
                   cfg.column_types, cfg.encodings);

  auto new_dv = std::make_shared<DeleteVectorChunk>();
  new_dv->target_id = new_id;

  // K-way merge through the shared kernel (DESIGN.md §8); batched appends to
  // the writer. Provenance maps each merged row back to (source, position)
  // for its epoch and its deleted state, looked up in the source's delete
  // list (its earliest delete of a position wins). Rows deleted at or before the AHM are
  // purged (no one can query history there) by masking them out of the
  // batch in one Filter pass; surviving deletes are re-targeted at output
  // positions.
  auto delete_state = [&](size_t s, uint64_t pos, Epoch* del_epoch) {
    if (!sources[s].deletes) return false;
    const DeleteList& dels = *sources[s].deletes;
    auto it = std::lower_bound(dels.begin(), dels.end(), DeleteEntry{pos, 0});
    if (it == dels.end() || it->position != pos) return false;
    *del_epoch = it->epoch;
    return true;
  };
  std::vector<SortKey> sort_keys;
  for (uint32_t c : cfg.sort_columns) sort_keys.push_back({c, false});
  std::vector<std::unique_ptr<MergeInput>> merge_inputs;
  for (auto& src : sources) {
    merge_inputs.push_back(std::make_unique<BlockMergeInput>(std::move(src.rows)));
  }
  LoserTreeMerger merger(std::move(merge_inputs), sort_keys);
  STRATICA_RETURN_NOT_OK(merger.Init());
  constexpr size_t kBatch = 8192;
  uint64_t out_pos = 0;
  RowBlock out_batch;
  std::vector<Epoch> out_epochs;
  std::vector<MergeSourceRef> prov;
  std::vector<uint8_t> keep;
  while (!merger.Done()) {
    out_batch = RowBlock(std::vector<TypeId>(cfg.column_types));
    out_epochs.clear();
    prov.clear();
    STRATICA_RETURN_NOT_OK(merger.Next(&out_batch, kBatch, &prov));
    size_t n = out_batch.NumRows();
    if (n == 0) break;
    keep.assign(n, 1);
    bool purged_any = false;
    for (size_t i = 0; i < n; ++i) {
      size_t s = prov[i].input;
      uint64_t pos = prov[i].row;
      Epoch del_epoch = 0;
      bool deleted = delete_state(s, pos, &del_epoch);
      if (deleted && del_epoch <= ahm) {
        keep[i] = 0;
        purged_any = true;
        ++stats_.rows_purged;
      } else {
        out_epochs.push_back(sources[s].epochs[pos]);
        if (deleted) {
          new_dv->positions.push_back(out_pos);
          new_dv->epochs.push_back(del_epoch);
        }
        ++out_pos;
      }
      ++stats_.rows_merged;
    }
    if (purged_any) {
      for (auto& col : out_batch.columns) col.Filter(keep);
    }
    if (out_batch.NumRows() > 0) {
      STRATICA_RETURN_NOT_OK(writer.Append(out_batch, out_epochs));
    }
  }

  auto [pk, seg] = std::make_pair(inputs[0]->partition_key, inputs[0]->local_segment);
  STRATICA_ASSIGN_OR_RETURN(RosContainerPtr merged, writer.Finish(pk, seg, 0));

  MergeoutApply apply;
  for (const auto& c : inputs) apply.removed_container_ids.push_back(c->id);
  apply.new_container = std::const_pointer_cast<RosContainer>(merged);
  if (!new_dv->positions.empty()) apply.new_dvs.push_back(new_dv);
  apply.base_generation = gen;
  Status st = ps->ApplyMergeout(apply);
  if (st.code() == StatusCode::kTxnAborted) {
    // Recovery rewrote the storage under this mergeout; discard the output
    // (its inputs may be truncated and its files already scrubbed).
    DeleteDiscardedContainerFiles(ps->fs(), *apply.new_container);
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
  // DVWOS -> DVROS: persist committed, unpersisted chunks (the only kind
  // ContainerDeleteChunks returns) using the same
  // storage format as user data. WOS-target chunks stay in memory until
  // their rows move out.
  std::vector<RosContainerPtr> containers = ps->Containers();
  for (const auto& c : containers) {
    for (const auto& d : ps->ContainerDeleteChunks(c->id)) {
      if (d->persisted || d->size() == 0) continue;
      // Recovery rewrote the storage: the chunk may no longer be in the
      // manifest and the target directory may be gone. Stop; the next pass
      // re-reads a consistent state.
      if (ps->generation() != gen) return Status::OK();
      std::string path = c->dir + "/dv" + std::to_string(reinterpret_cast<uintptr_t>(d.get()));
      STRATICA_RETURN_NOT_OK(WriteDvRos(ps->fs(), *d, path));
      d->persisted = true;
      d->dv_path = path;
      ++stats_.dv_chunks_persisted;
    }
  }
  return Status::OK();
}

}  // namespace stratica
