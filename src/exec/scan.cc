#include "exec/scan.h"

#include <algorithm>

#include "common/hash.h"
#include "storage/sort_util.h"

namespace stratica {

namespace {

/// Can a block/container with [min, max] contain rows satisfying
/// `col <op> value`? NULL stats (all-null or empty) conservatively pass.
bool RangeMayMatch(const Value& min, const Value& max, CompareOp op, const Value& v) {
  if (min.is_null() || max.is_null()) return true;
  switch (op) {
    case CompareOp::kEq: return !(v.Compare(min) < 0 || v.Compare(max) > 0);
    case CompareOp::kNe: return true;
    case CompareOp::kLt: return min.Compare(v) < 0;
    case CompareOp::kLe: return min.Compare(v) <= 0;
    case CompareOp::kGt: return max.Compare(v) > 0;
    case CompareOp::kGe: return max.Compare(v) >= 0;
  }
  return true;
}

/// Rebind a cloned predicate's column references from scan-output space into
/// filter-view space (every referenced column is in the view by
/// construction).
void RemapColumnRefs(Expr* e, const std::vector<int>& pos) {
  if (e->kind == ExprKind::kColumnRef && e->column_index >= 0 &&
      e->column_index < static_cast<int>(pos.size())) {
    e->column_index = pos[e->column_index];
  }
  for (auto& c : e->children) RemapColumnRefs(c.get(), pos);
}

/// The block-level prune rule: a block whose non-NULL values all lie
/// outside `bound` cannot match. An all-NULL block has no min/max and is
/// kept (NULL stats never prune).
bool BlockPruned(const BlockMeta& bm, const PruneBound& bound) {
  return bm.row_count > bm.null_count && !RangeMayMatch(bm.min, bm.max, bound.op, bound.value);
}

/// Carve a snapshot's containers into block-range regions for `k` workers,
/// keeping only blocks the scan's prune bounds may match (DESIGN.md §6).
/// Bounds are read from the block min/max every in-memory container carries,
/// so no pruned block range ever costs a reader open. A container whose
/// column min/max excludes a bound yields nothing and counts as
/// container-pruned; otherwise its kept blocks are split into up to `k`
/// contiguous ranges (never fewer than one kept block per range; pruned
/// blocks between two kept ones stay inside the range, where AdvanceRos
/// prunes and counts them), and every block left outside all ranges counts
/// as pruned here. A container without block metadata is one whole region.
/// Ranges are dealt round-robin into `k` lists that are concatenated, so
/// consecutive claims spread across containers and one large container
/// still spreads across all workers (Section 3.5: runtime division into
/// logical regions, no physical sub-partitioning). At k = 1 each container
/// with a kept block is one region, in snapshot order.
std::vector<ScanRegion> PlanScanRegions(const StorageSnapshot& snap, const ScanSpec& spec,
                                        size_t k, ExecStats* stats) {
  if (k == 0) k = 1;
  std::vector<ScanRegion> all;
  std::vector<size_t> kept;
  uint64_t blocks_pruned = 0, containers_pruned = 0;
  for (const auto& c : snap.ros) {
    // The bounds that address a stored column of this container.
    std::vector<std::pair<const ColumnFileMeta*, const PruneBound*>> bounds;
    bool container_pruned = false;
    for (const auto& bound : spec.prune_bounds) {
      int proj_col = spec.projection_columns[bound.output_column];
      if (proj_col < 0 || proj_col >= static_cast<int>(c->columns.size())) continue;
      const ColumnFileMeta& meta = c->columns[proj_col].meta;
      // Container-level pruning (includes partition pruning: partition-
      // separated containers have tight bounds).
      container_pruned |=
          meta.num_rows > 0 && !RangeMayMatch(meta.min, meta.max, bound.op, bound.value);
      bounds.push_back({&meta, &bound});
    }
    if (container_pruned) {
      ++containers_pruned;
      continue;
    }
    size_t num_blocks = c->columns.empty() ? 0 : c->columns[0].meta.blocks.size();
    if (num_blocks == 0) {
      all.push_back({c, 0, SIZE_MAX});
      continue;
    }
    kept.clear();
    for (size_t b = 0; b < num_blocks; ++b) {
      bool pruned = false;
      for (const auto& [meta, bound] : bounds) pruned |= BlockPruned(meta->blocks[b], *bound);
      if (!pruned) kept.push_back(b);
    }
    size_t pieces = std::min(k, kept.size());
    size_t carved = 0;
    for (size_t p = 0, lo = 0; p < pieces; ++p) {
      size_t take = kept.size() / pieces + (p < kept.size() % pieces ? 1 : 0);
      size_t block_lo = kept[lo], block_hi = kept[lo + take - 1] + 1;
      all.push_back({c, block_lo, block_hi});
      carved += block_hi - block_lo;
      lo += take;
    }
    blocks_pruned += num_blocks - carved;
  }
  if (stats != nullptr) {
    stats->blocks_pruned.fetch_add(blocks_pruned);
    stats->containers_pruned.fetch_add(containers_pruned);
  }
  std::vector<ScanRegion> order;
  order.reserve(all.size());
  for (size_t w = 0; w < k; ++w) {
    for (size_t i = w; i < all.size(); i += k) order.push_back(all[i]);
  }
  return order;
}

}  // namespace

/// One stream of filtered blocks: a container region or the WOS.
struct ScanOperator::Source {
  // Container source state.
  RosContainerPtr container;
  std::vector<ColumnReader> readers;           // one per stored output column
  std::unique_ptr<ColumnReader> epoch_reader;  // epoch filter or commit-epoch output
  size_t next_block = 0;
  size_t block_hi = 0;

  // WOS source: fully materialized (and possibly sorted) rows.
  bool is_wos = false;
  RowBlock wos_rows;
  size_t wos_cursor = 0;

  // Current filtered block (merge mode keeps a cursor into it).
  RowBlock current;
  size_t cursor = 0;
  bool exhausted = false;
};

/// Feeds one Source's filtered blocks into the loser-tree merge. Blocks
/// are handed over whole; the merger owns cursor state and key building.
struct ScanOperator::SourceMergeInput : public MergeInput {
  SourceMergeInput(ScanOperator* scan, Source* src) : scan(scan), src(src) {}
  Status NextBlock(RowBlock* out) override {
    STRATICA_RETURN_NOT_OK(scan->Advance(src));
    if (src->exhausted) {
      *out = RowBlock();
      return Status::OK();
    }
    *out = std::move(src->current);
    src->current = RowBlock();
    return Status::OK();
  }
  ScanOperator* scan;
  Source* src;
};

ScanOperator::ScanOperator(ScanSpec spec) : spec_(std::move(spec)) {
  for (int c : spec_.projection_columns) {
    num_stored_ += c >= 0;
    wants_commit_epochs_ |= c == kScanCommitEpoch;
    history_ |= c == kScanDeleteEpoch;
  }
}
ScanOperator::~ScanOperator() = default;

const StorageSnapshot& MorselDispenser::EnsureSnapshot(const ScanSpec& spec, Epoch epoch,
                                                       uint64_t txn_id, ExecStats* stats) {
  std::lock_guard lock(mu_);
  if (!snapped_) {
    snap_ = spec.storage->GetSnapshot(epoch, txn_id);
    morsels_ = PlanScanRegions(snap_, spec, fanout_ * kMorselsPerWorker, stats);
    snapped_ = true;
  }
  return snap_;
}

bool MorselDispenser::Next(ScanRegion* out) {
  size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= morsels_.size()) return false;
  *out = morsels_[i];
  return true;
}

Status ScanOperator::NoteRosFailure(const Source* src, Status st) {
  if (st.ok()) return st;
  // Corruption is terminal by definition; an IoError reaching the scan has
  // already exhausted the reader's retry budget, so it counts as persistent
  // too — either way this copy is unhealthy.
  bool persistent = st.code() == StatusCode::kCorruption ||
                    st.code() == StatusCode::kIoError;
  if (persistent && spec_.storage != nullptr && src != nullptr && src->container) {
    spec_.storage->Quarantine(src->container->id, st.message());
  }
  return st;
}

Status ScanOperator::OpenContainerSource(const ScanRegion& region) {
  const RosContainer& c = *region.container;
  auto src = std::make_unique<Source>();
  src->container = region.container;
  for (size_t i = 0; i < num_stored_; ++i) {
    // Every reader open is a (possibly slow) file op; bail between them once
    // the exchange stopped caring about this pipeline.
    if (Abandoned()) return Status::OK();
    auto reader = OpenRosColumn(ctx_->fs, c, spec_.projection_columns[i]);
    if (!reader.ok()) return NoteRosFailure(src.get(), reader.status());
    src->readers.push_back(std::move(reader).value());
  }
  if (Abandoned()) return Status::OK();
  if (!c.epoch_data_path.empty() && (c.max_epoch > ctx_->epoch || wants_commit_epochs_)) {
    auto er = ColumnReader::Open(ctx_->fs, c.epoch_data_path, c.epoch_index_path);
    if (!er.ok()) return NoteRosFailure(src.get(), er.status());
    src->epoch_reader = std::make_unique<ColumnReader>(std::move(er).value());
  }
  src->next_block = region.block_lo;
  src->block_hi = std::min(region.block_hi, src->readers.empty()
                                                ? size_t{0}
                                                : src->readers[0].num_blocks());
  sources_.push_back(std::move(src));
  return Status::OK();
}

Status ScanOperator::OpenWosSource() {
  if (snap_.wos.empty()) return Status::OK();
  auto src = std::make_unique<Source>();
  src->is_wos = true;
  RowBlock rows(spec_.output_types);
  // Gather visible WOS rows (restricted to the scanned columns): a chunk's
  // deletes come from one range of the sorted WOS delete list, and rows
  // they hide are skipped unless this is a history read.
  std::vector<uint32_t> keep;
  for (const auto& chunk : snap_.wos) {
    size_t nrows = chunk->NumRows();
    uint64_t start = chunk->start_pos;
    bool any = LoadDeletes(kWosTargetId, start, nrows);
    keep.clear();
    for (size_t r = 0; r < nrows; ++r) {
      if (history_ || !any || del_scratch_[r] == 0) keep.push_back(static_cast<uint32_t>(r));
    }
    for (size_t c = 0; c < num_stored_; ++c) {
      const ColumnVector& from = chunk->rows.columns[spec_.projection_columns[c]];
      if (keep.size() == nrows) {
        rows.columns[c].AppendRange(from, 0, nrows);
      } else {
        rows.columns[c].AppendGather(from, keep);
      }
    }
    AppendVirtuals(kWosTargetId, start, keep, nullptr, chunk->epoch, &rows);
  }
  if (spec_.sorted_output && !spec_.sort_key_outputs.empty()) {
    auto perm = ComputeSortPermutation(rows, spec_.sort_key_outputs);
    rows = ApplyPermutation(rows, perm);
  }
  src->wos_rows = std::move(rows);
  sources_.push_back(std::move(src));
  return Status::OK();
}

Status ScanOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  morsel_mode_ = spec_.morsels != nullptr;
  if (morsel_mode_) {
    if (spec_.sorted_output) {
      return Status::InvalidArgument("morsel scan cannot produce sorted output");
    }
    // All sibling fragments share the dispenser's snapshot, so every morsel
    // is scanned exactly once against one consistent epoch/container set.
    // The fragment that carves counts the pruning the carve did.
    snap_ = spec_.morsels->EnsureSnapshot(spec_, ctx->epoch, ctx->txn_id, ctx->stats);
  } else {
    snap_ = spec_.storage->GetSnapshot(ctx->epoch, ctx->txn_id);
  }
  // The planner checked liveness at plan time; re-check after snapshotting.
  // MarkNodeDown clears the flag before crashing volatile state, so a true
  // read here proves the snapshot predates any crash. A false read means the
  // WOS may have been wiped under us — fail over to a buddy instead of
  // silently returning a partial snapshot. A crash keeps the ROS and the
  // persisted deletes and lowers the LGE below any delete it loses, so a
  // down copy still reads whole up to its LGE; recovery reads the copy it
  // is rebuilding that way.
  if (!spec_.storage->HostUp() && ctx->epoch > spec_.storage->lge()) {
    return Status::TransientIoError("host node of ", spec_.storage->config().projection,
                                    " went down after planning; replan");
  }
  merger_.reset();
  sources_.clear();
  current_source_ = 0;
  if (morsel_mode_) {
    // ROS sources open lazily as morsels are claimed (GetNext); only the
    // WOS — one indivisible morsel — is materialized here, by the single
    // fragment that wins the claim.
    if (!Abandoned() && spec_.morsels->ClaimWos()) {
      STRATICA_RETURN_NOT_OK(OpenWosSource());
    }
  } else {
    for (const ScanRegion& region : PlanScanRegions(snap_, spec_, 1, ctx->stats)) {
      if (Abandoned()) break;
      STRATICA_RETURN_NOT_OK(OpenContainerSource(region));
    }
    if (!Abandoned()) STRATICA_RETURN_NOT_OK(OpenWosSource());
  }
  // An abandoned pipeline's output is dropped by the exchange anyway; empty
  // sources make every later GetNext an immediate EOF.
  if (Abandoned()) sources_.clear();
  merge_mode_ = spec_.sorted_output && sources_.size() > 1;

  // Build the filter view: the output columns the selection vector depends
  // on (predicate + SIP probe columns; prune bounds only touch metadata).
  size_t ncols = spec_.output_types.size();
  std::vector<char> needed(ncols, 0);
  if (spec_.predicate) {
    std::vector<int> cols;
    CollectColumns(*spec_.predicate, &cols);
    for (int c : cols) {
      if (c >= 0 && c < static_cast<int>(ncols)) needed[c] = 1;
    }
  }
  for (const auto& sip : spec_.sips) {
    for (int c : sip->probe_columns) {
      if (c >= 0 && c < static_cast<int>(ncols)) needed[c] = 1;
    }
  }
  // A predicate with no column references (e.g. a constant) still needs one
  // real column in the view so literal operands broadcast to the block size.
  if (spec_.predicate && ncols > 0) {
    bool any = false;
    for (char c : needed) any |= c != 0;
    if (!any) needed[0] = 1;
  }
  filter_cols_.clear();
  filter_types_.clear();
  filter_pos_.assign(ncols, -1);
  for (size_t c = 0; c < ncols; ++c) {
    if (!needed[c]) continue;
    filter_pos_[c] = static_cast<int>(filter_cols_.size());
    filter_cols_.push_back(static_cast<int>(c));
    filter_types_.push_back(spec_.output_types[c]);
  }
  filter_predicate_ = nullptr;
  if (spec_.predicate) {
    filter_predicate_ = CloneExpr(spec_.predicate);
    RemapColumnRefs(filter_predicate_.get(), filter_pos_);
  }
  sip_filter_cols_.clear();
  for (const auto& sip : spec_.sips) {
    std::vector<uint32_t> view;
    for (int c : sip->probe_columns) {
      if (c < 0 || c >= static_cast<int>(ncols)) continue;  // same guard as above
      view.push_back(static_cast<uint32_t>(filter_pos_[c]));
    }
    sip_filter_cols_.push_back(std::move(view));
  }

  if (merge_mode_) {
    // Sorted output over multiple sources: a loser-tree merge keyed on the
    // sort-prefix outputs (ascending, matching the stored sort order).
    std::vector<std::unique_ptr<MergeInput>> inputs;
    for (auto& src : sources_) {
      inputs.push_back(std::make_unique<SourceMergeInput>(this, src.get()));
    }
    std::vector<SortKey> keys;
    for (uint32_t c : spec_.sort_key_outputs) keys.push_back({c, false});
    merger_ = std::make_unique<LoserTreeMerger>(std::move(inputs), keys);
    STRATICA_RETURN_NOT_OK(merger_->Init());
  }
  return Status::OK();
}

Status ScanOperator::ComputeSelection(Source* src, size_t block_idx, uint64_t row_start,
                                      RowBlock* fblock, size_t n, size_t* selected) {
  sel_scratch_.assign(n, 1);
  if (src != nullptr && src->epoch_reader) {
    epoch_scratch_.ints.clear();  // ReadBlock appends
    STRATICA_RETURN_NOT_OK(
        NoteRosFailure(src, src->epoch_reader->ReadBlock(block_idx, &epoch_scratch_)));
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<Epoch>(epoch_scratch_.ints[i]) > ctx_->epoch) sel_scratch_[i] = 0;
    }
  }
  // A history read keeps deleted rows (their delete epochs are output).
  if (src != nullptr && LoadDeletes(src->container->id, row_start, n) && !history_) {
    for (size_t i = 0; i < n; ++i) {
      if (del_scratch_[i] != 0) sel_scratch_[i] = 0;
    }
  }
  if (filter_predicate_ != nullptr) {
    // Selection-in/selection-out: rows already dead (epoch/deletes) are
    // never evaluated, and AND chains evaluate right sides only over the
    // left sides' survivors. Swap keeps both buffers' capacity alive.
    // Compare-const predicates over RLE/dict filter columns evaluate in
    // encoded form (one compare per run / per dictionary entry).
    uint64_t enc_rows = 0;
    STRATICA_RETURN_NOT_OK(
        EvalPredicateMasked(*filter_predicate_, *fblock, sel_scratch_, &pred_scratch_,
                            &enc_rows));
    sel_scratch_.swap(pred_scratch_);
    if (enc_rows > 0 && ctx_->stats)
      ctx_->stats->rows_processed_encoded.fetch_add(enc_rows);
  }
  bool any_sip_ready = false;
  for (const auto& sip : spec_.sips) any_sip_ready |= sip->ready.load();
  size_t after = 0;
  if (any_sip_ready) {
    uint64_t before = 0;
    for (uint8_t s : sel_scratch_) before += s;
    // SIP probing is row-at-a-time over physical entries: flatten any RLE
    // probe column in place (dict columns stay coded — the batched hashers
    // resolve codes through per-entry hash tables).
    for (size_t si = 0; si < spec_.sips.size(); ++si) {
      if (!spec_.sips[si]->ready.load(std::memory_order_acquire)) continue;
      for (uint32_t c : sip_filter_cols_[si]) {
        if (fblock->columns[c].IsRle())
          fblock->columns[c] = fblock->columns[c].Decoded();
      }
    }
    // Nothing above the SIPs filtered rows yet => sel is still all-ones and
    // the dense batched-membership path applies (until a SIP dirties it).
    bool sel_dense = before == n;
    for (size_t si = 0; si < spec_.sips.size(); ++si) {
      const auto& sip = spec_.sips[si];
      if (!sip->ready.load(std::memory_order_acquire)) continue;
      const std::vector<uint32_t>& cols = sip_filter_cols_[si];
      if (cols.empty()) continue;  // no valid probe columns: nothing to test
      if (sip->has_range && cols.size() == 1) {
        const ColumnVector& col = fblock->columns[cols[0]];
        if (col.IsDictCoded() && col.dict_sorted &&
            StorageClassOf(col.type) == StorageClass::kInt64) {
          // Translate [min, max] to a code range once per dictionary, then
          // test codes — no value materialization (DESIGN.md §13).
          const auto& dv = col.dict->ints;
          int64_t lo = std::lower_bound(dv.begin(), dv.end(), sip->min) - dv.begin();
          int64_t hi = std::upper_bound(dv.begin(), dv.end(), sip->max) - dv.begin() - 1;
          for (size_t i = 0; i < n; ++i) {
            if (sel_scratch_[i] &&
                (col.IsNull(i) || col.ints[i] < lo || col.ints[i] > hi)) {
              sel_scratch_[i] = 0;
            }
          }
          if (ctx_->stats) ctx_->stats->rows_processed_encoded.fetch_add(n);
        } else {
          for (size_t i = 0; i < n; ++i) {
            if (sel_scratch_[i] &&
                (col.IsNull(i) || col.ints[i] < sip->min || col.ints[i] > sip->max)) {
              sel_scratch_[i] = 0;
            }
          }
        }
        sel_dense = false;
      }
      // Batch-hash the probe key columns for the rows still selected (the
      // range prune above often kills most of a block), then resolve
      // membership; rows with a NULL key never join.
      HashRowsMasked(*fblock, cols, kSipSeed, sel_scratch_.data(), &hash_buf_);
      bool any_nulls = false;
      for (uint32_t c : cols) any_nulls |= !fblock->columns[c].nulls.empty();
      if (any_nulls) {  // 1 in null_buf_ = NULL key, which never joins
        NullKeyMask(*fblock, cols, &null_buf_);
        for (size_t i = 0; i < n; ++i) {
          if (!sel_scratch_[i]) continue;
          if (null_buf_[i] || !sip->key_hashes.Contains(hash_buf_[i])) {
            sel_scratch_[i] = 0;
          }
        }
      } else if (sel_dense) {
        // Every row probes: batched membership with home-slot prefetch.
        hit_buf_.resize(n);
        sip->key_hashes.ContainsBatch(hash_buf_.data(), n, hit_buf_.data());
        for (size_t i = 0; i < n; ++i) sel_scratch_[i] &= hit_buf_[i];
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (sel_scratch_[i] && !sip->key_hashes.Contains(hash_buf_[i])) {
            sel_scratch_[i] = 0;
          }
        }
      }
      sel_dense = false;  // this SIP may have zeroed rows
    }
    for (uint8_t s : sel_scratch_) after += s;
    if (ctx_->stats) ctx_->stats->rows_sip_filtered.fetch_add(before - after);
  } else {
    for (uint8_t s : sel_scratch_) after += s;
  }
  *selected = after;
  return Status::OK();
}

Status ScanOperator::AdvanceWos(Source* src) {
  bool any_sip_ready = false;
  for (const auto& sip : spec_.sips) any_sip_ready |= sip->ready.load();
  // WOS deletes/epochs were applied when the source was opened; only the
  // predicate and SIP filters remain. Rows are already decoded in memory,
  // but copies still follow the predicate-first order: the selection is
  // computed on a filter-view slice and payload columns are gathered for
  // survivors only.
  bool need_row_filter = spec_.predicate != nullptr || any_sip_ready;
  while (src->wos_cursor < src->wos_rows.NumRows()) {
    size_t take = std::min(ctx_->vector_size,
                           src->wos_rows.NumRows() - src->wos_cursor);
    size_t at = src->wos_cursor;
    src->wos_cursor += take;
    if (ctx_->stats) ctx_->stats->rows_scanned.fetch_add(take);
    if (!need_row_filter) {
      RowBlock slice(spec_.output_types);
      for (size_t c = 0; c < slice.columns.size(); ++c) {
        slice.columns[c].AppendRange(src->wos_rows.columns[c], at, take);
      }
      src->current = std::move(slice);
      return Status::OK();
    }
    RowBlock fview(filter_types_);
    for (size_t i = 0; i < filter_cols_.size(); ++i) {
      fview.columns[i].AppendRange(src->wos_rows.columns[filter_cols_[i]], at, take);
    }
    size_t selected = 0;
    STRATICA_RETURN_NOT_OK(ComputeSelection(nullptr, 0, 0, &fview, take, &selected));
    if (selected == 0) continue;
    RowBlock slice(spec_.output_types);
    std::vector<uint32_t> idx;
    if (selected < take) {
      idx.reserve(selected);
      for (size_t i = 0; i < take; ++i) {
        if (sel_scratch_[i]) idx.push_back(static_cast<uint32_t>(at + i));
      }
    }
    for (size_t c = 0; c < slice.columns.size(); ++c) {
      int fpos = filter_pos_[c];
      if (fpos >= 0) {
        slice.columns[c] = std::move(fview.columns[fpos]);
        if (selected < take) slice.columns[c].Filter(sel_scratch_);
      } else if (selected == take) {
        slice.columns[c].AppendRange(src->wos_rows.columns[c], at, take);
      } else {
        slice.columns[c].AppendGather(src->wos_rows.columns[c], idx);
      }
    }
    src->current = std::move(slice);
    return Status::OK();
  }
  src->exhausted = true;
  return Status::OK();
}

Status ScanOperator::AdvanceRos(Source* src) {
  while (src->next_block < src->block_hi) {
    if (Abandoned()) {
      src->exhausted = true;
      return Status::OK();
    }
    size_t b = src->next_block;
    const BlockMeta& bm0 = src->readers[0].meta().blocks[b];
    // Block-level pruning from the position index, for pruned blocks the
    // carve left between two kept ones.
    bool pruned = false;
    for (const auto& bound : spec_.prune_bounds) {
      pruned |= BlockPruned(src->readers[bound.output_column].meta().blocks[b], bound);
    }
    ++src->next_block;
    if (pruned) {
      if (ctx_->stats) ctx_->stats->blocks_pruned.fetch_add(1);
      continue;
    }
    size_t n = bm0.row_count;
    if (ctx_->stats) ctx_->stats->rows_scanned.fetch_add(n);

    // Late materialization (DESIGN.md §7): read only the filter view, as
    // encoded views so the predicate can evaluate by run / dictionary entry,
    // compute the full selection from it, and touch payload columns only for
    // surviving rows — not at all when the block comes back empty. A block
    // nothing filters is the selected == n case with an empty view.
    RowBlock fblock(filter_types_);
    for (size_t i = 0; i < filter_cols_.size(); ++i) {
      EncodedBlockView view;
      STRATICA_RETURN_NOT_OK(NoteRosFailure(
          src, src->readers[filter_cols_[i]].ReadBlockView(b, &view)));
      fblock.columns[i] = std::move(view.column);
    }
    size_t selected = 0;
    STRATICA_RETURN_NOT_OK(
        ComputeSelection(src, b, bm0.row_start, &fblock, n, &selected));
    if (selected == 0) {
      if (ctx_->stats) {
        uint64_t skipped = 0;
        for (size_t c = 0; c < src->readers.size(); ++c) {
          if (filter_pos_[c] < 0) skipped += src->readers[c].meta().blocks[b].encoded_bytes;
        }
        ctx_->stats->payload_bytes_skipped.fetch_add(skipped);
      }
      continue;
    }
    // Compressed execution (DESIGN.md §13): with encoded output, RLE runs and
    // dict codes survive into the output block, re-cut by the selection.
    bool emit_encoded = spec_.encoded_output && !merge_mode_;
    RowBlock block(spec_.output_types);
    for (size_t c = 0; c < src->readers.size(); ++c) {
      ColumnVector& col = block.columns[c];
      int fpos = filter_pos_[c];
      if (fpos >= 0) {
        col = std::move(fblock.columns[fpos]);
        if (!emit_encoded && !col.IsFlat()) col = col.Decoded();
      } else if (emit_encoded) {
        EncodedBlockView view;
        STRATICA_RETURN_NOT_OK(
            NoteRosFailure(src, src->readers[c].ReadBlockView(b, &view)));
        col = std::move(view.column);
        if (col.IsFlat() && ctx_->stats) ctx_->stats->rows_decoded.fetch_add(selected);
      } else {
        // Flat payload: a fully-selected block decodes every row (no
        // per-row selection test), any other block only its survivors.
        STRATICA_RETURN_NOT_OK(NoteRosFailure(
            src, src->readers[c].ReadBlock(b, &col,
                                           selected == n ? nullptr : &sel_scratch_)));
        if (ctx_->stats) ctx_->stats->rows_decoded.fetch_add(selected);
        continue;
      }
      if (selected < n) col.Filter(sel_scratch_);
      if (!col.IsFlat() && ctx_->stats) {
        ctx_->stats->decode_elided_bytes.fetch_add(
            src->readers[c].meta().blocks[b].encoded_bytes);
      }
    }
    if (num_stored_ < block.columns.size()) {
      std::vector<uint32_t> rows;
      rows.reserve(selected);
      for (size_t i = 0; i < n; ++i) {
        if (sel_scratch_[i]) rows.push_back(static_cast<uint32_t>(i));
      }
      const RosContainer& c = *src->container;
      AppendVirtuals(c.id, bm0.row_start, rows,
                     src->epoch_reader ? &epoch_scratch_ : nullptr, c.min_epoch, &block);
    }
    src->current = std::move(block);
    return Status::OK();
  }
  src->exhausted = true;
  return Status::OK();
}

bool ScanOperator::LoadDeletes(uint64_t target, uint64_t row_start, size_t n) {
  // Only a history read outputs every row's entry; other scans fill the
  // scratch on the first delete in range, so a range without deletes costs
  // one lookup.
  bool any = false;
  if (history_) del_scratch_.assign(n, 0);
  snap_.ForEachDelete(target, row_start, row_start + n, [&](uint64_t p, Epoch e) {
    if (!any && !history_) del_scratch_.assign(n, 0);
    any = true;
    Epoch& d = del_scratch_[p - row_start];
    if (d == 0 || e < d) d = e;
  });
  return any;
}

void ScanOperator::AppendVirtuals(uint64_t target, uint64_t row_start,
                                  const std::vector<uint32_t>& rows,
                                  const ColumnVector* epochs, Epoch uniform_epoch,
                                  RowBlock* block) const {
  for (size_t c = num_stored_; c < block->columns.size(); ++c) {
    std::vector<int64_t>& out = block->columns[c].ints;
    out.reserve(out.size() + rows.size());
    for (uint32_t r : rows) {
      uint64_t v = 0;
      switch (spec_.projection_columns[c]) {
        case kScanTarget: v = target; break;
        case kScanPosition: v = row_start + r; break;
        case kScanCommitEpoch:
          v = epochs ? static_cast<Epoch>(epochs->ints[r]) : uniform_epoch;
          break;
        case kScanDeleteEpoch: v = del_scratch_[r]; break;
      }
      out.push_back(static_cast<int64_t>(v));
    }
  }
}

Status ScanOperator::Advance(Source* src) {
  src->current.Clear();
  src->current = RowBlock(spec_.output_types);
  src->cursor = 0;
  if (src->is_wos) return AdvanceWos(src);
  return AdvanceRos(src);
}

Status ScanOperator::GetNext(RowBlock* out) {
  *out = RowBlock(spec_.output_types);
  if (Abandoned()) return Status::OK();  // unwanted output: clean EOF
  if (!merge_mode_) {
    for (;;) {
      while (current_source_ < sources_.size()) {
        Source* src = sources_[current_source_].get();
        if (src->exhausted) {
          ++current_source_;
          continue;
        }
        if (src->current.NumRows() == 0 || src->cursor > 0) {
          STRATICA_RETURN_NOT_OK(Advance(src));
          if (src->exhausted) {
            ++current_source_;
            continue;
          }
        }
        *out = std::move(src->current);
        src->current = RowBlock(spec_.output_types);
        src->cursor = 1;  // force re-advance next call
        return Status::OK();
      }
      if (!morsel_mode_ || Abandoned()) return Status::OK();  // EOF
      // Claim the next morsel and open it as a fresh source. An abandoned
      // open appends nothing — loop and claim again.
      ScanRegion region;
      if (!spec_.morsels->Next(&region)) return Status::OK();  // drained
      STRATICA_RETURN_NOT_OK(OpenContainerSource(region));
    }
  }
  // Merge mode: k-way loser-tree merge by the sort key outputs.
  return merger_->Next(out, ctx_->vector_size);
}

Status ScanOperator::Close() {
  // Roll every reader's I/O tally into the shared stats once, off the hot
  // path (I/O amplification reporting for benches).
  if (ctx_ != nullptr && ctx_->stats) {
    uint64_t total = 0;
    uint64_t retries = 0;
    for (const auto& src : sources_) {
      for (const auto& r : src->readers) {
        total += r.bytes_read();
        retries += r.io_retries();
      }
      if (src->epoch_reader) {
        total += src->epoch_reader->bytes_read();
        retries += src->epoch_reader->io_retries();
      }
    }
    ctx_->stats->bytes_read.fetch_add(total);
    if (retries > 0) ctx_->stats->io_retries.fetch_add(retries);
  }
  merger_.reset();  // holds raw Source pointers; must go before sources_
  sources_.clear();
  return Status::OK();
}

void AddScanConjunct(ScanSpec* spec, ExprPtr pred) {
  if (pred->kind == ExprKind::kCompare &&
      pred->children[0]->kind == ExprKind::kColumnRef &&
      pred->children[1]->kind == ExprKind::kLiteral) {
    spec->prune_bounds.push_back(
        {pred->children[0]->column_index, pred->cmp, pred->children[1]->literal});
  }
  spec->predicate = spec->predicate ? And(spec->predicate, pred) : pred;
}

Result<RowBlock> ScanCopy(FileSystem* fs, ProjectionStorage* storage, Epoch epoch,
                          const std::vector<int>& virtuals, const ExprPtr& where) {
  static const char* const kVirtualNames[] = {"$target", "$position", "$commit_epoch",
                                              "$delete_epoch"};
  const ProjectionStorageConfig& cfg = storage->config();
  ScanSpec spec;
  spec.storage = storage;
  for (size_t c = 0; c < cfg.column_names.size(); ++c) {
    spec.projection_columns.push_back(static_cast<int>(c));
    spec.output_names.push_back(cfg.column_names[c]);
    spec.output_types.push_back(cfg.column_types[c]);
  }
  for (int v : virtuals) {
    spec.projection_columns.push_back(v);
    spec.output_names.push_back(kVirtualNames[-v - 1]);
    spec.output_types.push_back(TypeId::kInt64);
  }
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(where, &conjuncts);
  for (auto& c : conjuncts) AddScanConjunct(&spec, std::move(c));
  ScanOperator scan(std::move(spec));
  ExecContext ctx;
  ctx.fs = fs;
  ctx.epoch = epoch;
  return DrainOperator(&scan, &ctx);
}

std::string ScanOperator::DebugString() const {
  std::string s = "Scan(" + (spec_.storage ? spec_.storage->config().projection : "?");
  if (spec_.predicate) s += ", filter: " + spec_.predicate->ToString();
  if (!spec_.prune_bounds.empty())
    s += ", prune bounds: " + std::to_string(spec_.prune_bounds.size());
  if (!spec_.sips.empty()) s += ", SIP filters: " + std::to_string(spec_.sips.size());
  if (spec_.morsels) s += ", morsels";
  if (spec_.sorted_output) s += ", sorted";
  if (spec_.encoded_output) s += ", encoded";
  s += ")";
  return s;
}

}  // namespace stratica
