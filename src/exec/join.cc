#include "exec/join.h"

#include "common/hash.h"
#include "exec/group_by.h"
#include "exec/scheduler.h"
#include "storage/sort_util.h"

namespace stratica {

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "INNER";
    case JoinType::kLeft: return "LEFT OUTER";
    case JoinType::kRight: return "RIGHT OUTER";
    case JoinType::kFull: return "FULL OUTER";
    case JoinType::kSemi: return "SEMI";
    case JoinType::kAnti: return "ANTI";
  }
  return "?";
}

namespace {

bool ProbeOnlyOutput(JoinType t) { return t == JoinType::kSemi || t == JoinType::kAnti; }

bool AnyNullKey(const RowBlock& block, const std::vector<uint32_t>& keys, size_t row) {
  for (uint32_t k : keys) {
    if (block.columns[k].IsNull(row)) return true;
  }
  return false;
}

void AppendNullRow(RowBlock* out, size_t first_col, const std::vector<TypeId>& types) {
  for (size_t c = 0; c < types.size(); ++c) {
    out->columns[first_col + c].Append(Value::Null(types[c]));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedJoinBuild

SharedJoinBuild::SharedJoinBuild(OperatorPtr build, JoinSpec spec, size_t fanout)
    : build_(std::move(build)),
      spec_(std::move(spec)),
      fanout_(fanout == 0 ? 1 : fanout),
      open_fragments_(fanout == 0 ? 1 : fanout) {
  size_t shards = 1;
  while (shards < fanout_ && shards < 64) shards <<= 1;
  shards_.resize(shards);
  shard_mask_ = shards - 1;
}

Status SharedJoinBuild::Ensure(ExecContext* ctx) {
  std::lock_guard lock(mu_);
  if (done_) return status_;
  done_ = true;
  status_ = Build(ctx);
  return status_;
}

Status SharedJoinBuild::Build(ExecContext* ctx) {
  rows_ = RowBlock(build_->OutputTypes());
  STRATICA_RETURN_NOT_OK(build_->Open(ctx));
  for (;;) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(build_->GetNext(&block));
    if (block.NumRows() == 0) break;
    block.DecodeAll();
    if (!ctx->Reserve(block.MemoryBytes(), &reserved_)) {
      // Runtime algorithm switch: spool the build rows to one spill file;
      // every fragment then sort-merges its own probe subset against the
      // full spilled build (their union is the unit's result).
      if (ctx->stats) ctx->stats->hash_to_merge_switches.fetch_add(1);
      SpillWriter writer(ctx->fs, ctx->NextSpillPath());
      STRATICA_RETURN_NOT_OK(writer.Append(rows_));
      STRATICA_RETURN_NOT_OK(writer.Append(block));
      for (;;) {
        RowBlock more;
        STRATICA_RETURN_NOT_OK(build_->GetNext(&more));
        if (more.NumRows() == 0) break;
        more.DecodeAll();
        STRATICA_RETURN_NOT_OK(writer.Append(more));
      }
      STRATICA_RETURN_NOT_OK(writer.Finish());
      if (ctx->stats) {
        ctx->stats->rows_spilled.fetch_add(writer.rows());
        ctx->stats->spill_files.fetch_add(1);
      }
      STRATICA_RETURN_NOT_OK(build_->Close());
      ctx->Release(&reserved_);
      rows_ = RowBlock(build_->OutputTypes());
      spilled_ = true;
      spill_path_ = writer.path();
      return Status::OK();
    }
    rows_.AppendRange(block, 0, block.NumRows());
  }
  STRATICA_RETURN_NOT_OK(build_->Close());

  // Partitioned parallel build: hash every row once, then one task per
  // shard inserts the rows whose high hash bits select it. Each task owns
  // its shard exclusively, so no insert synchronizes with another.
  size_t n = rows_.NumRows();
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> null_keys;
  HashRows(rows_, spec_.build_keys, kGroupKeySeed, &hashes);
  NullKeyMask(rows_, spec_.build_keys, &null_keys);
  size_t num_shards = shards_.size();
  next_row_.assign(n, FlatHashTable::kNone);
  auto insert_shard = [&](size_t s) {
    Shard& sh = shards_[s];
    sh.table.Reserve(n / num_shards + 16);
    sh.rows.reserve(n / num_shards + 16);
    for (size_t r = 0; r < n; ++r) {
      // NULL keys never match a probe, so the rows enter no shard; a
      // fan-out-1 RIGHT/FULL join still emits them from rows_.
      if (null_keys[r]) continue;
      uint64_t h = hashes[r];
      if (ShardOf(h) != s) continue;
      sh.table.Insert(h);
      sh.rows.push_back(static_cast<uint32_t>(r));
    }
    // Translate the shard's chains to rows_ indexes. Every row belongs to
    // one shard, so tasks write disjoint next_row_ entries.
    for (uint32_t e = 0; e < sh.rows.size(); ++e) {
      uint32_t next = sh.table.Next(e);
      next_row_[sh.rows[e]] = next == FlatHashTable::kNone ? next : sh.rows[next];
    }
  };
  constexpr size_t kParallelBuildMinRows = 8192;
  if (ctx->scheduler != nullptr && num_shards > 1 && n >= kParallelBuildMinRows) {
    Scheduler::TaskSet tasks(ctx->scheduler);
    for (size_t s = 0; s < num_shards; ++s) tasks.Submit([&insert_shard, s] { insert_shard(s); });
    tasks.Wait();
  } else {
    for (size_t s = 0; s < num_shards; ++s) insert_shard(s);
  }

  // Publish the SIP filter exactly once, before any fragment's probe scan
  // opens (they are all blocked in Ensure until this returns).
  if (spec_.sip) {
    bool single_int_key =
        spec_.build_keys.size() == 1 &&
        StorageClassOf(rows_.columns[spec_.build_keys[0]].type) ==
            StorageClass::kInt64;
    HashRows(rows_, spec_.build_keys, kSipSeed, &hashes);
    // No Reserve: distinct-key count is unknown (often << n) and the set
    // grows geometrically; reserving for n rows would allocate O(rows)
    // outside the operator budget.
    bool first = true;
    for (size_t r = 0; r < n; ++r) {
      if (null_keys[r]) continue;
      spec_.sip->key_hashes.Insert(hashes[r]);
      if (single_int_key) {
        int64_t v = rows_.columns[spec_.build_keys[0]].ints[r];
        if (first) {
          spec_.sip->min = spec_.sip->max = v;
          first = false;
        } else {
          spec_.sip->min = std::min(spec_.sip->min, v);
          spec_.sip->max = std::max(spec_.sip->max, v);
        }
      }
    }
    spec_.sip->has_range = single_int_key && !first;
    spec_.sip->ready.store(true, std::memory_order_release);
  }
  return Status::OK();
}

void SharedJoinBuild::ProbeHeads(const uint64_t* hashes, const uint8_t* null_keys,
                                 size_t n, uint32_t* heads) const {
  constexpr size_t kPrefetchDistance = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      uint64_t ahead = hashes[i + kPrefetchDistance];
      shards_[ShardOf(ahead)].table.Prefetch(ahead);
    }
    heads[i] = FlatHashTable::kNone;
    if (null_keys[i]) continue;
    const Shard& sh = shards_[ShardOf(hashes[i])];
    uint32_t local = sh.table.Probe(hashes[i]);
    if (local != FlatHashTable::kNone) heads[i] = sh.rows[local];
  }
}

void SharedJoinBuild::FragmentClosed(ExecContext* ctx) {
  std::lock_guard lock(mu_);
  if (open_fragments_ == 0) return;
  if (--open_fragments_ == 0 && ctx != nullptr) ctx->Release(&reserved_);
}

// ---------------------------------------------------------------------------
// HashJoinOperator

std::vector<TypeId> HashJoinOperator::OutputTypes() const {
  // After the runtime switch the probe child lives inside the fallback
  // merge join, which exposes the identical schema.
  if (fallback_) return fallback_->OutputTypes();
  std::vector<TypeId> t = probe_->OutputTypes();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (TypeId bt : shared_->OutputTypes()) t.push_back(bt);
  }
  return t;
}

std::vector<std::string> HashJoinOperator::OutputNames() const {
  if (fallback_) return fallback_->OutputNames();
  std::vector<std::string> n = probe_->OutputNames();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (const auto& bn : shared_->OutputNames()) n.push_back(bn);
  }
  return n;
}

std::vector<Operator*> HashJoinOperator::Children() const {
  if (fallback_) return {fallback_.get()};
  // The designated fragment exposes the build subtree so EXPLAIN and
  // plan-memory estimation see it exactly once.
  if (show_build_) return {probe_.get(), shared_->child()};
  return {probe_.get()};
}

Status HashJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  fallback_.reset();
  probe_done_ = false;
  emitting_unmatched_ = false;
  unmatched_cursor_ = 0;
  bool emits_unmatched_build =
      spec_.type == JoinType::kRight || spec_.type == JoinType::kFull;
  if (emits_unmatched_build && shared_->fanout() > 1) {
    return Status::InvalidArgument(
        "shared join build cannot serve ", JoinTypeName(spec_.type),
        ": unmatched build rows must be emitted exactly once");
  }
  STRATICA_RETURN_NOT_OK(shared_->Ensure(ctx));
  if (shared_->spilled()) {
    // Runtime switch to sort-merge: this fragment's probe input against the
    // whole spilled build.
    std::vector<SortKey> lkeys, rkeys;
    for (uint32_t k : spec_.probe_keys) lkeys.push_back({k, false});
    for (uint32_t k : spec_.build_keys) rkeys.push_back({k, false});
    auto spill_src = std::make_unique<SpillSourceOperator>(
        shared_->spill_path(), shared_->OutputTypes(), shared_->OutputNames());
    auto sorted_build = std::make_unique<SortOperator>(std::move(spill_src), rkeys);
    auto sorted_probe = std::make_unique<SortOperator>(std::move(probe_), lkeys);
    JoinSpec mj_spec = spec_;
    mj_spec.sip = nullptr;  // no hash table to filter with
    fallback_ = std::make_unique<MergeJoinOperator>(
        std::move(sorted_probe), std::move(sorted_build), mj_spec);
    return fallback_->Open(ctx);
  }
  build_matched_.assign(emits_unmatched_build ? shared_->rows().NumRows() : 0, 0);
  return probe_->Open(ctx);
}

Status HashJoinOperator::EmitUnmatchedBuild(RowBlock* out) {
  const RowBlock& brows = shared_->rows();
  auto probe_types = probe_->OutputTypes();
  while (unmatched_cursor_ < brows.NumRows() && out->NumRows() < ctx_->vector_size) {
    size_t r = unmatched_cursor_++;
    if (build_matched_[r]) continue;
    AppendNullRow(out, 0, probe_types);
    for (size_t c = 0; c < brows.NumColumns(); ++c) {
      out->columns[probe_types.size() + c].AppendFrom(brows.columns[c], r);
    }
  }
  return Status::OK();
}

Status HashJoinOperator::GetNext(RowBlock* out) {
  if (fallback_) return fallback_->GetNext(out);
  *out = RowBlock(OutputTypes());
  bool build_output = !ProbeOnlyOutput(spec_.type);
  bool track_matched = !build_matched_.empty();
  size_t probe_width = probe_->OutputTypes().size();
  const RowBlock& brows = shared_->rows();

  // Process one whole probe block per call: match indexes are collected
  // first, then columns materialize with typed batch gathers.
  while (out->NumRows() == 0 && !probe_done_) {
    STRATICA_RETURN_NOT_OK(probe_->GetNext(&probe_block_));
    probe_block_.DecodeAll();
    if (probe_block_.NumRows() == 0) {
      probe_done_ = true;
      break;
    }
    std::vector<uint32_t> probe_idx, build_idx;  // matched pairs
    std::vector<uint32_t> lonely_probe;          // unmatched probe rows
    size_t n = probe_block_.NumRows();
    // Hash the whole probe block once, then resolve every row's chain head
    // in one batched probe pass; the per-row loop only walks candidates,
    // which are rows() indexes.
    HashRows(probe_block_, spec_.probe_keys, kGroupKeySeed, &hash_buf_);
    NullKeyMask(probe_block_, spec_.probe_keys, &null_key_buf_);
    head_buf_.resize(n);
    shared_->ProbeHeads(hash_buf_.data(), null_key_buf_.data(), n, head_buf_.data());
    // Single int-class key fast path: candidates reached via the chain have
    // non-NULL build keys (NULL-key rows enter no shard) and the probe row's
    // key is non-NULL when we get here, so raw value compare suffices.
    const int64_t* probe_ints = nullptr;
    const int64_t* build_ints = nullptr;
    if (spec_.probe_keys.size() == 1 &&
        StorageClassOf(probe_block_.columns[spec_.probe_keys[0]].type) ==
            StorageClass::kInt64 &&
        StorageClassOf(brows.columns[spec_.build_keys[0]].type) ==
            StorageClass::kInt64) {
      probe_ints = probe_block_.columns[spec_.probe_keys[0]].ints.data();
      build_ints = brows.columns[spec_.build_keys[0]].ints.data();
    }
    for (size_t r = 0; r < n; ++r) {
      size_t matches = 0;
      for (uint32_t br = head_buf_[r]; br != FlatHashTable::kNone;
           br = shared_->NextRow(br)) {
        bool eq;
        if (probe_ints) {
          eq = probe_ints[r] == build_ints[br];
        } else {
          eq = true;
          for (size_t k = 0; k < spec_.probe_keys.size() && eq; ++k) {
            eq = ColumnVector::CompareEntries(
                     probe_block_.columns[spec_.probe_keys[k]], r,
                     brows.columns[spec_.build_keys[k]], br) == 0;
          }
        }
        if (!eq) continue;
        ++matches;
        // Matched bits feed RIGHT/FULL emission, which only fan-out 1
        // serves, so no sibling fragment writes them concurrently.
        if (track_matched) build_matched_[br] = 1;
        if (spec_.type == JoinType::kSemi || spec_.type == JoinType::kAnti) break;
        if (build_output) {
          probe_idx.push_back(static_cast<uint32_t>(r));
          build_idx.push_back(br);
        }
      }
      bool emit_lonely = (spec_.type == JoinType::kAnti && matches == 0) ||
                         (spec_.type == JoinType::kSemi && matches > 0) ||
                         ((spec_.type == JoinType::kLeft ||
                           spec_.type == JoinType::kFull) &&
                          matches == 0);
      if (emit_lonely) lonely_probe.push_back(static_cast<uint32_t>(r));
    }
    for (size_t c = 0; c < probe_width; ++c) {
      out->columns[c].AppendGather(probe_block_.columns[c], probe_idx);
    }
    if (build_output) {
      for (size_t c = 0; c < brows.NumColumns(); ++c) {
        out->columns[probe_width + c].AppendGather(brows.columns[c], build_idx);
      }
    }
    if (!lonely_probe.empty()) {
      for (size_t c = 0; c < probe_width; ++c) {
        out->columns[c].AppendGather(probe_block_.columns[c], lonely_probe);
      }
      if (build_output) {
        auto build_types = shared_->OutputTypes();
        for (size_t i = 0; i < lonely_probe.size(); ++i) {
          AppendNullRow(out, probe_width, build_types);
        }
      }
    }
  }

  if (out->NumRows() == 0 && probe_done_ &&
      (spec_.type == JoinType::kRight || spec_.type == JoinType::kFull)) {
    if (!emitting_unmatched_) {
      emitting_unmatched_ = true;
      unmatched_cursor_ = 0;
    }
    STRATICA_RETURN_NOT_OK(EmitUnmatchedBuild(out));
  }
  return Status::OK();
}

Status HashJoinOperator::Close() {
  // The last fragment to close releases the build bytes; a build that
  // spilled still counted this fragment.
  shared_->FragmentClosed(ctx_);
  return fallback_ ? fallback_->Close() : probe_->Close();
}

std::string HashJoinOperator::DebugString() const {
  std::string s = std::string("JoinHash(") + JoinTypeName(spec_.type);
  if (spec_.sip) s += ", SIP";
  if (shared_->fanout() > 1) s += ", shared build /" + std::to_string(shared_->fanout());
  if (fallback_) s += ", switched to sort-merge at runtime";
  return s + ")";
}

// ---------------------------------------------------------------------------
// MergeJoinOperator

Status MergeJoinOperator::Cursor::Refill() {
  if (done) return Status::OK();
  if (pos < block.NumRows()) return Status::OK();
  for (;;) {
    STRATICA_RETURN_NOT_OK(op->GetNext(&block));
    block.DecodeAll();
    pos = 0;
    if (block.NumRows() == 0) {
      done = true;
      return Status::OK();
    }
    return Status::OK();
  }
}

std::vector<TypeId> MergeJoinOperator::OutputTypes() const {
  std::vector<TypeId> t = left_->OutputTypes();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (TypeId rt : right_->OutputTypes()) t.push_back(rt);
  }
  return t;
}

std::vector<std::string> MergeJoinOperator::OutputNames() const {
  std::vector<std::string> n = left_->OutputNames();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (const auto& rn : right_->OutputNames()) n.push_back(rn);
  }
  return n;
}

Status MergeJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  STRATICA_RETURN_NOT_OK(left_->Open(ctx));
  STRATICA_RETURN_NOT_OK(right_->Open(ctx));
  left_types_ = left_->OutputTypes();
  right_types_ = right_->OutputTypes();
  lcur_ = Cursor{left_.get(), RowBlock(), 0, false};
  rcur_ = Cursor{right_.get(), RowBlock(), 0, false};
  STRATICA_RETURN_NOT_OK(lcur_.Refill());
  STRATICA_RETURN_NOT_OK(rcur_.Refill());
  pending_ = RowBlock(OutputTypes());
  pending_cursor_ = 0;
  return Status::OK();
}

Status MergeJoinOperator::CollectGroup(Cursor* cur, const std::vector<uint32_t>& keys,
                                       RowBlock* group) {
  // First row of the group.
  group->AppendRowFrom(cur->block, cur->pos);
  size_t anchor = group->NumRows() - 1;
  ++cur->pos;
  std::vector<uint32_t> group_keys = keys;
  for (;;) {
    STRATICA_RETURN_NOT_OK(cur->Refill());
    if (cur->done) return Status::OK();
    if (CompareRows(*group, anchor, cur->block, cur->pos, group_keys, keys) != 0)
      return Status::OK();
    group->AppendRowFrom(cur->block, cur->pos);
    ++cur->pos;
  }
}

Status MergeJoinOperator::GetNext(RowBlock* out) {
  *out = RowBlock(OutputTypes());
  size_t lwidth = left_types_.size();
  bool right_output = !ProbeOnlyOutput(spec_.type);

  // Drain any cross-product overflow first.
  while (pending_cursor_ < pending_.NumRows() && out->NumRows() < ctx_->vector_size) {
    out->AppendRowFrom(pending_, pending_cursor_++);
  }
  if (pending_cursor_ >= pending_.NumRows()) {
    pending_ = RowBlock(OutputTypes());
    pending_cursor_ = 0;
  }

  while (out->NumRows() < ctx_->vector_size) {
    STRATICA_RETURN_NOT_OK(lcur_.Refill());
    STRATICA_RETURN_NOT_OK(rcur_.Refill());
    bool lvalid = !lcur_.done, rvalid = !rcur_.done;
    if (!lvalid && !rvalid) break;

    int cmp;
    bool lnull = lvalid && AnyNullKey(lcur_.block, spec_.probe_keys, lcur_.pos);
    bool rnull = rvalid && AnyNullKey(rcur_.block, spec_.build_keys, rcur_.pos);
    if (!lvalid) {
      cmp = 1;  // only right rows remain
    } else if (!rvalid) {
      cmp = -1;
    } else if (lnull) {
      cmp = -1;  // NULL sorts first and never matches: treat as left-smaller
    } else if (rnull) {
      cmp = 1;
    } else {
      cmp = CompareRows(lcur_.block, lcur_.pos, rcur_.block, rcur_.pos,
                        spec_.probe_keys, spec_.build_keys);
    }

    if (cmp < 0) {
      // Left row has no match.
      if (spec_.type == JoinType::kLeft || spec_.type == JoinType::kFull ||
          spec_.type == JoinType::kAnti) {
        for (size_t c = 0; c < lwidth; ++c)
          out->columns[c].AppendFrom(lcur_.block.columns[c], lcur_.pos);
        if (right_output) AppendNullRow(out, lwidth, right_types_);
      }
      ++lcur_.pos;
    } else if (cmp > 0) {
      if (spec_.type == JoinType::kRight || spec_.type == JoinType::kFull) {
        AppendNullRow(out, 0, left_types_);
        for (size_t c = 0; c < right_types_.size(); ++c)
          out->columns[lwidth + c].AppendFrom(rcur_.block.columns[c], rcur_.pos);
      }
      ++rcur_.pos;
    } else {
      // Equal keys: materialize both groups and emit the cross product.
      RowBlock lgroup(left_types_), rgroup(right_types_);
      STRATICA_RETURN_NOT_OK(CollectGroup(&lcur_, spec_.probe_keys, &lgroup));
      STRATICA_RETURN_NOT_OK(CollectGroup(&rcur_, spec_.build_keys, &rgroup));
      if (spec_.type == JoinType::kSemi) {
        for (size_t lr = 0; lr < lgroup.NumRows(); ++lr) {
          for (size_t c = 0; c < lwidth; ++c)
            out->columns[c].AppendFrom(lgroup.columns[c], lr);
        }
      } else if (spec_.type == JoinType::kAnti) {
        // matched: emit nothing
      } else {
        for (size_t lr = 0; lr < lgroup.NumRows(); ++lr) {
          for (size_t rr = 0; rr < rgroup.NumRows(); ++rr) {
            RowBlock* dst = out->NumRows() < ctx_->vector_size ? out : &pending_;
            for (size_t c = 0; c < lwidth; ++c)
              dst->columns[c].AppendFrom(lgroup.columns[c], lr);
            for (size_t c = 0; c < right_types_.size(); ++c)
              dst->columns[lwidth + c].AppendFrom(rgroup.columns[c], rr);
          }
        }
      }
    }
  }
  return Status::OK();
}

Status MergeJoinOperator::Close() {
  STRATICA_RETURN_NOT_OK(left_->Close());
  return right_->Close();
}

std::string MergeJoinOperator::DebugString() const {
  return std::string("JoinMerge(") + JoinTypeName(spec_.type) + ")";
}

}  // namespace stratica
