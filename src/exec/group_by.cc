#include "exec/group_by.h"

#include "common/hash.h"
#include "exec/scheduler.h"

namespace stratica {

uint64_t HashGroupKey(const RowBlock& block, const std::vector<uint32_t>& cols,
                      size_t row) {
  uint64_t h = kGroupKeySeed;
  for (uint32_t c : cols) h = HashCombine(h, block.columns[c].HashEntry(row));
  return h;
}

bool GroupKeyEquals(const RowBlock& a, const std::vector<uint32_t>& cols_a, size_t ra,
                    const RowBlock& b, const std::vector<uint32_t>& cols_b, size_t rb) {
  for (size_t i = 0; i < cols_a.size(); ++i) {
    const ColumnVector& ca = a.columns[cols_a[i]];
    const ColumnVector& cb = b.columns[cols_b[i]];
    if (ca.IsNull(ra) != cb.IsNull(rb)) return false;
    if (!ca.IsNull(ra) && ColumnVector::CompareEntries(ca, ra, cb, rb) != 0)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// HashGroupByOperator

std::vector<TypeId> HashGroupByOperator::GroupTypes() const {
  std::vector<TypeId> t;
  auto child_types = child_->OutputTypes();
  for (uint32_t c : spec_.group_columns) t.push_back(child_types[c]);
  return t;
}

std::vector<TypeId> HashGroupByOperator::OutputTypes() const {
  return GroupByOutputTypes(GroupTypes(), spec_.aggs, spec_.phase);
}

uint32_t HashGroupByOperator::FindOrInsertGroup(Table* table, const RowBlock& block,
                                                const std::vector<uint32_t>& key_cols,
                                                size_t row, uint64_t h) {
  for (uint32_t e = table->index.Probe(h); e != FlatHashTable::kNone;
       e = table->index.Next(e)) {
    if (GroupKeyEquals(table->keys, identity_cols_, e, block, key_cols, row)) return e;
  }
  uint32_t group = table->index.Insert(h);
  for (size_t i = 0; i < key_cols.size(); ++i) {
    table->keys.columns[i].AppendFrom(block.columns[key_cols[i]], row);
  }
  table->states.emplace_back(spec_.aggs.size());
  table->bytes += 64 + 48 * spec_.aggs.size();
  return group;
}

void HashGroupByOperator::Consume(RowBlock* blockp) {
  if (spec_.phase != AggPhase::kCombine) {
    // Encoded fast paths (DESIGN.md §13).
    if (spec_.group_columns.empty()) return ConsumeGlobal(*blockp);
    if (spec_.group_columns.size() == 1) {
      const ColumnVector& gc = blockp->columns[spec_.group_columns[0]];
      if (gc.IsDictCoded()) return ConsumeDictKey(blockp);
      if (gc.IsRle()) return ConsumeRleKey(blockp);
    }
  }
  // Universal fallback: flatten RLE columns (their physical entries are not
  // row-parallel); dict columns stay coded — HashRows, GroupKeyEquals and
  // AggState::Update all resolve codes through the dictionary.
  bool any_dict = false;
  for (auto& col : blockp->columns) {
    if (col.IsRle()) col = col.Decoded();
    any_dict |= col.IsDictCoded();
  }
  if (spec_.phase == AggPhase::kCombine) blockp->DecodeAll();
  const RowBlock& block = *blockp;
  size_t n = block.NumRows();
  if (any_dict && spec_.phase != AggPhase::kCombine && ctx_->stats) {
    ctx_->stats->rows_processed_encoded.fetch_add(n);
  }
  // Hash the whole block once (type-specialized per-column loops), then
  // probe in a batch; only rows that miss or collide fall back to the
  // serial find-or-insert walk.
  HashRows(block, spec_.group_columns, kGroupKeySeed, &hash_buf_);
  head_buf_.resize(n);
  table_.index.ProbeBatch(hash_buf_.data(), n, head_buf_.data());
  for (size_t r = 0; r < n; ++r) {
    uint32_t group = FlatHashTable::kNone;
    // Fast path: the batched probe found the chain head; walk candidates.
    // Chain heads are entry ids and stay valid across inserts, but a miss
    // must re-probe: an earlier row of this block may have added the group.
    for (uint32_t e = head_buf_[r]; e != FlatHashTable::kNone; e = table_.index.Next(e)) {
      if (GroupKeyEquals(table_.keys, identity_cols_, e, block, spec_.group_columns,
                         r)) {
        group = e;
        break;
      }
    }
    if (group == FlatHashTable::kNone) {
      group = FindOrInsertGroup(&table_, block, spec_.group_columns, r, hash_buf_[r]);
    }
    auto& states = table_.states[group];
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      const AggSpec& agg = spec_.aggs[a];
      if (spec_.phase == AggPhase::kCombine) {
        // Input columns: group columns first, then each agg's partial columns.
        size_t first = spec_.group_columns.size();
        for (size_t p = 0; p < a; ++p) first += spec_.aggs[p].PartialTypes().size();
        states[a].UpdatePartial(agg, block, first, r);
      } else if (agg.kind == AggKind::kCountStar) {
        states[a].UpdateCountStar(1);
      } else {
        size_t before = states[a].MemoryBytes();
        states[a].Update(agg, block.columns[agg.input_column], r, 1);
        table_.bytes += states[a].MemoryBytes() - before;
      }
    }
  }
}

void HashGroupByOperator::ConsumeGlobal(const RowBlock& block) {
  size_t n = block.NumRows();
  // One group, no key columns; create it exactly as the general path would
  // so spill/merge see an identical table shape.
  uint32_t group;
  if (table_.states.empty()) {
    group = FindOrInsertGroup(&table_, block, spec_.group_columns, 0,
                              HashGroupKey(block, spec_.group_columns, 0));
  } else {
    group = 0;
  }
  auto& states = table_.states[group];
  uint64_t enc_rows = 0;
  for (size_t a = 0; a < spec_.aggs.size(); ++a) {
    const AggSpec& agg = spec_.aggs[a];
    if (agg.kind == AggKind::kCountStar) {
      states[a].UpdateCountStar(static_cast<uint32_t>(n));
      continue;
    }
    const ColumnVector& col = block.columns[agg.input_column];
    size_t before = states[a].MemoryBytes();
    if (col.IsRle()) {
      // One state update per run: COUNT/SUM multiply by the run length,
      // MIN/MAX/COUNT DISTINCT look at each distinct entry once.
      for (size_t p = 0; p < col.PhysicalSize(); ++p) {
        states[a].Update(agg, col, p, col.runs[p]);
      }
      enc_rows += n;
    } else if (col.IsDictCoded()) {
      // Per-code occurrence counts over the non-null rows, then one update
      // per present dictionary entry with the count as the run multiplier.
      size_t dsize = col.dict->PhysicalSize();
      std::vector<uint32_t> cnt(dsize, 0);
      for (size_t r = 0; r < n; ++r) {
        if (!col.IsNull(r)) ++cnt[static_cast<size_t>(col.ints[r])];
      }
      for (size_t code = 0; code < dsize; ++code) {
        if (cnt[code] > 0) states[a].Update(agg, *col.dict, code, cnt[code]);
      }
      enc_rows += n;
    } else {
      for (size_t r = 0; r < n; ++r) states[a].Update(agg, col, r, 1);
    }
    table_.bytes += states[a].MemoryBytes() - before;
  }
  if (enc_rows > 0 && ctx_->stats) {
    ctx_->stats->rows_processed_encoded.fetch_add(enc_rows);
  }
}

void HashGroupByOperator::ConsumeDictKey(RowBlock* blockp) {
  RowBlock& block = *blockp;
  // The per-row walk below needs row-parallel agg inputs; RLE agg columns
  // flatten (dict agg columns stay coded — Update resolves the code).
  for (const auto& agg : spec_.aggs) {
    if (agg.input_column >= 0 && block.columns[agg.input_column].IsRle()) {
      block.columns[agg.input_column] = block.columns[agg.input_column].Decoded();
    }
  }
  const ColumnVector& gc = block.columns[spec_.group_columns[0]];
  size_t n = block.NumRows();
  size_t dsize = gc.dict->PhysicalSize();
  if (gc.dict != code_map_dict_) {
    code_map_dict_ = gc.dict;
    code_map_.assign(dsize + 1, FlatHashTable::kNone);  // last slot: NULL key
  }
  for (size_t r = 0; r < n; ++r) {
    size_t slot = gc.IsNull(r) ? dsize : static_cast<size_t>(gc.ints[r]);
    uint32_t group = code_map_[slot];
    if (group == FlatHashTable::kNone) {
      // First sight of this code: resolve through the hash table (the same
      // dictionary value may already have a group from another block).
      group = FindOrInsertGroup(&table_, block, spec_.group_columns, r,
                                HashGroupKey(block, spec_.group_columns, r));
      code_map_[slot] = group;
    }
    auto& states = table_.states[group];
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      const AggSpec& agg = spec_.aggs[a];
      if (agg.kind == AggKind::kCountStar) {
        states[a].UpdateCountStar(1);
      } else {
        size_t before = states[a].MemoryBytes();
        states[a].Update(agg, block.columns[agg.input_column], r, 1);
        table_.bytes += states[a].MemoryBytes() - before;
      }
    }
  }
  if (ctx_->stats) ctx_->stats->rows_processed_encoded.fetch_add(n);
}

void HashGroupByOperator::ConsumeRleKey(RowBlock* blockp) {
  RowBlock& block = *blockp;
  uint32_t gcol = spec_.group_columns[0];
  // Aggregate inputs other than the key itself are consumed row-at-a-time
  // inside each run; their run structure (if any) need not match the key's,
  // so flatten them.
  for (const auto& agg : spec_.aggs) {
    if (agg.input_column >= 0 && agg.input_column != static_cast<int>(gcol) &&
        block.columns[agg.input_column].IsRle()) {
      block.columns[agg.input_column] = block.columns[agg.input_column].Decoded();
    }
  }
  const ColumnVector& gc = block.columns[gcol];
  size_t n = block.NumRows();
  size_t row = 0;
  for (size_t p = 0; p < gc.PhysicalSize(); ++p) {
    uint32_t run = gc.runs[p];
    uint64_t h = HashCombine(kGroupKeySeed, gc.HashEntry(p));
    uint32_t group = FindOrInsertGroup(&table_, block, spec_.group_columns, p, h);
    auto& states = table_.states[group];
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      const AggSpec& agg = spec_.aggs[a];
      if (agg.kind == AggKind::kCountStar) {
        states[a].UpdateCountStar(run);
      } else if (agg.input_column == static_cast<int>(gcol)) {
        // Aggregating the key itself: constant across the run, one update.
        size_t before = states[a].MemoryBytes();
        states[a].Update(agg, gc, p, run);
        table_.bytes += states[a].MemoryBytes() - before;
      } else {
        const ColumnVector& col = block.columns[agg.input_column];
        size_t before = states[a].MemoryBytes();
        for (size_t rr = row; rr < row + run; ++rr) states[a].Update(agg, col, rr, 1);
        table_.bytes += states[a].MemoryBytes() - before;
      }
    }
    row += run;
  }
  if (ctx_->stats) ctx_->stats->rows_processed_encoded.fetch_add(n);
}

Status HashGroupByOperator::SpillTable() {
  if (partitions_.empty()) {
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      partitions_.push_back(
          std::make_unique<SpillWriter>(ctx_->fs, ctx_->NextSpillPath()));
    }
  }
  // Spill record: group key columns + one string column per agg state.
  std::vector<TypeId> rec_types = GroupTypes();
  for (size_t a = 0; a < spec_.aggs.size(); ++a) rec_types.push_back(TypeId::kString);
  std::vector<RowBlock> per_part;
  per_part.reserve(kSpillPartitions);
  for (size_t p = 0; p < kSpillPartitions; ++p) per_part.emplace_back(rec_types);
  std::vector<uint32_t> key_cols(spec_.group_columns.size());
  for (size_t i = 0; i < key_cols.size(); ++i) key_cols[i] = static_cast<uint32_t>(i);
  HashRows(table_.keys, key_cols, kGroupKeySeed, &hash_buf_);
  for (size_t g = 0; g < table_.states.size(); ++g) {
    RowBlock& dst = per_part[(hash_buf_[g] >> 32) % kSpillPartitions];
    for (size_t i = 0; i < key_cols.size(); ++i)
      dst.columns[i].AppendFrom(table_.keys.columns[i], g);
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      dst.columns[key_cols.size() + a].strings.push_back(
          table_.states[g][a].Serialize(spec_.aggs[a]));
    }
  }
  for (size_t p = 0; p < kSpillPartitions; ++p) {
    if (per_part[p].NumRows() == 0) continue;
    STRATICA_RETURN_NOT_OK(partitions_[p]->Append(per_part[p]));
    if (ctx_->stats) ctx_->stats->rows_spilled.fetch_add(per_part[p].NumRows());
  }
  table_ = Table();
  table_.keys = RowBlock(GroupTypes());
  // Group ids restarted with the table: the dict-code cache is stale.
  code_map_dict_.reset();
  code_map_.clear();
  return Status::OK();
}

Status HashGroupByOperator::EmitTable(const Table& table, std::deque<RowBlock>* dst) {
  RowBlock out(OutputTypes());
  for (size_t g = 0; g < table.states.size(); ++g) {
    for (size_t i = 0; i < spec_.group_columns.size(); ++i)
      out.columns[i].AppendFrom(table.keys.columns[i], g);
    size_t col = spec_.group_columns.size();
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      if (spec_.phase == AggPhase::kPartial) {
        table.states[g][a].EmitPartial(spec_.aggs[a], &out.columns, col);
        col += spec_.aggs[a].PartialTypes().size();
      } else {
        out.columns[col].Append(table.states[g][a].Final(spec_.aggs[a]));
        ++col;
      }
    }
    if (out.NumRows() >= ctx_->vector_size) {
      dst->push_back(std::move(out));
      out = RowBlock(OutputTypes());
    }
  }
  if (out.NumRows() > 0) dst->push_back(std::move(out));
  return Status::OK();
}

Status HashGroupByOperator::MergePartition(SpillWriter* part,
                                           const std::vector<TypeId>& rec_types,
                                           const std::vector<uint32_t>& key_cols,
                                           std::deque<RowBlock>* out) {
  SpillReader reader(ctx_->fs, part->path(), rec_types);
  STRATICA_RETURN_NOT_OK(reader.Open());
  Table merged;
  merged.keys = RowBlock(GroupTypes());
  std::vector<uint64_t> hashes;  // per-task: hash_buf_ is not shareable
  for (;;) {
    RowBlock rec;
    STRATICA_RETURN_NOT_OK(reader.Next(&rec));
    if (rec.NumRows() == 0) break;
    HashRows(rec, key_cols, kGroupKeySeed, &hashes);
    for (size_t r = 0; r < rec.NumRows(); ++r) {
      uint32_t group = FindOrInsertGroup(&merged, rec, key_cols, r, hashes[r]);
      for (size_t a = 0; a < spec_.aggs.size(); ++a) {
        STRATICA_ASSIGN_OR_RETURN(
            AggState st,
            AggState::Parse(spec_.aggs[a],
                            rec.columns[key_cols.size() + a].strings[r]));
        merged.states[group][a].Merge(spec_.aggs[a], st);
      }
    }
  }
  return EmitTable(merged, out);
}

Status HashGroupByOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  identity_cols_.resize(spec_.group_columns.size());
  for (size_t i = 0; i < identity_cols_.size(); ++i)
    identity_cols_[i] = static_cast<uint32_t>(i);
  STRATICA_RETURN_NOT_OK(child_->Open(ctx));
  table_ = Table();
  table_.keys = RowBlock(GroupTypes());
  output_.clear();
  emitted_ = false;
  partitions_.clear();

  code_map_dict_.reset();
  code_map_.clear();
  reserved_ = 0;
  Status aggregated = Aggregate();
  table_ = Table();
  ctx_->Release(&reserved_);
  return aggregated;
}

Status HashGroupByOperator::Aggregate() {
  for (;;) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&block));
    if (block.NumRows() == 0) break;
    Consume(&block);
    // Reserve the table's growth; when the query's budget refuses it, flush
    // the groups (key + serialized states) to grace partitions by key hash
    // and release what the table held.
    if (table_.bytes > reserved_ && !ctx_->Reserve(table_.bytes - reserved_, &reserved_)) {
      STRATICA_RETURN_NOT_OK(SpillTable());
      ctx_->Release(&reserved_);
    }
  }

  if (partitions_.empty()) {
    STRATICA_RETURN_NOT_OK(EmitTable(table_, &output_));
  } else {
    // Flush the tail, then merge the grace partitions. Partitions are
    // hash-disjoint — no group spans two — so they re-aggregate as
    // independent tasks on the query's worker pool (DESIGN.md §12); outputs
    // splice back in partition order, keeping emission deterministic.
    STRATICA_RETURN_NOT_OK(SpillTable());
    std::vector<TypeId> rec_types = GroupTypes();
    for (size_t a = 0; a < spec_.aggs.size(); ++a) rec_types.push_back(TypeId::kString);
    std::vector<uint32_t> key_cols(spec_.group_columns.size());
    for (size_t i = 0; i < key_cols.size(); ++i) key_cols[i] = static_cast<uint32_t>(i);
    for (auto& part : partitions_) STRATICA_RETURN_NOT_OK(part->Finish());
    std::vector<std::deque<RowBlock>> part_out(partitions_.size());
    std::vector<Status> part_status(partitions_.size());
    auto merge_one = [&](size_t p) {
      part_status[p] =
          MergePartition(partitions_[p].get(), rec_types, key_cols, &part_out[p]);
    };
    if (ctx_->scheduler != nullptr && ctx_->intra_node_parallelism > 1) {
      Scheduler::TaskSet tasks(ctx_->scheduler);
      for (size_t p = 0; p < partitions_.size(); ++p)
        tasks.Submit([&merge_one, p] { merge_one(p); });
      tasks.Wait();
    } else {
      for (size_t p = 0; p < partitions_.size(); ++p) merge_one(p);
    }
    for (size_t p = 0; p < partitions_.size(); ++p) {
      STRATICA_RETURN_NOT_OK(part_status[p]);
      for (auto& block : part_out[p]) output_.push_back(std::move(block));
      (void)ctx_->fs->Delete(partitions_[p]->path());
    }
  }
  // SQL: aggregation without GROUP BY yields exactly one row even over
  // empty input (COUNT(*) = 0, SUM = NULL, ...).
  if (spec_.group_columns.empty() && output_.empty() &&
      spec_.phase != AggPhase::kPartial) {
    RowBlock out(OutputTypes());
    for (size_t a = 0; a < spec_.aggs.size(); ++a)
      out.columns[a].Append(AggState().Final(spec_.aggs[a]));
    output_.push_back(std::move(out));
  }
  return Status::OK();
}

Status HashGroupByOperator::GetNext(RowBlock* out) {
  *out = RowBlock(OutputTypes());
  if (output_.empty()) return Status::OK();
  *out = std::move(output_.front());
  output_.pop_front();
  return Status::OK();
}

std::string HashGroupByOperator::DebugString() const {
  std::string s = "GroupByHash(keys: " + std::to_string(spec_.group_columns.size());
  s += ", aggs:";
  for (const auto& a : spec_.aggs) s += std::string(" ") + AggKindName(a.kind);
  switch (spec_.phase) {
    case AggPhase::kSingle: break;
    case AggPhase::kPartial: s += ", partial"; break;
    case AggPhase::kCombine: s += ", combine"; break;
  }
  return s + ")";
}

}  // namespace stratica
