#include "exec/simple_ops.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace stratica {

std::string ExplainTree(const Operator& root) {
  std::ostringstream out;
  struct Frame {
    const Operator* op;
    int depth;
  };
  std::vector<Frame> stack = {{&root, 0}};
  while (!stack.empty()) {
    auto [op, depth] = stack.back();
    stack.pop_back();
    for (int i = 0; i < depth; ++i) out << "  ";
    out << op->DebugString() << "\n";
    auto children = op->Children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return out.str();
}

size_t EstimatePlanMemory(const Operator& root) {
  size_t total = root.MemoryEstimateBytes();
  for (const Operator* child : root.Children()) total += EstimatePlanMemory(*child);
  return total;
}

Result<RowBlock> DrainOperator(Operator* op, ExecContext* ctx) {
  STRATICA_RETURN_NOT_OK(op->Open(ctx));
  RowBlock all(op->OutputTypes());
  for (;;) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(op->GetNext(&block));
    if (block.NumRows() == 0) break;
    block.DecodeAll();
    all.AppendRange(block, 0, block.NumRows());
  }
  STRATICA_RETURN_NOT_OK(op->Close());
  return all;
}

Status MaterializedOperator::GetNext(RowBlock* out) {
  *out = RowBlock(OutputTypes());
  const RowBlock& rows = Rows();
  size_t n = rows.NumRows();
  if (cursor_ >= n) return Status::OK();
  size_t take = std::min(ctx_->vector_size, n - cursor_);
  out->AppendRange(rows, cursor_, take);
  cursor_ += take;
  return Status::OK();
}

ProjectOperator::ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)), names_(std::move(names)) {}

Status ProjectOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

std::vector<TypeId> ProjectOperator::OutputTypes() const {
  std::vector<TypeId> t;
  for (const auto& e : exprs_) t.push_back(e->type);
  return t;
}

Status ProjectOperator::GetNext(RowBlock* out) {
  RowBlock in;
  STRATICA_RETURN_NOT_OK(child_->GetNext(&in));
  *out = RowBlock(OutputTypes());
  if (in.NumRows() == 0) return Status::OK();
  // Compressed execution (DESIGN.md §13): a bare column reference passes the
  // child's column through with runs/dict codes intact — the downstream
  // consumer decides whether to decode. Only non-trivial expressions force
  // the block flat.
  bool any_compute = false;
  for (const auto& e : exprs_) any_compute |= e->kind != ExprKind::kColumnRef;
  if (any_compute) in.DecodeAll();
  for (size_t c = 0; c < exprs_.size(); ++c) {
    const Expr& e = *exprs_[c];
    if (e.kind == ExprKind::kColumnRef && e.column_index >= 0 &&
        e.column_index < static_cast<int>(in.columns.size())) {
      const ColumnVector& src = in.columns[e.column_index];
      if (!src.IsFlat() && ctx_ != nullptr && ctx_->stats) {
        ctx_->stats->rows_processed_encoded.fetch_add(in.NumRows());
      }
      out->columns[c] = src;
      continue;
    }
    STRATICA_RETURN_NOT_OK(EvalExpr(e, in, &out->columns[c]));
  }
  return Status::OK();
}

std::string ProjectOperator::DebugString() const {
  std::string s = "ExprEval(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i) s += ", ";
    s += exprs_[i]->ToString();
  }
  return s + ")";
}

Status FilterOperator::GetNext(RowBlock* out) {
  for (;;) {
    RowBlock in;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&in));
    *out = std::move(in);
    if (out->NumRows() == 0) return Status::OK();
    // Encoded blocks filter without expansion: the predicate's fast paths
    // evaluate by run / dictionary entry and the selection re-cuts runs or
    // compacts codes.
    std::vector<uint8_t> sel;
    uint64_t enc_rows = 0;
    STRATICA_RETURN_NOT_OK(EvalPredicate(*predicate_, *out, &sel, &enc_rows));
    if (enc_rows > 0 && ctx_ != nullptr && ctx_->stats) {
      ctx_->stats->rows_processed_encoded.fetch_add(enc_rows);
    }
    for (auto& col : out->columns) col.Filter(sel);
    if (out->NumRows() > 0) return Status::OK();
  }
}

RowBlock SortOperator::SortBuffer() {
  std::vector<uint32_t> perm = ComputeSortPermutationDirected(buffer_, keys_);
  return ApplyPermutation(buffer_, perm);
}

Status SortOperator::SpillRun() {
  RowBlock sorted = SortBuffer();
  buffer_ = RowBlock(child_->OutputTypes());
  if (sorted.NumRows() == 0) return Status::OK();
  SpillWriter writer(ctx_->fs, ctx_->NextSpillPath());
  STRATICA_RETURN_NOT_OK(writer.Append(sorted));
  STRATICA_RETURN_NOT_OK(writer.Finish());
  if (ctx_->stats) {
    ctx_->stats->rows_spilled.fetch_add(sorted.NumRows());
    ctx_->stats->spill_files.fetch_add(1);
    ctx_->stats->sort_runs.fetch_add(1);
    auto size = ctx_->fs->FileSize(writer.path());
    if (size.ok()) ctx_->stats->sort_spilled_bytes.fetch_add(size.value());
  }
  run_paths_.push_back(writer.path());
  return Status::OK();
}

Status SortOperator::ConsumeRuns() {
  for (;;) {
    RowBlock in;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&in));
    if (in.NumRows() == 0) break;
    in.DecodeAll();
    buffer_.AppendRange(in, 0, in.NumRows());
    // Externalize when the query's budget refuses the block (Section 6.1:
    // every operator handles any input within the memory it is given).
    if (!ctx_->Reserve(in.MemoryBytes(), &reserved_)) {
      STRATICA_RETURN_NOT_OK(SpillRun());
      ctx_->Release(&reserved_);
    }
  }

  if (run_paths_.empty()) {
    sorted_ = SortBuffer();
    buffer_ = RowBlock(child_->OutputTypes());
    merge_mode_ = false;
    return Status::OK();
  }
  // The final run stays in memory; spilled runs stream back block-wise.
  // Input order = run order (earlier input rows in earlier runs), so the
  // merger's low-index tie-break keeps the overall sort stable.
  std::vector<std::unique_ptr<MergeInput>> inputs;
  for (const auto& path : run_paths_) {
    inputs.push_back(
        std::make_unique<SpillMergeInput>(ctx_->fs, path, child_->OutputTypes()));
  }
  RowBlock last = SortBuffer();
  buffer_ = RowBlock(child_->OutputTypes());
  if (last.NumRows() > 0) {
    inputs.push_back(std::make_unique<BlockMergeInput>(std::move(last)));
  }
  merger_ = std::make_unique<LoserTreeMerger>(std::move(inputs), keys_);
  STRATICA_RETURN_NOT_OK(merger_->Init());
  merge_mode_ = true;
  return Status::OK();
}

void SortOperator::CompactTopKStore() {
  std::vector<uint32_t> live;
  live.reserve(heap_.size());
  for (const auto& e : heap_) live.push_back(e.row);
  RowBlock compact(child_->OutputTypes());
  for (size_t c = 0; c < compact.columns.size(); ++c) {
    compact.columns[c].AppendGather(topk_store_.columns[c], live);
  }
  topk_store_ = std::move(compact);
  for (size_t i = 0; i < heap_.size(); ++i) {
    heap_[i].row = static_cast<uint32_t>(i);
  }
}

Status SortOperator::ConsumeTopK() {
  // Max-heap ordered by (key, seq): the root is the current k-th (worst)
  // kept row. A new row displaces it only when strictly smaller — an equal
  // key loses to the incumbent's earlier sequence number, which is exactly
  // the tie a stable full sort would resolve the same way.
  auto worse = [](const TopKEntry& a, const TopKEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };
  const size_t k = static_cast<size_t>(limit_hint_);
  NormalizedKeys nk;
  uint64_t pruned = 0;
  for (;;) {
    RowBlock in;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&in));
    if (in.NumRows() == 0) break;
    in.DecodeAll();
    BuildNormalizedKeys(in, keys_, &nk);
    for (size_t r = 0; r < in.NumRows(); ++r) {
      const char* kd = reinterpret_cast<const char*>(nk.Data(r));
      size_t kl = nk.Length(r);
      if (heap_.size() < k) {
        topk_store_.AppendRowFrom(in, r);
        heap_.push_back({std::string(kd, kl), topk_seq_++,
                         static_cast<uint32_t>(topk_store_.NumRows() - 1)});
        std::push_heap(heap_.begin(), heap_.end(), worse);
        continue;
      }
      const TopKEntry& top = heap_.front();
      if (top.key.compare(0, top.key.size(), kd, kl) <= 0) {
        ++topk_seq_;
        ++pruned;
        continue;  // cannot beat the current k-th row
      }
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      topk_store_.AppendRowFrom(in, r);
      heap_.back() = {std::string(kd, kl), topk_seq_++,
                      static_cast<uint32_t>(topk_store_.NumRows() - 1)};
      std::push_heap(heap_.begin(), heap_.end(), worse);
      // Replaced rows linger in the store until it outgrows the heap, so
      // the store stays O(k) rows (live rows are O(result) and must fit to
      // be returned at all).
      if (topk_store_.NumRows() > 4 * k + 1024) CompactTopKStore();
    }
  }
  if (ctx_->stats && pruned > 0) ctx_->stats->topk_rows_pruned.fetch_add(pruned);

  std::vector<TopKEntry> final_order = std::move(heap_);
  heap_.clear();
  std::sort(final_order.begin(), final_order.end(), worse);
  std::vector<uint32_t> rows;
  rows.reserve(final_order.size());
  for (const auto& e : final_order) rows.push_back(e.row);
  sorted_ = RowBlock(child_->OutputTypes());
  for (size_t c = 0; c < sorted_.columns.size(); ++c) {
    sorted_.columns[c].AppendGather(topk_store_.columns[c], rows);
  }
  topk_store_ = RowBlock(child_->OutputTypes());
  merge_mode_ = false;
  return Status::OK();
}

Status SortOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  STRATICA_RETURN_NOT_OK(child_->Open(ctx));
  buffer_ = RowBlock(child_->OutputTypes());
  topk_store_ = RowBlock(child_->OutputTypes());
  heap_.clear();
  run_paths_.clear();
  merger_.reset();
  sorted_ = RowBlock(child_->OutputTypes());
  cursor_ = 0;
  reserved_ = 0;
  topk_seq_ = 0;
  merge_mode_ = false;

  Status consumed = limit_hint_ > 0 ? ConsumeTopK() : ConsumeRuns();
  ctx->Release(&reserved_);
  return consumed;
}

Status SortOperator::GetNext(RowBlock* out) {
  *out = RowBlock(child_->OutputTypes());
  if (!merge_mode_) {
    size_t n = sorted_.NumRows();
    if (cursor_ >= n) return Status::OK();
    size_t take = std::min(ctx_->vector_size, n - cursor_);
    out->AppendRange(sorted_, cursor_, take);
    cursor_ += take;
    return Status::OK();
  }
  return merger_->Next(out, ctx_->vector_size);
}

std::string SortOperator::DebugString() const {
  std::string s = "Sort(keys: ";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(keys_[i].column);
    if (keys_[i].descending) s += " DESC";
  }
  if (limit_hint_ > 0) s += ", top-k: " + std::to_string(limit_hint_);
  if (!run_paths_.empty())
    s += ", external runs: " + std::to_string(run_paths_.size());
  return s + ")";
}

Status LimitOperator::GetNext(RowBlock* out) {
  *out = RowBlock(child_->OutputTypes());
  while (emitted_ < limit_) {
    RowBlock in;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&in));
    if (in.NumRows() == 0) return Status::OK();
    in.DecodeAll();
    for (size_t r = 0; r < in.NumRows() && emitted_ < limit_; ++r) {
      if (seen_++ < offset_) continue;
      out->AppendRowFrom(in, r);
      ++emitted_;
    }
    if (out->NumRows() > 0) return Status::OK();
  }
  return Status::OK();
}

}  // namespace stratica
