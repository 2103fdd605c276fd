#include "exec/exchange.h"

#include <algorithm>

namespace stratica {

ExchangeState::ExchangeState(std::vector<ExchangeProducerSpec> producers,
                             bool count_network)
    : count_network_(count_network) {
  producers_.reserve(producers.size());
  slots_.reserve(producers.size());
  for (auto& spec : producers) {
    producers_.push_back(std::move(spec.op));
    Slot s;
    s.origin = std::move(spec.origin);
    s.rebuild = std::move(spec.rebuild);
    slots_.push_back(std::move(s));
  }
}

ExchangeState::~ExchangeState() {
  {
    // A failed query can destroy the tree without draining or closing its
    // consumer; producers may be blocked in Push waiting for queue room.
    // Cancel first or the joins below deadlock. cancelled_ also stops any
    // further hedge/reroute spawns, so joining below is safe.
    // Abandoning every source keeps the joins short: a producer mid-scan on
    // a straggler bails after its current storage op instead of finishing.
    std::unique_lock lock(mu_);
    cancelled_ = true;
    for (auto& s : slots_) AbandonLosers(s, -1);
    cv_.notify_all();
  }
  JoinProducers();
}

void ExchangeState::JoinProducers() {
  std::vector<Scheduler::Pinned> tasks;
  {
    std::lock_guard lock(mu_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t.Join();
}

void ExchangeState::Start(ExecContext* ctx) {
  std::unique_lock lock(mu_);
  if (started_) return;
  started_ = true;
  ctx_ = ctx;
  hedge_deadline_ms_ = ctx ? ctx->hedge_deadline_ms : 0;
  max_sources_ = 1 + (ctx ? ctx->hedge_max_attempts : 0);
  scheduler_ = (ctx && ctx->scheduler) ? ctx->scheduler : Scheduler::Default();
  consumer_abandon_ = ctx ? ctx->abandon : nullptr;
  if (producers_.empty()) {
    CloseAll();
    return;
  }
  auto first_deadline = Clock::now() + std::chrono::milliseconds(hedge_deadline_ms_);
  for (auto& s : slots_) {
    s.running = 1;
    s.deadline = first_deadline;
    s.abandons.assign(1, std::make_shared<std::atomic<bool>>(false));
  }
  for (size_t p = 0; p < producers_.size(); ++p) {
    Operator* op = producers_[p].get();
    tasks_.push_back(scheduler_->StartPinned(
        [this, p, op, ctx] { ProducerLoop(p, /*source=*/0, op, ctx); }));
  }
}

bool ExchangeState::Push(size_t slot, int source, RowBlock block) {
  std::unique_lock lock(mu_);
  Slot& s = slots_[slot];
  // First block out of any source claims the slot; later sources for the
  // same slot are orphans and their output is dropped (no duplicates). The
  // losers are told to stop scanning.
  if (s.claimed_by == -1 && !s.done) {
    s.claimed_by = source;
    AbandonLosers(s, source);
  }
  if (s.claimed_by != source) return false;
  // Count traffic under mu_ so the stat is visible before any consumer can
  // pop the block. Orphaned hedges never reach here, so they can't inflate
  // the stat; cancellation-dropped blocks count, as they always have.
  if (count_network_ && ctx_ && ctx_->stats) {
    ctx_->stats->exchange_bytes.fetch_add(block.MemoryBytes(),
                                          std::memory_order_relaxed);
  }
  cv_.wait(lock, [&] { return cancelled_ || queue_.size() < kQueueCapacity; });
  if (cancelled_) return false;
  queue_.push_back(std::move(block));
  cv_.notify_all();
  return true;
}

void ExchangeState::ConsumerClosed() {
  {
    std::unique_lock lock(mu_);
    cancelled_ = true;
    for (auto& s : slots_) AbandonLosers(s, -1);
    cv_.notify_all();
  }
  // DESIGN.md §12 invariant: once the consumer closes, every producer task
  // is joined before Close returns — cancellation + abandonment above keeps
  // the joins short, and nothing downstream can observe a worker touching
  // plan state after teardown.
  JoinProducers();
}

void ExchangeState::CloseAll() {
  // Output is complete (or doomed): whatever any source still produces is
  // unwanted, so tell them all to stop.
  for (auto& s : slots_) AbandonLosers(s, -1);
  queue_closed_ = true;
  cv_.notify_all();
}

void ExchangeState::AbandonLosers(Slot& s, int winner) {
  for (size_t i = 0; i < s.abandons.size(); ++i) {
    if (static_cast<int>(i) == winner || s.abandons[i] == nullptr) continue;
    s.abandons[i]->store(true, std::memory_order_relaxed);
  }
}

Status ExchangeState::ContextualError(size_t slot, const Status& st) const {
  const std::string& origin = slots_[slot].origin;
  return Status(st.code(), "exchange partition " + std::to_string(slot) + " (" +
                               (origin.empty() ? "local" : origin) +
                               "): " + st.message());
}

void ExchangeState::SpawnBackup(size_t slot, ExecContext* ctx) {
  int source = static_cast<int>(slots_[slot].attempts) - 1;
  slots_[slot].abandons.resize(static_cast<size_t>(source) + 1);
  slots_[slot].abandons[source] = std::make_shared<std::atomic<bool>>(false);
  tasks_.push_back(scheduler_->StartPinned([this, slot, source, ctx] {
    // Plan the replacement pipeline outside mu_: rebuild consults the
    // cluster for a healthy buddy and may do real work.
    Result<OperatorPtr> rebuilt = slots_[slot].rebuild();
    if (!rebuilt.ok()) {
      FinishSource(slot, source, rebuilt.status(), ctx);
      return;
    }
    Operator* op = nullptr;
    {
      std::lock_guard lock(mu_);
      backup_ops_.push_back(std::move(rebuilt).value());
      op = backup_ops_.back().get();
    }
    ProducerLoop(slot, source, op, ctx);
  }));
}

ExchangeState::Clock::time_point ExchangeState::MaybeHedge(ExecContext* ctx) {
  auto now = Clock::now();
  auto next = Clock::time_point::max();
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    // Only zero-progress slots with a live primary and a rebuild recipe are
    // hedge-eligible; dead sources go through the FinishSource reroute path.
    if (s.done || s.claimed_by != -1 || !s.rebuild) continue;
    if (s.attempts >= max_sources_ || s.running == 0) continue;
    if (s.deadline > now) {
      next = std::min(next, s.deadline);
      continue;
    }
    ++s.attempts;
    ++s.running;
    // Exponential backoff: each attempt doubles the wait for the next one.
    s.deadline = now + std::chrono::milliseconds(hedge_deadline_ms_
                                                 << (s.attempts - 1));
    if (ctx && ctx->stats) {
      ctx->stats->exchange_hedges.fetch_add(1, std::memory_order_relaxed);
    }
    SpawnBackup(i, ctx);
    if (s.attempts < max_sources_) next = std::min(next, s.deadline);
  }
  return next;
}

void ExchangeState::FinishSource(size_t slot, int source, Status st,
                                 ExecContext* ctx) {
  std::unique_lock lock(mu_);
  Slot& s = slots_[slot];
  if (s.running > 0) --s.running;
  if (s.done) return;  // slot already resolved by another source
  if (s.claimed_by == source) {
    if (st.ok()) {
      s.done = true;
      AbandonLosers(s, -1);
      if (++slots_done_ == slots_.size()) CloseAll();
    } else {
      // The claimed source already emitted blocks; the consumer may have seen
      // them, so the exchange cannot replay this partition. Surface the
      // error with its origin; statement-level replan handles recovery.
      if (error_.ok()) error_ = ContextualError(slot, st);
      CloseAll();
    }
    return;
  }
  if (s.claimed_by != -1) {
    // Another source owns the slot. Usually an orphan exiting quietly — but
    // if the planned PRIMARY is the one failing here, the partition has
    // effectively failed over to the buddy that claimed it (a hedge that beat
    // the primary to its error). Count the failover.
    if (source == 0 && !st.ok() && ctx && ctx->stats) {
      ctx->stats->exchange_reroutes.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (st.ok()) {
    // Finished cleanly with an empty result: claim so late hedges drop out.
    s.claimed_by = source;
    s.done = true;
    AbandonLosers(s, -1);
    if (++slots_done_ == slots_.size()) CloseAll();
    return;
  }
  // Zero-progress failure. A hedge may still be in flight for this slot —
  // when the failing source is the planned primary, that in-flight backup is
  // now the slot's only hope, so the failure IS a failover even though the
  // re-issue predates it. Otherwise re-issue against the buddy copy here.
  if (s.running > 0) {
    if (source == 0 && ctx && ctx->stats) {
      ctx->stats->exchange_reroutes.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (!cancelled_ && s.rebuild && s.attempts < max_sources_) {
    ++s.attempts;
    ++s.running;
    if (ctx && ctx->stats) {
      ctx->stats->exchange_reroutes.fetch_add(1, std::memory_order_relaxed);
    }
    SpawnBackup(slot, ctx);
    return;
  }
  if (error_.ok()) error_ = ContextualError(slot, st);
  CloseAll();
}

void ExchangeState::ProducerLoop(size_t slot, int source, Operator* op,
                                 ExecContext* ctx) {
  // Run the pipeline under a private copy of the query context carrying this
  // source's abandon flag and a thread-local ExecStats — hot-path counters
  // touch no shared cache line; they merge into the query's stats at the
  // pipeline barrier below (DESIGN.md §12). Only the operator calls see the
  // copy — the original `ctx` goes to FinishSource, which may capture it
  // into a backup task outliving this stack frame.
  std::shared_ptr<std::atomic<bool>> abandon;
  std::shared_ptr<ExecStats> local_stats = std::make_shared<ExecStats>();
  {
    std::lock_guard lock(mu_);
    auto& flags = slots_[slot].abandons;
    if (static_cast<size_t>(source) < flags.size()) abandon = flags[source];
    source_stats_.push_back(local_stats);
  }
  ExecContext pctx;
  ExecContext* op_ctx = ctx;
  if (ctx != nullptr) {
    pctx = *ctx;
    pctx.abandon = abandon.get();
    if (ctx->stats != nullptr) pctx.stats = local_stats.get();
    op_ctx = &pctx;
  }
  Status st = op->Open(op_ctx);
  while (st.ok()) {
    RowBlock block;
    st = op->GetNext(&block);
    if (!st.ok() || block.NumRows() == 0) break;
    // Stop when the exchange was cancelled or this source lost its claim.
    if (!Push(slot, source, std::move(block))) break;
  }
  if (st.ok()) st = op->Close();
  // Pipeline barrier: fold this source's thread-local counters into the
  // query's stats exactly once, before the slot resolves. Orphaned hedges
  // merge too — their scanned rows were really scanned, as before. (On
  // error paths nested workers may still bump *local_stats afterwards; the
  // state owns the object, so that is safe, merely uncounted.)
  if (ctx != nullptr && ctx->stats != nullptr) ctx->stats->MergeFrom(*local_stats);
  FinishSource(slot, source, std::move(st), ctx);
}

Status ExchangeState::Pop(RowBlock* out) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (!error_.ok()) return error_;
    if (!queue_.empty()) {
      *out = std::move(queue_.front());
      queue_.pop_front();
      cv_.notify_all();
      return Status::OK();
    }
    if (queue_closed_) {
      out->Clear();
      out->columns.clear();
      return Status::OK();  // EOF: empty block with no columns
    }
    if (consumer_abandon_ != nullptr &&
        consumer_abandon_->load(std::memory_order_relaxed)) {
      // The pipeline this exchange feeds was itself abandoned (we are a
      // nested exchange under a hedged-past or cancelled producer). Cancel
      // so our own producers' abandon flags rise — this is how abandonment
      // reaches every morsel worker through nested exchanges — and return
      // EOF; the dropped output was unwanted anyway.
      cancelled_ = true;
      for (auto& s : slots_) AbandonLosers(s, -1);
      cv_.notify_all();
      out->Clear();
      out->columns.clear();
      return Status::OK();
    }
    // Bounded waits: a starving consumer doubles as the hedging clock when
    // hedging is on, and either way it must wake to notice consumer-side
    // abandonment (there is no cv signal for a flag set by another
    // exchange).
    auto poll = Clock::now() + std::chrono::milliseconds(10);
    if (hedge_deadline_ms_ > 0) {
      auto due = MaybeHedge(ctx_);
      cv_.wait_until(lock, std::min(due, poll));
    } else if (consumer_abandon_ != nullptr) {
      cv_.wait_until(lock, poll);
    } else {
      cv_.wait(lock);
    }
  }
}

std::string ExchangeConsumerOperator::DebugString() const {
  return label_ + "(" + std::to_string(state_->producers().size()) + " pipelines -> 1)";
}

std::vector<Operator*> ExchangeConsumerOperator::Children() const {
  std::vector<Operator*> kids;
  for (const auto& p : state_->producers()) kids.push_back(p.get());
  return kids;
}

OperatorPtr MakeUnionExchange(std::vector<OperatorPtr> producers, std::string label,
                              bool count_network) {
  std::vector<ExchangeProducerSpec> specs(producers.size());
  for (size_t p = 0; p < producers.size(); ++p) specs[p].op = std::move(producers[p]);
  return MakeUnionExchange(std::move(specs), std::move(label), count_network);
}

OperatorPtr MakeUnionExchange(std::vector<ExchangeProducerSpec> producers,
                              std::string label, bool count_network) {
  std::vector<TypeId> types = producers.front().op->OutputTypes();
  std::vector<std::string> names = producers.front().op->OutputNames();
  auto state = std::make_shared<ExchangeState>(std::move(producers), count_network);
  return std::make_unique<ExchangeConsumerOperator>(state, types, names,
                                                    std::move(label));
}

}  // namespace stratica
