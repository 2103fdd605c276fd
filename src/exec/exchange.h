// Exchange (Section 6.1): a gather — N producer pipelines feed one queue
// read by one consumer. The planner uses it in two roles:
//   ParallelUnion — merges the morsel fragments of one node (DESIGN.md §12);
//   Recv          — gathers per-node pipelines onto the initiator, with
//                   traffic accounted in ExecStats::exchange_bytes.
//
// Straggler hedging (DESIGN.md §11): a producer pipeline that has made zero
// progress by a deadline can be speculatively re-issued against a buddy copy
// of the same data ("hedge"); a producer that fails outright before pushing
// anything is re-issued the same way ("reroute"), so mid-query node death
// degrades to a buddy read instead of failing the statement. Only
// zero-progress pipelines are ever duplicated, so the first source to emit a
// block claims the partition and exactly-once output needs no cross-source
// dedup.
//
// Producers run as pinned tasks on the query's Scheduler (DESIGN.md §12) —
// the unified worker pool — each under a private ExecContext whose
// thread-local ExecStats merge into the query's stats when the source
// finishes (the pipeline barrier). When the consumer closes, the exchange
// cancels and JOINS every producer task before Close returns, so no worker
// touches plan state after teardown.
#ifndef STRATICA_EXEC_EXCHANGE_H_
#define STRATICA_EXEC_EXCHANGE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "exec/operator.h"
#include "exec/scheduler.h"

namespace stratica {

/// \brief One producer pipeline of an exchange plus the metadata that makes
/// it hedgeable: where it reads from (for error context) and how to rebuild
/// an equivalent pipeline against a buddy copy (null = not hedgeable).
struct ExchangeProducerSpec {
  OperatorPtr op;
  std::string origin;  ///< e.g. "node3" — carried in failure Status messages
  /// Build a replacement pipeline reading the same data from a currently
  /// healthy buddy copy. Called from a hedge thread (never under the
  /// exchange lock); may fail when k-safety is exhausted.
  std::function<Result<OperatorPtr>()> rebuild;
};

/// \brief Shared state of one exchange: P producer pipelines push whole
/// blocks into one bounded queue.
class ExchangeState {
 public:
  ExchangeState(std::vector<ExchangeProducerSpec> producers, bool count_network);

  ~ExchangeState();

  /// Launch producers as pinned scheduler tasks (idempotent; consumer Open
  /// calls this). Uses ctx->scheduler, falling back to the process-wide
  /// default pool for hand-built trees.
  void Start(ExecContext* ctx);

  /// Pop the next block; empty block = EOF. Doubles as the hedging clock: a
  /// starving consumer checks producer deadlines.
  Status Pop(RowBlock* out);

  /// Called by consumer Close: producers are cancelled AND joined before
  /// this returns (DESIGN.md §12: teardown joins all morsel workers before
  /// operator Close), so abandoned pipelines (e.g. under a LIMIT) terminate
  /// and release their threads.
  void ConsumerClosed();

  const std::vector<OperatorPtr>& producers() const { return producers_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Hedging state of one producer slot. A slot may be served by several
  /// sources (primary = source 0, hedges/reroutes = 1..); the first source
  /// to push a block — or to finish cleanly with an empty result — claims
  /// the slot and the others become orphans whose output is dropped.
  struct Slot {
    std::string origin;
    std::function<Result<OperatorPtr>()> rebuild;
    int claimed_by = -1;
    uint32_t attempts = 1;       ///< sources issued so far (primary counts)
    uint32_t running = 0;        ///< sources currently executing
    bool done = false;           ///< output complete
    Clock::time_point deadline;  ///< next hedge-eligibility time
    /// Per-source abandonment flags (ExecContext::abandon), indexed by
    /// source id. Raised for the losers when a source claims the slot, and
    /// for everyone on completion/cancellation, so a straggling orphan stops
    /// scanning instead of being awaited to the end at teardown.
    std::vector<std::shared_ptr<std::atomic<bool>>> abandons;
  };

  void ProducerLoop(size_t slot, int source, Operator* op, ExecContext* ctx);
  /// Source finished; resolves the slot (done / reroute / error) under mu_.
  void FinishSource(size_t slot, int source, Status st, ExecContext* ctx);
  /// Returns false when the exchange was cancelled or `source` lost its
  /// claim on the slot (another source produced output first).
  bool Push(size_t slot, int source, RowBlock block);
  /// Spawn a replacement source for `slot` (caller holds mu_ and has already
  /// bumped attempts/running and the hedge/reroute counter).
  void SpawnBackup(size_t slot, ExecContext* ctx);
  /// Hedge every overdue zero-progress slot; returns the earliest pending
  /// deadline (time_point::max() when nothing is hedge-eligible).
  Clock::time_point MaybeHedge(ExecContext* ctx);
  Status ContextualError(size_t slot, const Status& st) const;
  void CloseAll();
  /// Join every producer task spawned so far (idempotent; never called
  /// under mu_). No new task can be spawned once cancelled_ is set.
  void JoinProducers();
  /// Raise the abandon flag of every source of `s` except `winner` (-1 =
  /// all). Caller holds mu_.
  static void AbandonLosers(Slot& s, int winner);

  /// Thread-local per-source ExecStats, owned by the state — not the
  /// producer's stack — because nested producer tasks can outlive their
  /// parent source's frame on error paths (which skip Close). Merged into
  /// the query stats at the source's pipeline barrier. Declared first so it
  /// is destroyed after producers_/backup_ops_, whose destructors join
  /// nested workers that may still be writing counters here.
  std::vector<std::shared_ptr<ExecStats>> source_stats_;  ///< guarded by mu_
  std::vector<OperatorPtr> producers_;
  bool count_network_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<RowBlock> queue_;
  bool queue_closed_ = false;  ///< every slot done, or the exchange failed
  std::vector<Slot> slots_;
  std::vector<OperatorPtr> backup_ops_;  ///< keeps hedge pipelines alive
  size_t slots_done_ = 0;
  bool started_ = false;
  bool cancelled_ = false;
  Status error_;
  ExecContext* ctx_ = nullptr;        // set at Start; outlives the tasks
  uint64_t hedge_deadline_ms_ = 0;    // 0 = time-based hedging off
  uint32_t max_sources_ = 1;          // primary + hedges/reroutes per slot
  Scheduler* scheduler_ = nullptr;    // resolved at Start
  /// Consumer-side abandonment: when this exchange itself feeds an
  /// abandoned pipeline (a nested exchange under a hedged-past producer),
  /// Pop notices and cancels, so abandon propagates through arbitrarily
  /// nested exchanges down to every leaf worker.
  const std::atomic<bool>* consumer_abandon_ = nullptr;
  std::vector<Scheduler::Pinned> tasks_;
  static constexpr size_t kQueueCapacity = 16;
};

/// \brief Consumer endpoint: reads the exchange's queue.
class ExchangeConsumerOperator : public Operator {
 public:
  ExchangeConsumerOperator(std::shared_ptr<ExchangeState> state,
                           std::vector<TypeId> types, std::vector<std::string> names,
                           std::string label)
      : state_(std::move(state)),
        types_(std::move(types)),
        names_(std::move(names)),
        label_(std::move(label)) {}

  Status Open(ExecContext* ctx) override {
    state_->Start(ctx);
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override { return state_->Pop(out); }
  Status Close() override {
    state_->ConsumerClosed();
    return Status::OK();
  }
  std::vector<TypeId> OutputTypes() const override { return types_; }
  std::vector<std::string> OutputNames() const override { return names_; }
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override;

 private:
  std::shared_ptr<ExchangeState> state_;
  std::vector<TypeId> types_;
  std::vector<std::string> names_;
  std::string label_;
};

/// Build a union-all exchange (ParallelUnion / Recv): many producers, one
/// consumer. Producers carry origin + buddy-rebuild factories for hedging.
OperatorPtr MakeUnionExchange(std::vector<ExchangeProducerSpec> producers,
                              std::string label, bool count_network);
/// Producers with no origin and no rebuild (not hedgeable).
OperatorPtr MakeUnionExchange(std::vector<OperatorPtr> producers, std::string label,
                              bool count_network);

}  // namespace stratica

#endif  // STRATICA_EXEC_EXCHANGE_H_
