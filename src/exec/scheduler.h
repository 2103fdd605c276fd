// Unified worker pool for everything parallel in the engine (DESIGN.md §12).
//
// One Scheduler instance per Database is the single place parallel work
// runs. It serves two kinds of work:
//
//   - Morsel tasks: short, CPU-bound, non-blocking units (a partitioned
//     hash build, a spill-partition merge, a parallel-for chunk). They go
//     through per-worker work-stealing deques: a worker pops its own deque
//     LIFO (cache-warm) and steals FIFO from siblings when empty. Waiters
//     (TaskSet::Wait) help execute queued tasks instead of sleeping, so a
//     saturated — or single-worker — pool can never deadlock a fork/join.
//
//   - Pinned tasks: long-running pipeline drivers that may block on queue
//     backpressure (exchange producers, the background tuple-mover
//     service). Each gets a dedicated thread from the scheduler's cached
//     reservoir; finished threads park and are reused by later queries
//     instead of being re-created per statement.
//
// The scheduler owns threads, not budgets: memory stays with the
// ResourceManager admission reservation (a query's reservation covers its
// worker fan-out — see ResourceManager::AllowedFanout), and cancellation
// stays with ExecContext::abandon, which callers propagate into every task
// they submit.
#ifndef STRATICA_EXEC_SCHEDULER_H_
#define STRATICA_EXEC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stratica {

/// \brief Work-stealing worker pool + pinned-thread reservoir; one per
/// Database (see the file comment for the full contract).
class Scheduler {
 public:
  /// `num_workers` = 0 sizes the pool to the hardware concurrency.
  explicit Scheduler(size_t num_workers = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Process-wide fallback instance (hand-built operator trees, benches).
  /// Database-owned schedulers are preferred: they are plumbed through
  /// ExecContext::scheduler.
  static Scheduler* Default();

  size_t num_workers() const { return workers_.size(); }

  /// Counters for tests and EXPLAIN-style introspection. tasks_run /
  /// tasks_stolen / tasks_inline partition completed morsel tasks by who ran
  /// them: the worker that owned the deque, a sibling that stole it, or a
  /// waiter helping during TaskSet::Wait.
  struct Stats {
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> tasks_stolen{0};
    std::atomic<uint64_t> tasks_inline{0};
    std::atomic<uint64_t> pinned_started{0};
    std::atomic<uint64_t> pinned_reused{0};  ///< served by a parked thread
  };
  const Stats& stats() const { return stats_; }

  /// Pinned tasks currently executing (parked reservoir threads excluded).
  size_t pinned_active() const {
    return pinned_active_.load(std::memory_order_relaxed);
  }

  /// \brief Fork/join handle for a batch of morsel tasks.
  ///
  /// Submit enqueues onto the work-stealing deques; Wait blocks until every
  /// submitted task has finished, helping run queued tasks in the meantime.
  /// The destructor waits, so a TaskSet can never outlive its tasks.
  /// Tasks must not block indefinitely (use StartPinned for those) and must
  /// not throw.
  class TaskSet {
   public:
    explicit TaskSet(Scheduler* scheduler) : scheduler_(scheduler) {}
    ~TaskSet() { Wait(); }

    TaskSet(const TaskSet&) = delete;
    TaskSet& operator=(const TaskSet&) = delete;

    void Submit(std::function<void()> fn);
    void Wait();

   private:
    friend class Scheduler;
    Scheduler* scheduler_;
    std::mutex mu_;
    std::condition_variable cv_;
    size_t pending_ = 0;  ///< guarded by mu_
  };

  /// Run fn(i) for i in [begin, end) across the pool, chunked so task
  /// overhead amortizes; the calling thread participates. Serial when the
  /// range is small or the pool has one worker.
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn);

  /// \brief Handle to one pinned task; movable, join-once.
  class Pinned {
   public:
    Pinned() = default;
    /// Block until the task's function has returned. Idempotent; a
    /// default-constructed or moved-from handle joins trivially.
    void Join();
    bool joinable() const { return state_ != nullptr; }

   private:
    friend class Scheduler;
    struct State {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
    };
    std::shared_ptr<State> state_;
  };

  /// Run `fn` on a dedicated thread (cached reservoir; a parked thread is
  /// reused when one is available). For long-running pipeline work that may
  /// block — exchange producers, background services. The caller must Join
  /// every handle before the Scheduler is destroyed.
  Pinned StartPinned(std::function<void()> fn);

 private:
  struct Task {
    std::function<void()> fn;
    TaskSet* set = nullptr;
  };
  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;  ///< owner pops back, thieves pop front
  };
  struct PinnedJob {
    std::function<void()> fn;
    std::shared_ptr<Pinned::State> state;
  };

  void WorkerLoop(size_t self);
  bool TryPopOwn(size_t self, Task* out);
  bool TrySteal(size_t self, Task* out);  ///< self = SIZE_MAX for waiters
  void RunTask(Task t);
  void PinnedLoop(PinnedJob first);
  void RunPinnedJob(PinnedJob& job);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> worker_threads_;
  std::atomic<size_t> next_worker_{0};  ///< round-robin submit target
  std::atomic<size_t> queued_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool workers_stop_ = false;  ///< guarded by idle_mu_

  std::mutex pin_mu_;
  std::condition_variable pin_cv_;
  std::deque<PinnedJob> pin_queue_;  ///< jobs claimed by a parked thread
  size_t pin_idle_ = 0;              ///< parked threads not yet claimed
  bool pinned_stop_ = false;         ///< guarded by pin_mu_
  std::vector<std::thread> pin_threads_;
  std::atomic<size_t> pinned_active_{0};

  Stats stats_;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_SCHEDULER_H_
