#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace stratica {

Scheduler::Scheduler(size_t num_workers) {
  if (num_workers == 0) {
    num_workers = std::thread::hardware_concurrency();
    if (num_workers == 0) num_workers = 1;
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  worker_threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(idle_mu_);
    workers_stop_ = true;
  }
  idle_cv_.notify_all();
  for (auto& t : worker_threads_) t.join();
  // Any task still queued at shutdown is a caller bug (TaskSet::Wait always
  // drains first); run nothing, just drop.
  {
    std::lock_guard lock(pin_mu_);
    pinned_stop_ = true;
  }
  pin_cv_.notify_all();
  // Joins block until in-flight pinned functions return — callers are
  // required to Join their handles first, so this is normally instant.
  for (auto& t : pin_threads_) t.join();
}

Scheduler* Scheduler::Default() {
  // Leaked intentionally: the default pool must outlive static-destruction
  // order of anything that might still hold a handle.
  static Scheduler* s = [] {
    size_t n = 0;
    if (const char* env = std::getenv("STRATICA_WORKERS")) {
      n = static_cast<size_t>(std::atoll(env));
    }
    return new Scheduler(n);
  }();
  return s;
}

void Scheduler::TaskSet::Submit(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    ++pending_;
  }
  Scheduler* s = scheduler_;
  size_t target = s->next_worker_.fetch_add(1, std::memory_order_relaxed) %
                  s->workers_.size();
  {
    std::lock_guard lock(s->workers_[target]->mu);
    s->workers_[target]->deque.push_back(Task{std::move(fn), this});
  }
  s->queued_.fetch_add(1, std::memory_order_release);
  s->idle_cv_.notify_one();
}

void Scheduler::TaskSet::Wait() {
  Scheduler* s = scheduler_;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      if (pending_ == 0) return;
    }
    // Help: run any queued task (ours or not — all morsel tasks are
    // short-lived by contract), so Wait makes global progress even on a
    // one-worker pool or when every worker is stuck behind a long morsel.
    Task t;
    if (s->TrySteal(SIZE_MAX, &t)) {
      s->stats_.tasks_inline.fetch_add(1, std::memory_order_relaxed);
      s->RunTask(std::move(t));
      continue;
    }
    std::unique_lock lock(mu_);
    if (pending_ == 0) return;
    // Re-check for stealable work periodically: our remaining tasks may be
    // queued behind long tasks on every deque.
    cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void Scheduler::ParallelFor(size_t begin, size_t end,
                            const std::function<void(size_t)>& fn) {
  if (end <= begin) return;
  size_t n = end - begin;
  size_t width = workers_.size();
  if (width <= 1 || n == 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  size_t chunks = std::min(n, width * 4);
  size_t grain = (n + chunks - 1) / chunks;
  TaskSet ts(this);
  for (size_t lo = begin; lo < end; lo += grain) {
    size_t hi = std::min(end, lo + grain);
    ts.Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  ts.Wait();
}

bool Scheduler::TryPopOwn(size_t self, Task* out) {
  Worker& w = *workers_[self];
  std::lock_guard lock(w.mu);
  if (w.deque.empty()) return false;
  *out = std::move(w.deque.back());
  w.deque.pop_back();
  return true;
}

bool Scheduler::TrySteal(size_t self, Task* out) {
  size_t n = workers_.size();
  size_t start = (self == SIZE_MAX) ? 0 : (self + 1) % n;
  for (size_t k = 0; k < n; ++k) {
    size_t v = (start + k) % n;
    if (v == self) continue;
    Worker& w = *workers_[v];
    std::lock_guard lock(w.mu);
    if (w.deque.empty()) continue;
    *out = std::move(w.deque.front());
    w.deque.pop_front();
    return true;
  }
  return false;
}

void Scheduler::RunTask(Task t) {
  queued_.fetch_sub(1, std::memory_order_relaxed);
  t.fn();
  if (t.set != nullptr) {
    std::lock_guard lock(t.set->mu_);
    if (--t.set->pending_ == 0) t.set->cv_.notify_all();
  }
}

void Scheduler::WorkerLoop(size_t self) {
  for (;;) {
    Task t;
    if (TryPopOwn(self, &t)) {
      stats_.tasks_run.fetch_add(1, std::memory_order_relaxed);
      RunTask(std::move(t));
      continue;
    }
    if (TrySteal(self, &t)) {
      stats_.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
      RunTask(std::move(t));
      continue;
    }
    std::unique_lock lock(idle_mu_);
    if (workers_stop_) return;
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    idle_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void Scheduler::Pinned::Join() {
  std::shared_ptr<State> st = std::move(state_);
  if (st == nullptr) return;
  std::unique_lock lock(st->mu);
  st->cv.wait(lock, [&] { return st->done; });
}

Scheduler::Pinned Scheduler::StartPinned(std::function<void()> fn) {
  Pinned handle;
  handle.state_ = std::make_shared<Pinned::State>();
  PinnedJob job{std::move(fn), handle.state_};
  stats_.pinned_started.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(pin_mu_);
  if (pin_idle_ > 0) {
    // Reserve a parked thread: the decrement here pairs with the pop in
    // PinnedLoop, so two concurrent Starts can never claim the same thread.
    --pin_idle_;
    pin_queue_.push_back(std::move(job));
    stats_.pinned_reused.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    pin_cv_.notify_one();
    return handle;
  }
  pin_threads_.emplace_back(
      [this, j = std::move(job)]() mutable { PinnedLoop(std::move(j)); });
  return handle;
}

void Scheduler::RunPinnedJob(PinnedJob& job) {
  pinned_active_.fetch_add(1, std::memory_order_relaxed);
  job.fn();
  pinned_active_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(job.state->mu);
    job.state->done = true;
  }
  job.state->cv.notify_all();
}

void Scheduler::PinnedLoop(PinnedJob first) {
  RunPinnedJob(first);
  first = PinnedJob{};  // release the closure before parking
  for (;;) {
    PinnedJob job;
    {
      std::unique_lock lock(pin_mu_);
      ++pin_idle_;
      pin_cv_.wait(lock, [&] { return pinned_stop_ || !pin_queue_.empty(); });
      if (!pin_queue_.empty()) {
        // pin_idle_ was already decremented by the submitter that queued
        // this job on our behalf.
        job = std::move(pin_queue_.front());
        pin_queue_.pop_front();
      } else {
        return;  // stop: idle count no longer matters
      }
    }
    RunPinnedJob(job);
  }
}

}  // namespace stratica
