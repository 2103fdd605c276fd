// Query admission control (Section 6.1: "a production database must ensure
// users queries are always answered").
//
// Vertica pairs lock-free epoch snapshot reads with a resource manager that
// admits queries against a shared memory pool. Stratica's ResourceManager
// does the same for concurrent Database::Execute callers: every query
// arrives with a memory reservation estimated from its physical plan, and
// is admitted only when (a) the reservation fits in the pool and (b) a
// concurrency slot is free. Queries that do not fit wait in FIFO order —
// strict arrival order, so a large query cannot starve behind a stream of
// small ones — and fail with ResourceExhausted when the admission timeout
// elapses. Reservations are released by an RAII ticket when the query
// finishes, successfully or not.
#ifndef STRATICA_EXEC_RESOURCE_MANAGER_H_
#define STRATICA_EXEC_RESOURCE_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/status.h"

namespace stratica {

struct ResourceManagerConfig {
  /// Total bytes the pool may hand out at once (DatabaseOptions::
  /// query_memory_budget). The sum of live reservations never exceeds it.
  size_t memory_pool_bytes = 256ull << 20;
  /// Maximum queries running simultaneously; 0 = bounded by memory only.
  size_t max_concurrent_queries = 0;
  /// Floor for tiny plan estimates, so every query pays a nonzero share.
  size_t min_query_reserve_bytes = 1ull << 20;
  /// How long Admit waits in the queue before failing the query.
  std::chrono::milliseconds admission_timeout{10000};
};

/// Point-in-time counters (all monotone except the gauges).
struct ResourceManagerStats {
  uint64_t admitted = 0;        ///< queries granted a reservation
  uint64_t queued = 0;          ///< admissions that had to wait at least once
  uint64_t timeouts = 0;        ///< admissions that failed on timeout
  uint64_t reserved_bytes = 0;  ///< gauge: bytes currently reserved
  uint64_t active_queries = 0;  ///< gauge: tickets currently live
  uint64_t waiting = 0;         ///< gauge: admissions queued right now
  uint64_t peak_reserved_bytes = 0;
  uint64_t peak_active_queries = 0;
};

class ResourceManager;

/// \brief RAII grant of (memory reservation, concurrency slot). Movable;
/// releases on destruction.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionTicket&& other) noexcept { *this = std::move(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept;
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { Release(); }

  /// Bytes actually reserved (the clamped request).
  size_t bytes() const { return bytes_; }
  bool valid() const { return manager_ != nullptr; }
  void Release();

 private:
  friend class ResourceManager;
  AdmissionTicket(ResourceManager* manager, size_t bytes)
      : manager_(manager), bytes_(bytes) {}

  ResourceManager* manager_ = nullptr;
  size_t bytes_ = 0;
};

/// \brief FIFO admission controller over a byte pool + concurrency slots.
/// Thread-safe; one instance per Database.
class ResourceManager {
 public:
  explicit ResourceManager(ResourceManagerConfig cfg) : cfg_(cfg) {}

  /// Block until `requested_bytes` (clamped to [min_query_reserve_bytes,
  /// memory_pool_bytes]) fits and a slot is free, in strict arrival order.
  /// Fails with ResourceExhausted after cfg.admission_timeout.
  Result<AdmissionTicket> Admit(size_t requested_bytes);

  /// Map an admission grant to intra-query worker fan-out (DESIGN.md §12):
  /// the reservation is the single budget that covers a query's parallelism,
  /// so when the pool clamped the request below what the plan assumed, the
  /// fan-out scales down proportionally (keeping per-fragment memory as
  /// planned) instead of running `requested_fanout` fragments on a smaller
  /// budget. Never returns less than 1.
  static size_t AllowedFanout(size_t granted_bytes, size_t requested_bytes,
                              size_t requested_fanout);

  ResourceManagerStats stats() const;
  const ResourceManagerConfig& config() const { return cfg_; }

 private:
  friend class AdmissionTicket;
  void Release(size_t bytes);

  ResourceManagerConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint64_t> queue_;  ///< waiting ticket ids, arrival order
  uint64_t next_ticket_ = 0;
  size_t reserved_ = 0;
  size_t active_ = 0;
  ResourceManagerStats stats_;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_RESOURCE_MANAGER_H_
