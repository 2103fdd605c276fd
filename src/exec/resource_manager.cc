#include "exec/resource_manager.h"

#include <algorithm>

namespace stratica {

AdmissionTicket& AdmissionTicket::operator=(AdmissionTicket&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    bytes_ = other.bytes_;
    other.manager_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void AdmissionTicket::Release() {
  if (manager_ != nullptr) {
    manager_->Release(bytes_);
    manager_ = nullptr;
    bytes_ = 0;
  }
}

Result<AdmissionTicket> ResourceManager::Admit(size_t requested_bytes) {
  // Floor first, then cap at the pool, so any single query can eventually
  // run: a plan estimated above the whole pool waits for exclusive use of
  // it rather than never fitting. (Not std::clamp — a pool configured
  // below the floor must win, and clamp(lo > hi) is UB.)
  size_t bytes = std::min(std::max(requested_bytes, cfg_.min_query_reserve_bytes),
                          cfg_.memory_pool_bytes);

  std::unique_lock lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + cfg_.admission_timeout;
  uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);

  auto admissible = [&] {
    // Strict FIFO: only the head of the queue may be admitted, so a large
    // reservation is never starved by smaller queries arriving behind it.
    if (queue_.front() != ticket) return false;
    if (cfg_.max_concurrent_queries != 0 && active_ >= cfg_.max_concurrent_queries)
      return false;
    return reserved_ + bytes <= cfg_.memory_pool_bytes;
  };

  bool waited = false;
  while (!admissible()) {
    waited = true;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout && !admissible()) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), ticket));
      ++stats_.timeouts;
      // The head may have been blocked purely on our queue position.
      cv_.notify_all();
      return Status::ResourceExhausted(
          "admission timeout: ", bytes, " bytes requested, ", reserved_,
          " of ", cfg_.memory_pool_bytes, " reserved by ", active_, " queries");
    }
  }
  queue_.pop_front();
  reserved_ += bytes;
  ++active_;
  ++stats_.admitted;
  if (waited) ++stats_.queued;
  stats_.peak_reserved_bytes = std::max<uint64_t>(stats_.peak_reserved_bytes, reserved_);
  stats_.peak_active_queries = std::max<uint64_t>(stats_.peak_active_queries, active_);
  // The next waiter may also fit (e.g. a slot-capped pool with room left).
  cv_.notify_all();
  return AdmissionTicket(this, bytes);
}

size_t ResourceManager::AllowedFanout(size_t granted_bytes, size_t requested_bytes,
                                      size_t requested_fanout) {
  if (requested_fanout <= 1) return 1;
  if (granted_bytes >= requested_bytes || requested_bytes == 0)
    return requested_fanout;
  // Proportional scale-down: the grant buys granted/requested of the plan's
  // per-fragment memory, so run that fraction of the fragments.
  size_t allowed = (granted_bytes * requested_fanout) / requested_bytes;
  return std::max<size_t>(allowed, 1);
}

void ResourceManager::Release(size_t bytes) {
  {
    std::lock_guard lock(mu_);
    reserved_ -= bytes;
    --active_;
  }
  cv_.notify_all();
}

ResourceManagerStats ResourceManager::stats() const {
  std::lock_guard lock(mu_);
  ResourceManagerStats s = stats_;
  s.reserved_bytes = reserved_;
  s.active_queries = active_;
  s.waiting = queue_.size();
  return s;
}

}  // namespace stratica
