// Admission-control semantics: reservation clamping, the never-over-reserve
// invariant, FIFO ordering, concurrency slots, timeouts, and a multi-thread
// stress pass.
#include "exec/resource_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace stratica {
namespace {

constexpr size_t kMB = 1ull << 20;

ResourceManagerConfig Cfg(size_t pool, size_t slots = 0,
                          int timeout_ms = 10000) {
  ResourceManagerConfig cfg;
  cfg.memory_pool_bytes = pool;
  cfg.max_concurrent_queries = slots;
  cfg.min_query_reserve_bytes = 1 * kMB;
  cfg.admission_timeout = std::chrono::milliseconds(timeout_ms);
  return cfg;
}

// Polls the `waiting` gauge until `n` admissions are queued. Gives up after
// 10 s and leaves the caller's assertions to report what went wrong.
void WaitForWaiters(const ResourceManager& rm, uint64_t n) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rm.stats().waiting < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ResourceManagerTest, ReservationClampedToFloorAndPool) {
  ResourceManager rm(Cfg(8 * kMB));
  {
    auto tiny = rm.Admit(0);
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(tiny.value().bytes(), 1 * kMB);  // floor
  }
  auto huge = rm.Admit(100 * kMB);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge.value().bytes(), 8 * kMB);  // ceiling: the whole pool
}

TEST(ResourceManagerTest, OverPoolRequestWaitsForExclusiveUse) {
  ResourceManager rm(Cfg(8 * kMB, 0, 200));
  auto small = rm.Admit(2 * kMB);
  ASSERT_TRUE(small.ok());
  // 100 MB clamps to the whole pool; with 2 MB reserved it must queue, and
  // with a short timeout it fails rather than over-reserving.
  auto huge = rm.Admit(100 * kMB);
  EXPECT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  small.value().Release();
  auto retry = rm.Admit(100 * kMB);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().bytes(), 8 * kMB);
}

TEST(ResourceManagerTest, TicketReleasesOnDestruction) {
  ResourceManager rm(Cfg(4 * kMB));
  {
    auto t = rm.Admit(4 * kMB);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(rm.stats().reserved_bytes, 4 * kMB);
    EXPECT_EQ(rm.stats().active_queries, 1u);
  }
  EXPECT_EQ(rm.stats().reserved_bytes, 0u);
  EXPECT_EQ(rm.stats().active_queries, 0u);
}

TEST(ResourceManagerTest, QueueTimesOutWithResourceExhausted) {
  ResourceManager rm(Cfg(2 * kMB, 0, 50));
  auto holder = rm.Admit(2 * kMB);
  ASSERT_TRUE(holder.ok());
  auto blocked = rm.Admit(1 * kMB);
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rm.stats().timeouts, 1u);
  EXPECT_EQ(rm.stats().admitted, 1u);
}

TEST(ResourceManagerTest, FifoOrderIsStrict) {
  ResourceManager rm(Cfg(10 * kMB));
  auto holder = rm.Admit(9 * kMB);
  ASSERT_TRUE(holder.ok());

  std::atomic<int> order{0};
  int big_rank = -1, small_rank = -1;
  std::thread big([&] {
    // Does not fit until holder releases. It takes the whole pool, so
    // `small` cannot be admitted before `big` has recorded its rank and
    // dropped its ticket; with room for both the ranks would race.
    auto t = rm.Admit(10 * kMB);
    ASSERT_TRUE(t.ok());
    big_rank = order.fetch_add(1);
  });
  WaitForWaiters(rm, 1);  // `big` is at the head of the queue
  std::thread small([&] {
    auto t = rm.Admit(1 * kMB);  // would fit right now, but arrived later
    ASSERT_TRUE(t.ok());
    small_rank = order.fetch_add(1);
  });
  WaitForWaiters(rm, 2);  // `small` has been refused once and queued
  // Strict FIFO: the small request must still be queued behind big.
  EXPECT_EQ(order.load(), 0);
  holder.value().Release();
  big.join();
  small.join();
  EXPECT_LT(big_rank, small_rank);
}

TEST(ResourceManagerTest, ConcurrencySlotsCapActiveQueries) {
  ResourceManager rm(Cfg(100 * kMB, 2));
  auto a = rm.Admit(1 * kMB);
  auto b = rm.Admit(1 * kMB);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::atomic<bool> c_admitted{false};
  std::thread c([&] {
    auto t = rm.Admit(1 * kMB);
    ASSERT_TRUE(t.ok());
    c_admitted = true;
  });
  WaitForWaiters(rm, 1);
  EXPECT_FALSE(c_admitted.load()) << "third query admitted past the slot cap";
  a.value().Release();
  c.join();
  EXPECT_TRUE(c_admitted.load());
  EXPECT_LE(rm.stats().peak_active_queries, 2u);
}

TEST(ResourceManagerTest, StressNeverOverReserves) {
  constexpr size_t kPool = 16 * kMB;
  ResourceManager rm(Cfg(kPool));
  std::vector<std::thread> threads;
  std::atomic<uint64_t> done{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        size_t want = ((t + i) % 7 + 1) * kMB;
        auto ticket = rm.Admit(want);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        done.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), 400u);
  auto s = rm.stats();
  EXPECT_EQ(s.admitted, 400u);
  EXPECT_EQ(s.reserved_bytes, 0u);
  EXPECT_EQ(s.active_queries, 0u);
  EXPECT_LE(s.peak_reserved_bytes, kPool);
}

}  // namespace
}  // namespace stratica
