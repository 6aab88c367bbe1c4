#include "common/session.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"

namespace minihive {
namespace {

SessionManagerOptions SmallOptions() {
  SessionManagerOptions options;
  options.num_workers = 2;
  // 256 bytes of metadata cache + room for exactly two 256-byte query
  // slices.
  options.global_memory_budget_bytes = 768;
  options.per_query_memory_budget_bytes = 256;
  options.metadata_cache_bytes = 256;
  options.max_queued_queries = 4;
  options.admission_queue_timeout_millis = 200;
  return options;
}

TEST(MemoryBudgetTest, ChildCommitsItsSliceAgainstTheParent) {
  MemoryBudget root("root", 1000);
  auto child = MemoryBudget::CreateChild(&root, "child", 600);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(root.used(), 600u);
  // The remaining room cannot fit another 600-byte slice.
  auto second = MemoryBudget::CreateChild(&root, "second", 600);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted());
  child = Status::Internal("drop");  // destroys the child
  EXPECT_EQ(root.used(), 0u);
  EXPECT_EQ(root.peak_used(), 600u);
}

TEST(MemoryBudgetTest, ReservationsWithinAChildAreIndependentOfTheParent) {
  MemoryBudget root("root", 1000);
  auto child = MemoryBudget::CreateChild(&root, "child", 400);
  ASSERT_TRUE(child.ok());
  MemoryBudget* c = child->get();
  EXPECT_TRUE(c->TryReserve(300).ok());
  EXPECT_EQ(c->used(), 300u);
  // The child's internal usage never changes the parent's accounting: the
  // whole slice was committed up front.
  EXPECT_EQ(root.used(), 400u);
  Status s = c->TryReserve(200);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(c->used(), 300u);  // all-or-nothing
  c->Release(300);
  EXPECT_EQ(c->used(), 0u);
}

TEST(MemoryBudgetTest, BudgetReservationReleasesOnDestruction) {
  MemoryBudget root("root", 1 << 20);
  {
    BudgetReservation r;
    ASSERT_TRUE(r.CoverAtLeast(&root, 1000, /*chunk_bytes=*/4096).ok());
    EXPECT_GE(r.bytes(), 1000u);
    EXPECT_EQ(root.used(), r.bytes());
    // Growth within the chunk is free; crossing it reserves another chunk.
    ASSERT_TRUE(r.CoverAtLeast(&root, 2000, /*chunk_bytes=*/4096).ok());
    EXPECT_EQ(r.bytes(), 4096u);
  }
  EXPECT_EQ(root.used(), 0u);
}

TEST(MemoryBudgetTest, CoverAtLeastNeverRoundsPastTheLimit) {
  // The default 256 KiB chunk is larger than this whole budget: a cover
  // that fits must still succeed, so the limit is the exact cap.
  MemoryBudget budget("query", 100 * 1024);
  BudgetReservation r;
  Status fits = r.CoverAtLeast(&budget, 90 * 1024);
  ASSERT_TRUE(fits.ok()) << fits.ToString();
  EXPECT_GE(r.bytes(), 90u * 1024);
  EXPECT_LE(budget.used(), budget.limit());
  // Growth up to the limit is then free; one byte past it is refused and
  // charges nothing more.
  EXPECT_TRUE(r.CoverAtLeast(&budget, 100 * 1024).ok());
  Status over = r.CoverAtLeast(&budget, 100 * 1024 + 1);
  EXPECT_TRUE(over.IsResourceExhausted()) << over.ToString();
  EXPECT_EQ(budget.used(), r.bytes());
  EXPECT_EQ(budget.used(), 100u * 1024);
}

TEST(SessionManagerTest, CachesChildCommitsExactlyTheMetadataCacheBudget) {
  SessionManager manager(SmallOptions());
  // Before any query: the root holds only the "caches" child, sized to the
  // one cache the manager owns.
  EXPECT_EQ(manager.root_budget()->used(), 256u);
  ASSERT_NE(manager.cache_manager()->metadata_cache(), nullptr);
  EXPECT_EQ(manager.cache_manager()->metadata_cache()->capacity(), 256u);
}

TEST(SessionManagerTest, AdmitsWithinTheGlobalBudget) {
  SessionManager manager(SmallOptions());
  auto a = manager.Admit("q1");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ((*a)->admitted_bytes(), 256u);
  EXPECT_EQ((*a)->queue_wait_millis(), 0);
  // The query's slice and the cache commitment both show under the root.
  EXPECT_EQ(manager.root_budget()->used(), 256u + 256u);
}

TEST(SessionManagerTest, RejectsRequestsAboveThePerQueryCap) {
  SessionManager manager(SmallOptions());
  auto a = manager.Admit("greedy", nullptr, /*requested_bytes=*/512);
  ASSERT_FALSE(a.ok());
  EXPECT_TRUE(a.status().IsResourceExhausted()) << a.status().ToString();
}

TEST(SessionManagerTest, QueuedQueryAdmitsOnceBudgetFrees) {
  SessionManagerOptions options = SmallOptions();
  options.admission_queue_timeout_millis = 5000;
  SessionManager manager(options);
  auto a = manager.Admit("a");
  auto b = manager.Admit("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::atomic<bool> c_admitted{false};
  std::thread waiter([&] {
    auto c = manager.Admit("c");
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_GT((*c)->queue_wait_millis(), 0);
    c_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(c_admitted.load());
  a = Status::Internal("drop");  // finish query a, freeing its slice
  waiter.join();
  EXPECT_TRUE(c_admitted.load());
}

TEST(SessionManagerTest, QueueTimeoutIsTypedResourceExhausted) {
  SessionManagerOptions options = SmallOptions();
  options.admission_queue_timeout_millis = 50;
  SessionManager manager(options);
  auto a = manager.Admit("a");
  auto b = manager.Admit("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = manager.Admit("c");  // no room, times out in the queue
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted()) << c.status().ToString();
}

TEST(SessionManagerTest, QueueOverflowRejectsImmediately) {
  SessionManagerOptions options = SmallOptions();
  options.max_queued_queries = 0;  // queueing disabled
  SessionManager manager(options);
  auto a = manager.Admit("a");
  auto b = manager.Admit("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = manager.Admit("c");
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted()) << c.status().ToString();
}

TEST(SessionManagerTest, CancelledQueryStopsWaitingWithItsOwnStatus) {
  SessionManagerOptions options = SmallOptions();
  options.admission_queue_timeout_millis = 5000;
  SessionManager manager(options);
  auto a = manager.Admit("a");
  auto b = manager.Admit("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  QueryContext ctx;
  auto token = std::make_shared<CancellationToken>();
  ctx.set_token(token);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->Cancel();
  });
  auto c = manager.Admit("c", &ctx);
  canceller.join();
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsCancelled()) << c.status().ToString();
}

TEST(SessionManagerTest, ConcurrentAdmissionNeverOvercommits) {
  SessionManagerOptions options = SmallOptions();
  options.admission_queue_timeout_millis = 2000;
  options.max_queued_queries = 64;
  SessionManager manager(options);
  constexpr int kThreads = 16;
  std::atomic<int> admitted{0};
  std::atomic<uint64_t> max_used{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        auto a = manager.Admit(std::string("t").append(std::to_string(t)));
        if (!a.ok()) {
          ASSERT_TRUE(a.status().IsResourceExhausted())
              << a.status().ToString();
          continue;
        }
        admitted.fetch_add(1);
        uint64_t used = manager.root_budget()->used();
        uint64_t prev = max_used.load();
        while (used > prev && !max_used.compare_exchange_weak(prev, used)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(admitted.load(), 0);
  // The commitment invariant: at no observed instant did the root exceed
  // its limit, and everything was released at the end.
  EXPECT_LE(max_used.load(), manager.root_budget()->limit());
  EXPECT_EQ(manager.root_budget()->used(), 256u);  // caches only
}

}  // namespace
}  // namespace minihive
