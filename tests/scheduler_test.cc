#include "common/scheduler.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace minihive {
namespace {

TEST(SchedulerTest, RunsEveryTaskExactlyOnce) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 4});
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  std::vector<std::atomic<int>> ran(100);
  Status s = scheduler.RunParallel(queue, 100, [&](int i) {
    ran[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  scheduler.UnregisterQueue(queue);
}

TEST(SchedulerTest, ReturnsFirstErrorAndStillRunsAllTasks) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 2});
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  std::atomic<int> ran{0};
  Status s = scheduler.RunParallel(queue, 50, [&](int i) -> Status {
    ran.fetch_add(1);
    if (i % 7 == 3) return Status::Internal("task " + std::to_string(i));
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
  // Error semantics match the engine's historical RunParallel: a failure
  // does not cancel the rest of the batch (retries happen per task).
  EXPECT_EQ(ran.load(), 50);
  scheduler.UnregisterQueue(queue);
}

TEST(SchedulerTest, ZeroWorkersStillCompletesViaCallerHandoff) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 0});
  ASSERT_EQ(scheduler.num_workers(), 0);
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  std::atomic<int> ran{0};
  Status s = scheduler.RunParallel(queue, 25, [&](int) {
    ran.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ran.load(), 25);
  scheduler.UnregisterQueue(queue);
}

TEST(SchedulerTest, EmptyBatchIsANoOp) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 2});
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  EXPECT_TRUE(scheduler.RunParallel(queue, 0, [](int) {
    return Status::Internal("must not run");
  }).ok());
  scheduler.UnregisterQueue(queue);
}

TEST(SchedulerTest, ConcurrentBatchesFromManyQueuesAllComplete) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 4});
  constexpr int kClients = 8;
  constexpr int kBatches = 10;
  constexpr int kTasks = 16;
  std::vector<std::atomic<int>> done(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TaskScheduler::Queue* queue = scheduler.RegisterQueue(
          c % 2 == 0 ? kPriorityNormal : kPriorityLow);
      for (int b = 0; b < kBatches; ++b) {
        Status s = scheduler.RunParallel(queue, kTasks, [&](int) {
          done[c].fetch_add(1);
          return Status::OK();
        });
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      scheduler.UnregisterQueue(queue);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(done[c].load(), kBatches * kTasks) << "client " << c;
  }
}

TEST(SchedulerTest, QueueStatsCountTasksAndWait) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 2});
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  ASSERT_TRUE(scheduler.RunParallel(queue, 32, [](int) {
    return Status::OK();
  }).ok());
  TaskScheduler::QueueStats stats = scheduler.GetQueueStats(queue);
  EXPECT_EQ(stats.tasks_run, 32u);
  scheduler.UnregisterQueue(queue);
}

TEST(SchedulerTest, ErrorsFromConcurrentQueuesStayIsolated) {
  TaskScheduler scheduler(SchedulerOptions{.num_workers = 3});
  TaskScheduler::Queue* good = scheduler.RegisterQueue();
  TaskScheduler::Queue* bad = scheduler.RegisterQueue();
  Status good_status, bad_status;
  std::thread good_client([&] {
    good_status = scheduler.RunParallel(good, 64, [](int) {
      return Status::OK();
    });
  });
  std::thread bad_client([&] {
    bad_status = scheduler.RunParallel(bad, 64, [](int i) -> Status {
      return i == 10 ? Status::Internal("boom") : Status::OK();
    });
  });
  good_client.join();
  bad_client.join();
  EXPECT_TRUE(good_status.ok()) << good_status.ToString();
  EXPECT_TRUE(bad_status.IsInternal()) << bad_status.ToString();
  scheduler.UnregisterQueue(good);
  scheduler.UnregisterQueue(bad);
}

}  // namespace
}  // namespace minihive
