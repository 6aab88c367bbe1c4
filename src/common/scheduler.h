#ifndef MINIHIVE_COMMON_SCHEDULER_H_
#define MINIHIVE_COMMON_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace minihive {

/// Priority tiers for scheduler queues. Lower value = served first.
inline constexpr int kPriorityHigh = 0;
inline constexpr int kPriorityNormal = 1;
inline constexpr int kPriorityLow = 2;

struct SchedulerOptions {
  /// Size of the shared worker pool. 0 is allowed: callers always
  /// participate in their own batches (work handoff), so progress is
  /// guaranteed even without dedicated workers.
  int num_workers = 4;
};

/// A fixed worker pool shared by every concurrently running query.
/// `mr::Engine` runs all of its map/reduce fan-outs here and spawns no
/// threads of its own, so N concurrent queries on one SessionManager share
/// one pool instead of multiplying threads (a Driver without a session
/// runs on its own manager's pool).
///
/// Scheduling model:
///  - Each query registers a Queue (with a priority tier). A queue holds the
///    query's outstanding batches of indexed tasks.
///  - Workers repeatedly pick the eligible queue with the lowest
///    (priority, running tasks, arrival order) triple — a fair-share
///    interleave: a queue that already has many tasks in flight yields to
///    one that has few, within the same priority tier.
///  - A worker claims ONE task index at a time and re-picks the queue
///    afterwards, so long batches from one query cannot starve another.
///  - RunParallel's caller also claims tasks from its own batch (work
///    handoff): the submitting thread is never idle while its batch runs,
///    and a 0-worker scheduler still completes every batch.
///
/// Error semantics match the engine's historical RunParallel: every task of
/// a batch runs to completion even after a failure, and the first error (by
/// completion order) is returned.
class TaskScheduler {
 public:
  class Queue;

  /// Cumulative per-queue statistics, readable while the queue is live.
  struct QueueStats {
    uint64_t tasks_run = 0;
    uint64_t queue_wait_nanos = 0;
  };

  explicit TaskScheduler(const SchedulerOptions& options);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Registers a per-query queue. The returned handle stays valid until
  /// UnregisterQueue. `name` labels telemetry; `priority` is one of the
  /// kPriority* tiers.
  Queue* RegisterQueue(const std::string& name, int priority = kPriorityNormal);

  /// Removes a queue, blocking until all of its in-flight tasks finish.
  /// Safe to call with outstanding batches only from the thread that owns
  /// the queue (RunParallel has returned for all of them).
  void UnregisterQueue(Queue* queue);

  /// Runs `fn(0..count-1)` across the worker pool, returning once every
  /// index has completed. The calling thread participates. Returns the
  /// first error, or OK. `fn` must be safe to call concurrently.
  Status RunParallel(Queue* queue, int count,
                     const std::function<Status(int)>& fn);

  QueueStats GetQueueStats(const Queue* queue) const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Batch;

  void WorkerLoop();
  /// Picks the next (queue, batch) to serve; returns nullptr when no queue
  /// has pending work. Caller must hold mu_.
  Batch* PickBatchLocked();
  /// Claims and runs one task from `batch`. Returns with mu_ held again.
  void RunOneLocked(std::unique_lock<std::mutex>& lock, Batch* batch);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new work available
  std::condition_variable done_cv_;  // waiters: batch/queue drained
  std::vector<std::unique_ptr<Queue>> queues_;
  uint64_t next_queue_seq_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_SCHEDULER_H_
