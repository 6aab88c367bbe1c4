#include "common/scheduler.h"

#include <algorithm>
#include <chrono>

namespace minihive {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One RunParallel call: a counted batch of indexed tasks. Lives on the
/// submitting thread's stack for the duration of the call.
struct TaskScheduler::Batch {
  const std::function<Status(int)>* fn = nullptr;
  int count = 0;
  int next = 0;  // next unclaimed index
  int done = 0;  // completed indices
  Status first_error;
  uint64_t enqueue_nanos = 0;
  Queue* queue = nullptr;
};

/// Per-query queue of outstanding batches plus fair-share bookkeeping.
class TaskScheduler::Queue {
 public:
  Queue(int priority, uint64_t seq) : priority_(priority), seq_(seq) {}

 private:
  friend class TaskScheduler;

  int priority_;
  uint64_t seq_;  // registration order, round-robin tiebreak
  std::deque<Batch*> batches_;
  int running_ = 0;  // tasks of this queue currently executing
  QueueStats stats_;
};

TaskScheduler::TaskScheduler(const SchedulerOptions& options) {
  int n = std::max(0, options.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

TaskScheduler::Queue* TaskScheduler::RegisterQueue(int priority) {
  std::lock_guard<std::mutex> lock(mu_);
  queues_.push_back(std::make_unique<Queue>(priority, next_queue_seq_++));
  return queues_.back().get();
}

void TaskScheduler::UnregisterQueue(Queue* queue) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return queue->batches_.empty() && queue->running_ == 0;
  });
  queues_.erase(std::find_if(queues_.begin(), queues_.end(),
                             [&](const std::unique_ptr<Queue>& q) {
                               return q.get() == queue;
                             }));
}

TaskScheduler::Batch* TaskScheduler::PickBatchLocked() {
  Queue* best = nullptr;
  for (const std::unique_ptr<Queue>& q : queues_) {
    if (q->batches_.empty()) continue;
    if (best == nullptr ||
        std::tie(q->priority_, q->running_, q->seq_) <
            std::tie(best->priority_, best->running_, best->seq_)) {
      best = q.get();
    }
  }
  return best == nullptr ? nullptr : best->batches_.front();
}

void TaskScheduler::RunOneLocked(std::unique_lock<std::mutex>& lock,
                                 Batch* batch) {
  int index = batch->next++;
  Queue* queue = batch->queue;
  queue->running_++;
  queue->stats_.tasks_run++;
  queue->stats_.queue_wait_nanos += NowNanos() - batch->enqueue_nanos;
  if (batch->next >= batch->count) {
    // Fully claimed: no further worker should pick this batch up.
    queue->batches_.erase(std::find(queue->batches_.begin(),
                                    queue->batches_.end(), batch));
  }
  lock.unlock();
  Status status = (*batch->fn)(index);
  lock.lock();
  queue->running_--;
  if (!status.ok() && batch->first_error.ok()) {
    batch->first_error = status;
  }
  batch->done++;
  if (batch->done >= batch->count || queue->running_ == 0) {
    done_cv_.notify_all();
  }
}

void TaskScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Batch* batch = PickBatchLocked();
    if (batch == nullptr) {
      if (shutdown_) return;
      work_cv_.wait(lock);
      continue;
    }
    // Claim exactly one index, then re-pick: fair interleave across queues.
    RunOneLocked(lock, batch);
  }
}

Status TaskScheduler::RunParallel(Queue* queue, int count,
                                  const std::function<Status(int)>& fn) {
  if (count <= 0) return Status::OK();
  Batch batch;
  batch.fn = &fn;
  batch.count = count;
  batch.queue = queue;
  batch.enqueue_nanos = NowNanos();
  std::unique_lock<std::mutex> lock(mu_);
  queue->batches_.push_back(&batch);
  if (count > 1) work_cv_.notify_all();
  // Work handoff: the submitting thread claims from its own batch while it
  // still has unclaimed indices, then waits for stragglers run by workers.
  while (batch.next < batch.count) {
    RunOneLocked(lock, &batch);
  }
  done_cv_.wait(lock, [&] { return batch.done >= batch.count; });
  return batch.first_error;
}

TaskScheduler::QueueStats TaskScheduler::GetQueueStats(
    const Queue* queue) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue->stats_;
}

}  // namespace minihive
