#include "common/session.h"

#include <algorithm>
#include <chrono>

namespace minihive {

QueryAdmission::~QueryAdmission() {
  budget_.reset();  // releases the committed slice back to the root
  manager_->OnQueryFinished();
}

SessionManager::SessionManager(const SessionManagerOptions& options)
    : options_(options) {
  root_budget_ = std::make_unique<MemoryBudget>(
      "server", options_.global_memory_budget_bytes);
  // The shared cache commits its full budget against the root for the
  // manager's lifetime, so admission maths always accounts for the cache's
  // worst case. If the global budget is configured smaller than the cache
  // (a misconfiguration), the cache runs uncharged rather than failing.
  auto cache_child = MemoryBudget::CreateChild(
      root_budget_.get(), "caches", options_.metadata_cache_bytes);
  if (cache_child.ok()) {
    cache_budget_ = std::move(cache_child).ValueOrDie();
  } else {
    cache_budget_ =
        std::make_unique<MemoryBudget>("caches", options_.metadata_cache_bytes);
  }
  cache_manager_ =
      std::make_shared<cache::CacheManager>(options_.metadata_cache_bytes);
  SchedulerOptions sched;
  sched.num_workers = options_.num_workers;
  scheduler_ = std::make_unique<TaskScheduler>(sched);
  if (options_.workers.num_workers > 0) {
    worker_manager_ = std::make_unique<WorkerManager>(options_.workers);
  }
}

SessionManager::~SessionManager() = default;

Result<std::unique_ptr<QueryAdmission>> SessionManager::Admit(
    const std::string& query_name, const QueryContext* ctx,
    uint64_t requested_bytes) {
  uint64_t bytes = requested_bytes == 0
                       ? options_.per_query_memory_budget_bytes
                       : requested_bytes;
  if (options_.per_query_memory_budget_bytes > 0 &&
      bytes > options_.per_query_memory_budget_bytes) {
    return Status::ResourceExhausted(
        "query '" + query_name + "' requested " + std::to_string(bytes) +
        " bytes, above the per-query budget of " +
        std::to_string(options_.per_query_memory_budget_bytes));
  }
  // A request that could never fit must not queue forever.
  if (root_budget_->limit() > 0 &&
      bytes + cache_budget_->limit() > root_budget_->limit()) {
    return Status::ResourceExhausted(
        "query '" + query_name + "' requested " + std::to_string(bytes) +
        " bytes, which can never fit under the global budget of " +
        std::to_string(root_budget_->limit()) + " bytes");
  }

  std::unique_lock<std::mutex> lock(admit_mu_);
  // Fast path: no one queued ahead of us and the budget has room.
  if (queued_ == 0) {
    auto slice = MemoryBudget::CreateChild(root_budget_.get(),
                                           "query:" + query_name, bytes);
    if (slice.ok()) {
      return std::unique_ptr<QueryAdmission>(
          new QueryAdmission(this, std::move(slice).ValueOrDie(), 0));
    }
  }
  if (options_.max_queued_queries <= 0 ||
      queued_ >= options_.max_queued_queries) {
    return Status::ResourceExhausted(
        "global memory budget committed and admission queue is " +
        std::string(options_.max_queued_queries <= 0 ? "disabled"
                                                     : "full") +
        " (query '" + query_name + "')");
  }

  uint64_t my_seq = admit_seq_++;
  wait_queue_.push_back(my_seq);
  queued_++;
  auto start = std::chrono::steady_clock::now();
  auto elapsed_millis = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  Status result = Status::OK();
  std::unique_ptr<MemoryBudget> slice_out;
  while (true) {
    // Only the head of the FIFO may claim budget — no barging.
    if (!wait_queue_.empty() && wait_queue_.front() == my_seq) {
      auto slice = MemoryBudget::CreateChild(root_budget_.get(),
                                             "query:" + query_name, bytes);
      if (slice.ok()) {
        slice_out = std::move(slice).ValueOrDie();
        break;
      }
    }
    if (ctx != nullptr) {
      Status alive = ctx->CheckAlive();
      if (!alive.ok()) {
        result = alive;
        break;
      }
    }
    if (options_.admission_queue_timeout_millis > 0 &&
        elapsed_millis() >= options_.admission_queue_timeout_millis) {
      result = Status::ResourceExhausted(
          "query '" + query_name + "' timed out after " +
          std::to_string(elapsed_millis()) +
          " ms waiting for the global memory budget");
      break;
    }
    // Short ticks so cancellation/deadline of a queued query is observed
    // promptly even when no budget is released.
    admit_cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  queued_--;
  // Leave the queue whether admitted or not; a departing head lets the
  // next waiter up, a departing middle waiter leaves no gap to stall on.
  wait_queue_.erase(
      std::find(wait_queue_.begin(), wait_queue_.end(), my_seq));
  admit_cv_.notify_all();
  if (!result.ok()) return result;
  return std::unique_ptr<QueryAdmission>(
      new QueryAdmission(this, std::move(slice_out), elapsed_millis()));
}

void SessionManager::OnQueryFinished() {
  std::lock_guard<std::mutex> lock(admit_mu_);
  admit_cv_.notify_all();
}

}  // namespace minihive
