#ifndef MINIHIVE_COMMON_QUERY_CONTEXT_H_
#define MINIHIVE_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace minihive {

class MemoryBudget;

/// Cooperative cancellation flag shared between the session that owns a
/// query and every thread executing it. Cancelling is a one-way latch:
/// execution code observes it at batch boundaries and unwinds with a typed
/// kCancelled status. Thread-safe and cheap to poll (one relaxed load).
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Query-wide governance state threaded from the ql::Driver through the
/// engine, operator pipelines, shuffle loops and readers: a cancellation
/// token, a wall-clock deadline and the query's memory-accounting node.
/// The context is owned by the driver and outlives every task of the query;
/// execution code holds const pointers and only ever polls it.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  void set_token(std::shared_ptr<CancellationToken> token) {
    token_ = std::move(token);
  }
  const std::shared_ptr<CancellationToken>& token() const { return token_; }

  /// Arms the wall-clock deadline `timeout_millis` from now (0 disarms).
  void set_timeout_millis(int64_t timeout_millis) {
    has_deadline_ = timeout_millis > 0;
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_millis);
    }
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// The query's node in the unified memory accounting tree (see
  /// common/budget.h), or nullptr when the query runs outside a session.
  /// Consumers (map-join builds, ORC writers) charge reservations against
  /// it; the node is owned by the admission handle and outlives the query.
  void set_memory_budget(MemoryBudget* budget) { memory_budget_ = budget; }
  MemoryBudget* memory_budget() const { return memory_budget_; }

  /// OK while the query may keep running; kCancelled once the token fires,
  /// kDeadlineExceeded once the deadline passes. This is THE cancellation
  /// point primitive — called at row-batch boundaries, per ORC index group,
  /// per shuffle run, and between jobs, so cancellation latency is bounded
  /// by one batch of work.
  Status CheckAlive() const {
    if (token_ != nullptr && token_->cancelled()) {
      return Status::Cancelled("query cancelled by session");
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<CancellationToken> token_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  MemoryBudget* memory_budget_ = nullptr;
};

/// Per-task-attempt view of the governance state: the query context plus an
/// optional attempt deadline (the engine's task_timeout_millis). Execution
/// code inside a task polls this instead of the raw QueryContext so a
/// straggling attempt can be killed cooperatively and retried while the
/// query as a whole stays alive.
class TaskGovernor {
 public:
  TaskGovernor() = default;
  explicit TaskGovernor(const QueryContext* query) : query_(query) {}

  const QueryContext* query() const { return query_; }

  /// Arms the attempt deadline `timeout_millis` from now (<=0 disarms).
  void set_attempt_timeout_millis(int64_t timeout_millis) {
    has_attempt_deadline_ = timeout_millis > 0;
    if (has_attempt_deadline_) {
      attempt_deadline_ = QueryContext::Clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    }
  }

  /// True once the attempt deadline has passed (independent of the query
  /// state): the engine uses this to tell a straggler kill (retryable,
  /// counted in tasks_timed_out) from a dead query (not retryable).
  bool AttemptTimedOut() const {
    return has_attempt_deadline_ &&
           QueryContext::Clock::now() >= attempt_deadline_;
  }

  /// Attempt-scoped cancellation, independent of the query's token: the
  /// dispatch layer cancels a speculative duplicate once its sibling wins,
  /// while the query (and the winner's output) live on. Owned by the
  /// caller; must outlive the attempt. Null = no attempt-level cancel.
  void set_attempt_cancel(const CancellationToken* cancel) {
    attempt_cancel_ = cancel;
  }

  /// Query-level check first (cancellation beats deadlines, query deadline
  /// beats attempt deadline), then the attempt-level kills.
  Status CheckAlive() const {
    if (query_ != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(query_->CheckAlive());
    }
    if (attempt_cancel_ != nullptr && attempt_cancel_->cancelled()) {
      return Status::Cancelled("task attempt cancelled by dispatcher");
    }
    if (AttemptTimedOut()) {
      return Status::DeadlineExceeded("task attempt exceeded its deadline");
    }
    return Status::OK();
  }

 private:
  const QueryContext* query_ = nullptr;
  bool has_attempt_deadline_ = false;
  QueryContext::Clock::time_point attempt_deadline_{};
  const CancellationToken* attempt_cancel_ = nullptr;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_QUERY_CONTEXT_H_
