#ifndef MINIHIVE_COMMON_SESSION_H_
#define MINIHIVE_COMMON_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "common/budget.h"
#include "common/cache.h"
#include "common/query_context.h"
#include "common/result.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/worker_manager.h"

namespace minihive {

struct SessionManagerOptions {
  /// Shared scheduler worker pool size.
  int num_workers = 4;
  /// Root of the memory accounting tree; everything — caches, admitted
  /// queries — commits against this. 0 = unlimited (admission never queues).
  uint64_t global_memory_budget_bytes = 1ull << 30;  // 1 GiB
  /// Slice committed per admitted query; its map-join builds charge within
  /// it, and a build that does not fit fails with ResourceExhausted (the
  /// driver then re-runs the query on reduce joins). 0 = unlimited. Must fit
  /// under the global budget after the caches take their share.
  uint64_t per_query_memory_budget_bytes = 64ull << 20;  // 64 MiB
  /// Shared ORC metadata cache budget, committed against the global budget
  /// up front.
  uint64_t metadata_cache_bytes = 16ull << 20;
  /// Queries beyond the committed global budget wait in the admission queue
  /// up to this bound; 0 disables queueing (immediate rejection).
  int max_queued_queries = 64;
  /// How long a queued query waits for budget before giving up with
  /// ResourceExhausted. 0 = wait forever (until cancelled).
  int64_t admission_queue_timeout_millis = 10000;
  /// Dispatch worker pool shared across the manager's sessions: liveness,
  /// blacklist, and straggler statistics live here so every driver attached
  /// to the manager sees one consistent view of the cluster. Enabled when
  /// `workers.num_workers > 0`; the drivers' transports call back into it.
  WorkerPoolOptions workers;
};

class SessionManager;

/// RAII admission ticket: holds the query's committed MemoryBudget slice
/// and releases it (waking queued queries) on destruction.
class QueryAdmission {
 public:
  ~QueryAdmission();

  QueryAdmission(const QueryAdmission&) = delete;
  QueryAdmission& operator=(const QueryAdmission&) = delete;

  MemoryBudget* budget() const { return budget_.get(); }
  /// Time this query spent waiting in the admission queue.
  int64_t queue_wait_millis() const { return queue_wait_millis_; }
  /// Bytes committed against the global budget for this query.
  uint64_t admitted_bytes() const { return budget_->limit(); }

 private:
  friend class SessionManager;
  QueryAdmission(SessionManager* manager,
                 std::unique_ptr<MemoryBudget> budget,
                 int64_t queue_wait_millis)
      : manager_(manager),
        budget_(std::move(budget)),
        queue_wait_millis_(queue_wait_millis) {}

  SessionManager* manager_;
  std::unique_ptr<MemoryBudget> budget_;
  int64_t queue_wait_millis_ = 0;
};

/// A lightweight per-client handle from a SessionManager: names the client
/// and carries its priority tier. Sessions are cheap; a server would create
/// one per connection.
class Session {
 public:
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  SessionManager* manager() const { return manager_; }

 private:
  friend class SessionManager;
  Session(SessionManager* manager, std::string name, int priority)
      : manager_(manager), name_(std::move(name)), priority_(priority) {}

  SessionManager* manager_;
  std::string name_;
  int priority_;
};

/// The in-process multi-query server core: owns the shared worker pool
/// (TaskScheduler), the shared metadata cache (CacheManager), and the root
/// of the unified memory accounting tree, and admits queries against it.
///
/// Admission is commitment-based: each admitted query commits a whole
/// per-query slice of the global budget (see MemoryBudget). When the global
/// budget is fully committed, new queries wait in a bounded FIFO queue
/// (`session.queries_queued` / `session.queue_wait_millis`) and are
/// rejected with a typed ResourceExhausted when the queue overflows, the
/// wait times out, or the request can never fit.
class SessionManager {
 public:
  explicit SessionManager(const SessionManagerOptions& options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  std::unique_ptr<Session> NewSession(const std::string& name,
                                      int priority = kPriorityNormal) {
    return std::unique_ptr<Session>(new Session(this, name, priority));
  }

  /// Admits one query, blocking in the admission queue while the global
  /// budget is committed. `requested_bytes` asks for a larger-than-default
  /// slice (0 = the configured per-query budget); requests beyond the
  /// per-query cap are rejected immediately. Polls `ctx` (when given) so a
  /// cancelled or expired query stops waiting with its own typed status.
  Result<std::unique_ptr<QueryAdmission>> Admit(
      const std::string& query_name, const QueryContext* ctx = nullptr,
      uint64_t requested_bytes = 0);

  TaskScheduler* scheduler() { return scheduler_.get(); }
  /// Shared handle for installing into a FileSystem — readers pin it, so
  /// the cache outlives any in-flight scan even if the manager dies first
  /// (FileSystem::set_cache_manager's ownership contract).
  std::shared_ptr<cache::CacheManager> cache_manager() {
    return cache_manager_;
  }
  /// Shared dispatch-worker liveness/blacklist tracker; null unless
  /// `options.workers.num_workers > 0`. Drivers attached to a session of
  /// this manager route their dispatches through it instead of creating a
  /// private one, so a worker blacklisted by one query stays blacklisted
  /// for the next.
  WorkerManager* worker_manager() { return worker_manager_.get(); }
  /// Root of the memory accounting tree (caches + admitted queries).
  MemoryBudget* root_budget() { return root_budget_.get(); }

  const SessionManagerOptions& options() const { return options_; }

 private:
  friend class QueryAdmission;

  /// Called by ~QueryAdmission after its budget slice is released.
  void OnQueryFinished();

  SessionManagerOptions options_;
  std::unique_ptr<MemoryBudget> root_budget_;
  // The cache budget is committed against the root for the manager's
  // lifetime, so admission maths sees the cache's worst case.
  std::unique_ptr<MemoryBudget> cache_budget_;
  std::shared_ptr<cache::CacheManager> cache_manager_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<WorkerManager> worker_manager_;

  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int queued_ = 0;
  uint64_t admit_seq_ = 0;           // ticket source for waiters
  std::deque<uint64_t> wait_queue_;  // outstanding tickets, FIFO
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_SESSION_H_
