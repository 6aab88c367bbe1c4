#ifndef MINIHIVE_COMMON_WORKER_MANAGER_H_
#define MINIHIVE_COMMON_WORKER_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "common/status.h"

namespace minihive {

/// Knobs for the distributed dispatch layer: pool size, liveness, retry,
/// blacklist and speculation policy. Shared by the session layer (which
/// owns the WorkerManager) and the ql::Driver (which wires the transport);
/// defaults are scaled for the in-process simulation, not a real cluster.
struct WorkerPoolOptions {
  /// Remote worker endpoints: tasks dispatch to a SimulatedRemoteTransport
  /// with this many worker threads (real wire encoding + CRC, fault hooks).
  /// 0 disables the dispatch layer entirely: the engine keeps running
  /// tasks on its in-process pool, the local path.
  int num_workers = 0;
  /// Liveness probe period for the heartbeat monitor. 0 disables the
  /// monitor thread (liveness then derives from dispatch results only).
  int heartbeat_millis = 25;
  /// Consecutive missed probes before a worker is declared dead.
  int missed_heartbeats_dead = 3;
  /// Dispatch failures on a worker before it is blacklisted.
  int worker_blacklist_failures = 3;
  /// How long a blacklisted worker sits out before probation re-admission
  /// (one more failure on probation re-blacklists immediately; one success
  /// fully re-admits).
  int64_t blacklist_probation_millis = 200;
  /// Straggler threshold as a multiple of the observed p99 task duration.
  /// A dispatched attempt still running past `max(p99 * threshold,
  /// speculative_min_millis)` gets a speculative duplicate on another
  /// worker; first success wins. <= 0 disables speculation.
  double speculative_threshold = 3.0;
  /// Floor for the speculation trigger, so tiny tasks don't speculate on
  /// scheduling noise.
  int64_t speculative_min_millis = 30;
  /// Completed-task duration samples required before speculation arms
  /// (a p99 from two samples is noise).
  int min_duration_samples = 16;
  /// How long one Dispatch call waits for the request's delivery and its
  /// response before the coordinator declares the RPC lost and retries
  /// elsewhere. Time the worker spends executing the task is not counted.
  int rpc_timeout_millis = 1000;
  /// Delay policy between dispatch retries of one task (capped exponential
  /// with jitter deterministic in `seed`).
  BackoffPolicy retry_backoff;
  /// Seed for backoff jitter and worker selection. Fault sweeps reuse the
  /// sweep seed here so the whole retry timeline is reproducible.
  uint64_t seed = 0;
};

/// Snapshot of the pool's health, for tests and EXPLAIN PROFILE.
struct WorkerPoolStats {
  int alive = 0;
  int blacklisted = 0;
  uint64_t heartbeats_missed = 0;
  uint64_t deaths = 0;
  uint64_t blacklists = 0;
  uint64_t probation_readmissions = 0;
};

/// Tracks the health of a fixed pool of remote workers: liveness via
/// periodic heartbeats (missed-beat detection with revival), blacklisting
/// after repeated dispatch failures (with probation re-admission), and the
/// completed-task duration distribution that arms speculative re-execution.
///
/// Lives in common/ so the session layer can own one per process without
/// depending on the mr transport; the probe is injected (StartMonitor), so
/// the manager never names the transport type. Thread-safe; the dispatch
/// coordinator and the monitor thread call in concurrently.
class WorkerManager {
 public:
  /// Probes one worker's liveness; any non-OK status is a missed beat.
  using HeartbeatFn = std::function<Status(int worker)>;

  explicit WorkerManager(const WorkerPoolOptions& options);
  ~WorkerManager();

  WorkerManager(const WorkerManager&) = delete;
  WorkerManager& operator=(const WorkerManager&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const WorkerPoolOptions& options() const { return options_; }

  /// Starts the heartbeat monitor thread. Returns true when this call
  /// started it (the caller then owns the probe's lifetime and must
  /// StopMonitor before the probe dies); false when it was already running
  /// or heartbeat_millis == 0. No-op-safe across sharing callers.
  bool StartMonitor(HeartbeatFn probe);
  void StopMonitor();

  /// Picks a usable (alive, not blacklisted) worker, deterministically in
  /// (seed, salt) — pass a salt derived from (job, task, attempt) so a
  /// sweep reproduces the same placement. `exclude` skips one worker (a
  /// speculative duplicate must not land on the original's worker unless
  /// it is the only one usable). ResourceExhausted when no worker is
  /// usable — the caller's cue to fall back to the local pool.
  Result<int> PickWorker(uint64_t salt, int exclude = -1);

  /// Reports the outcome of one dispatch to `worker`. Failures count
  /// toward blacklisting; a success on probation fully re-admits.
  void ReportDispatch(int worker, bool ok);

  /// Reports one liveness probe outcome (called by the monitor thread;
  /// also directly by tests). Misses accumulate toward death; a success
  /// revives a dead worker and clears the miss streak.
  void ReportHeartbeat(int worker, bool ok);

  bool IsAlive(int worker) const;
  bool IsBlacklisted(int worker) const;
  /// Alive and not blacklisted.
  bool IsUsable(int worker) const;

  /// Feeds one completed task attempt's wall time into the straggler
  /// detector's duration window.
  void RecordTaskDurationMillis(int64_t millis);

  /// Milliseconds an in-flight attempt may run before a speculative
  /// duplicate launches: max(p99 * speculative_threshold,
  /// speculative_min_millis). -1 while speculation is disarmed (disabled,
  /// or fewer than min_duration_samples completions observed).
  int64_t SpeculativeDelayMillis() const;

  WorkerPoolStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkerState {
    bool alive = true;
    int missed_beats = 0;
    int dispatch_failures = 0;
    bool on_probation = false;
    Clock::time_point blacklisted_until{};  // epoch = not blacklisted
  };

  bool BlacklistedLocked(const WorkerState& w) const {
    return w.blacklisted_until != Clock::time_point{} &&
           Clock::now() < w.blacklisted_until;
  }
  bool UsableLocked(const WorkerState& w) const {
    return w.alive && !BlacklistedLocked(w);
  }

  const WorkerPoolOptions options_;

  mutable std::mutex mu_;
  std::vector<WorkerState> workers_;
  WorkerPoolStats counters_;  // guarded by mu_ (gauge-style fields unused)

  // Sliding window of completed-task durations for the p99 estimate.
  std::vector<int64_t> durations_;
  size_t duration_pos_ = 0;
  size_t duration_count_ = 0;

  // Heartbeat monitor.
  std::thread monitor_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  bool monitor_running_ = false;
};

}  // namespace minihive

#endif  // MINIHIVE_COMMON_WORKER_MANAGER_H_
