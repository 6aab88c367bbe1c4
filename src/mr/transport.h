#ifndef MINIHIVE_MR_TRANSPORT_H_
#define MINIHIVE_MR_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/worker_manager.h"
#include "mr/engine.h"

namespace minihive::mr {

// ---------------------------------------------------------------------------
// Wire protocol.
//
// Task dispatch crosses a serialization seam even in-process: the
// coordinator encodes a task descriptor, the worker decodes it and looks up
// the job's registered executor (closures don't serialize — like Hadoop,
// the "code" ships out of band via RegisterJob; the wire carries only the
// descriptor). Every frame is integrity-checked:
//
//   "MHTP" | version(1) | kind(1) | varint payload_len | payload | crc32(4)
//
// The CRC covers the payload; a mismatch decodes to kCorruption, which the
// dispatch layer treats like a lost message (retry), never as task output.
// ---------------------------------------------------------------------------

/// One task attempt shipped to a worker: which job, which task, which
/// physical attempt, and (for maps) the input split. `request_id` matches
/// responses back to their Dispatch call so a duplicate delivery's second
/// response is discarded instead of fulfilling a later call.
struct TaskRequest {
  uint64_t request_id = 0;
  uint64_t job_id = 0;
  std::string job_name;
  TaskKind kind = TaskKind::kMap;
  int task_index = 0;
  int attempt = 0;
  InputSplit split;  // Meaningful for kMap only.
};

/// The worker's verdict on one request: the executor's status, echoed
/// alongside the identifiers so the coordinator can sanity-check matching.
struct TaskResponse {
  uint64_t request_id = 0;
  uint64_t job_id = 0;
  TaskKind kind = TaskKind::kMap;
  int task_index = 0;
  int attempt = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
};

/// Frame kinds on the wire.
inline constexpr uint8_t kFrameTaskRequest = 1;
inline constexpr uint8_t kFrameTaskResponse = 2;

/// Serializes a request/response into a complete CRC-trailed frame.
std::string EncodeTaskRequest(const TaskRequest& request);
std::string EncodeTaskResponse(const TaskResponse& response);

/// Parses a frame, verifying magic, version, kind and CRC. Returns
/// kCorruption on any mismatch (including a flipped payload byte).
Status DecodeTaskRequest(std::string_view frame, TaskRequest* request);
Status DecodeTaskResponse(std::string_view frame, TaskResponse* response);

// ---------------------------------------------------------------------------
// Remote transport.
// ---------------------------------------------------------------------------

/// Runs one decoded task attempt on the worker side. Registered per job
/// (the engine registers its attempt body before dispatching); `cancel` is
/// the attempt's kill switch (speculative losers), polled cooperatively.
using TaskExecutor =
    std::function<Status(const TaskRequest& request,
                         const CancellationToken* cancel)>;

/// The remote path (the engine's plain pool is the local one). A simulated
/// remote cluster: one mailbox + service thread per worker,
/// every message taking a real serde round trip (encode, CRC, decode) with
/// per-site FaultInjector hooks — the failure surface of an RPC layer:
///
///   Dispatch: encode -> [send faults: drop / duplicate / delay] -> enqueue
///   Worker:   dequeue -> decode+CRC -> [crash-before] -> execute
///             -> [crash-after] -> encode -> [response drop] -> respond
///
/// A dropped message or response surfaces at the coordinator as an rpc
/// timeout; a crashed worker stops serving its queue for good (heartbeats
/// fail, queued and future dispatches fast-fail). Fault decisions are
/// labelled "worker-<w>/job-<id>/<map|reduce>-<index>/attempt-<n>" so
/// path_filter can target one worker or one job.
class SimulatedRemoteTransport {
 public:
  /// Starts `options.num_workers` worker threads (at least one). Dispatch
  /// waits `options.rpc_timeout_millis` for a request's delivery and its
  /// response; the clock stops while a worker executes the request, so the
  /// timeout bounds the messages, never the task.
  explicit SimulatedRemoteTransport(const WorkerPoolOptions& options);
  ~SimulatedRemoteTransport();

  SimulatedRemoteTransport(const SimulatedRemoteTransport&) = delete;
  SimulatedRemoteTransport& operator=(const SimulatedRemoteTransport&) =
      delete;

  const char* name() const { return "simulated-remote"; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Registers the executor workers run for `job_id`'s requests. The
  /// executor may be called from worker threads until UnregisterJob.
  void RegisterJob(uint64_t job_id, TaskExecutor executor);

  /// Drops the job's executor, discards its queued requests, and blocks
  /// until in-flight executions of the job finish — after this returns no
  /// worker thread touches the job's state again.
  void UnregisterJob(uint64_t job_id);

  /// Ships one task attempt to `worker` and blocks for its response (or
  /// an rpc timeout / dead-worker fast fail). Returns the executor's
  /// status on a delivered response; DeadlineExceeded when the request or
  /// its response was lost (the attempt may still have run and committed —
  /// the retry path must tolerate duplicate commits); IoError for a dead
  /// worker; Cancelled when `cancel` fires first. The token is shared so
  /// an abandoned request still executing on a worker can keep polling it
  /// safely after this call returns.
  Status Dispatch(int worker, const TaskRequest& request,
                  std::shared_ptr<const CancellationToken> cancel);

  /// Liveness probe (the WorkerManager monitor's injected function).
  Status Heartbeat(int worker);

  /// Installs (or clears, nullptr) the fault injector consulted by every
  /// message hop. Same atomic-pointer pattern as dfs::FileSystem.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// True once `worker` has crashed (fault injection) — tests assert the
  /// simulated failure actually happened.
  bool WorkerCrashed(int worker) const;

 private:
  struct Envelope {
    uint64_t job_id = 0;
    uint64_t request_id = 0;
    std::string frame;  // Encoded TaskRequest.
    int delay_millis = 0;
    // In-process side channel for the attempt kill switch: a real cluster
    // would deliver cancellation as its own rpc; the simulation passes the
    // token alongside the wire bytes instead (shared, so an abandoned
    // request executing after its Dispatch returned still polls safely).
    std::shared_ptr<const CancellationToken> cancel;
  };

  struct Worker {
    std::thread thread;
    std::deque<Envelope> mailbox;
    std::atomic<bool> dead{false};
    // In-flight executions per job id, for UnregisterJob draining.
    std::map<uint64_t, int> in_flight;
  };

  struct PendingCall {
    std::string response_frame;
    bool done = false;
    /// Copies of the request a worker is executing right now (more than
    /// one under duplicate delivery). The rpc clock stops while any runs.
    int executing = 0;
  };

  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  void WorkerLoop(int index);
  /// Delivers a response frame to its waiting Dispatch call (no-op when
  /// the call timed out and deregistered, or a duplicate already landed).
  void DeliverResponse(uint64_t request_id, std::string frame);
  /// Adds `delta` to the executing count of `request_id`'s waiting call
  /// (no-op once the call has returned). Caller holds mu_.
  void MarkExecuting(uint64_t request_id, int delta);

  const int rpc_timeout_millis_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};

  std::mutex mu_;  // Guards mailboxes, jobs_, pending_, in_flight maps.
  std::condition_variable worker_cv_;
  std::condition_variable response_cv_;
  std::condition_variable drain_cv_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<uint64_t, TaskExecutor> jobs_;
  std::map<uint64_t, PendingCall*> pending_;
  std::atomic<uint64_t> next_request_id_{1};
};

// ---------------------------------------------------------------------------
// Dispatch coordination.
// ---------------------------------------------------------------------------

/// What one logical task's dispatch ultimately produced, plus the
/// bookkeeping the engine folds into JobCounters.
struct DispatchOutcome {
  Status status;
  /// Physical attempt id whose results the engine should consume (unique
  /// across retries and speculative duplicates of this task).
  int winning_attempt = -1;
  int failures = 0;           // Failed physical launches.
  int timeouts = 0;           // Launches lost to rpc/attempt deadlines.
  int dispatches = 0;         // Physical launches, total.
  int retries = 0;            // Launches after the first.
  int speculative_launches = 0;
  int speculative_losses = 0;    // Speculative duplicates that lost.
  bool speculative_won = false;  // A speculative duplicate beat the original.
  bool ran_local_fallback = false;
  int64_t retried_nanos = 0;  // Wall time burnt by failed launches.
};

/// Orchestrates all physical launches of one logical task: worker
/// selection (via the WorkerManager's health view), bounded retries with
/// capped exponential backoff + deterministic jitter, speculative
/// duplicates for stragglers past the manager's p99 threshold (first
/// success wins, losers cancelled), and graceful degradation to a local
/// run when every worker is dead or blacklisted. One coordinator serves
/// many concurrent RunTask calls (the engine's task fan-out).
class DispatchCoordinator {
 public:
  DispatchCoordinator(SimulatedRemoteTransport* transport,
                      WorkerManager* manager);

  SimulatedRemoteTransport* transport() { return transport_; }
  WorkerManager* manager() { return manager_; }

  uint64_t NewJobId() { return next_job_id_.fetch_add(1); }

  /// Registers `executor` with the transport and keeps it for the local
  /// fallback path. Must be paired with EndJob on every exit path.
  void StartJob(uint64_t job_id, TaskExecutor executor);
  /// Unregisters from the transport (draining in-flight executions) and
  /// forgets the fallback executor.
  void EndJob(uint64_t job_id);

  /// Runs one logical task to completion: at most `max_attempts` failed
  /// physical launches, speculation on stragglers, local fallback when no
  /// worker is usable. Returns once every launch thread is joined — no
  /// execution of this task is in flight afterwards. A dead query
  /// (query_ctx cancelled / past deadline) stops retrying immediately and
  /// surfaces the query's own status.
  DispatchOutcome RunTask(uint64_t job_id, const std::string& job_name,
                          TaskKind kind, int task_index,
                          const InputSplit& split, int max_attempts,
                          const QueryContext* query_ctx);

 private:
  struct Launch;

  TaskExecutor FallbackExecutor(uint64_t job_id);

  SimulatedRemoteTransport* transport_;
  WorkerManager* manager_;
  std::atomic<uint64_t> next_job_id_{1};

  std::mutex jobs_mu_;
  std::map<uint64_t, TaskExecutor> jobs_;
};

}  // namespace minihive::mr

#endif  // MINIHIVE_MR_TRANSPORT_H_
