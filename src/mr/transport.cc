#include "mr/transport.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/stopwatch.h"

namespace minihive::mr {

namespace {

constexpr char kFrameMagic[4] = {'M', 'H', 'T', 'P'};
constexpr uint8_t kWireVersion = 1;

/// Frames a payload: magic | version | kind | varint len | payload | crc32.
std::string EncodeFrame(uint8_t kind, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(kind));
  PutVarint64(&out, payload.size());
  out.append(payload);
  PutFixed32(&out, Crc32(payload));
  return out;
}

Status DecodeFrame(std::string_view frame, uint8_t expect_kind,
                   std::string_view* payload) {
  ByteReader reader(frame);
  std::string_view magic;
  MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(sizeof(kFrameMagic), &magic));
  if (magic != std::string_view(kFrameMagic, sizeof(kFrameMagic))) {
    return Status::Corruption("transport frame: bad magic");
  }
  uint8_t version = 0;
  uint8_t kind = 0;
  MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&version));
  MINIHIVE_RETURN_IF_ERROR(reader.GetByte(&kind));
  if (version != kWireVersion) {
    return Status::Corruption("transport frame: unsupported version " +
                              std::to_string(version));
  }
  if (kind != expect_kind) {
    return Status::Corruption("transport frame: unexpected kind " +
                              std::to_string(kind));
  }
  uint64_t length = 0;
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&length));
  MINIHIVE_RETURN_IF_ERROR(reader.GetBytes(length, payload));
  uint32_t crc = 0;
  MINIHIVE_RETURN_IF_ERROR(reader.GetFixed32(&crc));
  uint32_t actual = Crc32(*payload);
  if (crc != actual) {
    return Status::Corruption("transport frame: crc mismatch (stored " +
                              std::to_string(crc) + ", computed " +
                              std::to_string(actual) + ")");
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("transport frame: trailing bytes");
  }
  return Status::OK();
}

Status GetTaskKind(ByteReader* reader, TaskKind* kind) {
  uint8_t raw = 0;
  MINIHIVE_RETURN_IF_ERROR(reader->GetByte(&raw));
  if (raw > 1) {
    return Status::Corruption("transport payload: bad task kind " +
                              std::to_string(raw));
  }
  *kind = raw == 0 ? TaskKind::kMap : TaskKind::kReduce;
  return Status::OK();
}

Status GetInt(ByteReader* reader, int* value) {
  uint64_t raw = 0;
  MINIHIVE_RETURN_IF_ERROR(reader->GetVarint64(&raw));
  if (raw > static_cast<uint64_t>(INT32_MAX)) {
    return Status::Corruption("transport payload: int field out of range");
  }
  *value = static_cast<int>(raw);
  return Status::OK();
}

/// Fault/path_filter label for one request hop, e.g.
/// "worker-0/job-3/map-2/attempt-1".
std::string DispatchLabel(int worker, const TaskRequest& request) {
  return "worker-" + std::to_string(worker) + "/job-" +
         std::to_string(request.job_id) +
         (request.kind == TaskKind::kMap ? "/map-" : "/reduce-") +
         std::to_string(request.task_index) + "/attempt-" +
         std::to_string(request.attempt);
}

}  // namespace

std::string EncodeTaskRequest(const TaskRequest& request) {
  std::string payload;
  PutVarint64(&payload, request.request_id);
  PutVarint64(&payload, request.job_id);
  PutLengthPrefixed(&payload, request.job_name);
  payload.push_back(request.kind == TaskKind::kMap ? 0 : 1);
  PutVarint64(&payload, static_cast<uint64_t>(request.task_index));
  PutVarint64(&payload, static_cast<uint64_t>(request.attempt));
  PutLengthPrefixed(&payload, request.split.path);
  PutVarint64(&payload, request.split.offset);
  PutVarint64(&payload, request.split.length);
  PutVarintSigned64(&payload, request.split.locality_host);
  PutVarintSigned64(&payload, request.split.source_tag);
  return EncodeFrame(kFrameTaskRequest, payload);
}

Status DecodeTaskRequest(std::string_view frame, TaskRequest* request) {
  std::string_view payload;
  MINIHIVE_RETURN_IF_ERROR(DecodeFrame(frame, kFrameTaskRequest, &payload));
  ByteReader reader(payload);
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&request->request_id));
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&request->job_id));
  std::string_view name;
  MINIHIVE_RETURN_IF_ERROR(reader.GetLengthPrefixed(&name));
  request->job_name.assign(name);
  MINIHIVE_RETURN_IF_ERROR(GetTaskKind(&reader, &request->kind));
  MINIHIVE_RETURN_IF_ERROR(GetInt(&reader, &request->task_index));
  MINIHIVE_RETURN_IF_ERROR(GetInt(&reader, &request->attempt));
  std::string_view path;
  MINIHIVE_RETURN_IF_ERROR(reader.GetLengthPrefixed(&path));
  request->split.path.assign(path);
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&request->split.offset));
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&request->split.length));
  int64_t locality = 0;
  int64_t tag = 0;
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarintSigned64(&locality));
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarintSigned64(&tag));
  request->split.locality_host = static_cast<int>(locality);
  request->split.source_tag = static_cast<int>(tag);
  if (!reader.AtEnd()) {
    return Status::Corruption("task request payload: trailing bytes");
  }
  return Status::OK();
}

std::string EncodeTaskResponse(const TaskResponse& response) {
  std::string payload;
  PutVarint64(&payload, response.request_id);
  PutVarint64(&payload, response.job_id);
  payload.push_back(response.kind == TaskKind::kMap ? 0 : 1);
  PutVarint64(&payload, static_cast<uint64_t>(response.task_index));
  PutVarint64(&payload, static_cast<uint64_t>(response.attempt));
  PutVarint64(&payload, static_cast<uint64_t>(response.code));
  PutLengthPrefixed(&payload, response.message);
  return EncodeFrame(kFrameTaskResponse, payload);
}

Status DecodeTaskResponse(std::string_view frame, TaskResponse* response) {
  std::string_view payload;
  MINIHIVE_RETURN_IF_ERROR(DecodeFrame(frame, kFrameTaskResponse, &payload));
  ByteReader reader(payload);
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&response->request_id));
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&response->job_id));
  MINIHIVE_RETURN_IF_ERROR(GetTaskKind(&reader, &response->kind));
  MINIHIVE_RETURN_IF_ERROR(GetInt(&reader, &response->task_index));
  MINIHIVE_RETURN_IF_ERROR(GetInt(&reader, &response->attempt));
  uint64_t code = 0;
  MINIHIVE_RETURN_IF_ERROR(reader.GetVarint64(&code));
  if (code > static_cast<uint64_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Corruption("task response payload: bad status code " +
                              std::to_string(code));
  }
  response->code = static_cast<StatusCode>(code);
  std::string_view message;
  MINIHIVE_RETURN_IF_ERROR(reader.GetLengthPrefixed(&message));
  response->message.assign(message);
  if (!reader.AtEnd()) {
    return Status::Corruption("task response payload: trailing bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SimulatedRemoteTransport.
// ---------------------------------------------------------------------------

SimulatedRemoteTransport::SimulatedRemoteTransport(
    const WorkerPoolOptions& options)
    : rpc_timeout_millis_(std::max(1, options.rpc_timeout_millis)) {
  int n = std::max(1, options.num_workers);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

SimulatedRemoteTransport::~SimulatedRemoteTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  worker_cv_.notify_all();
  response_cv_.notify_all();
  drain_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void SimulatedRemoteTransport::RegisterJob(uint64_t job_id,
                                           TaskExecutor executor) {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_[job_id] = std::move(executor);
}

void SimulatedRemoteTransport::UnregisterJob(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  jobs_.erase(job_id);
  // Purge the job's queued requests (their Dispatch calls, if any are still
  // waiting, will time out — by now the coordinator has abandoned them).
  for (auto& worker : workers_) {
    auto& box = worker->mailbox;
    box.erase(std::remove_if(box.begin(), box.end(),
                             [&](const Envelope& env) {
                               return env.job_id == job_id;
                             }),
              box.end());
  }
  // Block until no worker thread is inside the job's executor: after this
  // returns the engine may tear down the state the executor captured.
  drain_cv_.wait(lock, [&] {
    for (const auto& worker : workers_) {
      auto it = worker->in_flight.find(job_id);
      if (it != worker->in_flight.end() && it->second > 0) return false;
    }
    return true;
  });
}

bool SimulatedRemoteTransport::WorkerCrashed(int worker) const {
  return worker >= 0 && worker < static_cast<int>(workers_.size()) &&
         workers_[worker]->dead.load(std::memory_order_acquire);
}

Status SimulatedRemoteTransport::Heartbeat(int worker) {
  if (worker < 0 || worker >= num_workers()) {
    return Status::InvalidArgument("no such worker: " +
                                   std::to_string(worker));
  }
  if (workers_[worker]->dead.load(std::memory_order_acquire)) {
    return Status::IoError("worker " + std::to_string(worker) + " is dead");
  }
  FaultInjector* injector = fault_injector();
  if (injector != nullptr &&
      injector->ShouldDropHeartbeat("worker-" + std::to_string(worker) +
                                    "/heartbeat")) {
    return Status::IoError("injected heartbeat loss for worker " +
                           std::to_string(worker));
  }
  return Status::OK();
}

Status SimulatedRemoteTransport::Dispatch(
    int worker, const TaskRequest& request,
    std::shared_ptr<const CancellationToken> cancel) {
  if (worker < 0 || worker >= num_workers()) {
    return Status::InvalidArgument("no such worker: " +
                                   std::to_string(worker));
  }
  Worker& target = *workers_[worker];
  TaskRequest req = request;
  req.request_id = next_request_id_.fetch_add(1);
  const std::string label = DispatchLabel(worker, req);
  std::string frame = EncodeTaskRequest(req);

  // Send-side fault decisions happen before the message enters the mailbox
  // (a dropped message never reaches the worker; a delayed one stalls its
  // queue; a duplicated one is delivered — and executed — twice).
  FaultInjector* injector = fault_injector();
  bool dropped = injector != nullptr &&
                 injector->ShouldDropMessage(FaultSite::kSend, label);
  bool duplicated = !dropped && injector != nullptr &&
                    injector->ShouldDuplicateMessage(label);
  int delay_millis =
      !dropped && injector != nullptr ? injector->MessageDelayMillis(label)
                                      : 0;

  PendingCall call;
  // The rpc clock: it runs while the request and its response are in
  // flight and stops while a worker executes the request, so a long task
  // never times out as a lost message. Each slice is charged by the state
  // seen at its start; workers notify response_cv_ on every change.
  auto budget = std::chrono::steady_clock::duration(
      std::chrono::milliseconds(rpc_timeout_millis_));
  auto last = std::chrono::steady_clock::now();
  bool executing = false;
  Status result;
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) return Status::IoError("transport shutting down");
  if (target.dead.load(std::memory_order_acquire)) {
    return Status::IoError("worker " + std::to_string(worker) + " is dead");
  }
  pending_[req.request_id] = &call;
  if (!dropped) {
    Envelope envelope;
    envelope.job_id = req.job_id;
    envelope.request_id = req.request_id;
    envelope.frame = std::move(frame);
    envelope.delay_millis = delay_millis;
    envelope.cancel = cancel;
    target.mailbox.push_back(envelope);
    if (duplicated) target.mailbox.push_back(std::move(envelope));
    worker_cv_.notify_all();
  }
  bool delivered = false;
  while (true) {
    if (call.done) {
      TaskResponse response;
      Status decoded = DecodeTaskResponse(call.response_frame, &response);
      if (decoded.ok() && response.request_id != req.request_id) {
        decoded = Status::Internal("response matched to wrong request");
      }
      result = decoded.ok() ? Status(response.code, response.message)
                            : decoded;
      delivered = true;
      break;
    }
    if (stopping_) {
      result = Status::IoError("transport shutting down");
      break;
    }
    if (target.dead.load(std::memory_order_acquire)) {
      result = Status::IoError("worker " + std::to_string(worker) +
                               " died (" + label + ")");
      break;
    }
    auto now = std::chrono::steady_clock::now();
    if (!executing) budget -= now - last;
    last = now;
    executing = call.executing > 0;
    if (!executing && budget <= budget.zero()) {
      result = Status::DeadlineExceeded(
          "rpc timeout after " + std::to_string(rpc_timeout_millis_) +
          " ms waiting for " + label);
      break;
    }
    if (cancel != nullptr && cancel->cancelled()) {
      result = Status::Cancelled("dispatch abandoned: attempt cancelled (" +
                                 label + ")");
      break;
    }
    // Short slices so cancellation and worker death are noticed promptly.
    auto slice = std::chrono::steady_clock::duration(
        std::chrono::milliseconds(5));
    response_cv_.wait_for(lock, executing ? slice : std::min(budget, slice));
  }
  pending_.erase(req.request_id);
  if (!delivered) {
    // Abandoned: purge still-queued copies so the worker doesn't burn time
    // on a request nobody is waiting for. An already-executing copy keeps
    // running (it holds its own shared token) and its late response is
    // discarded above by the pending_ lookup.
    auto& box = target.mailbox;
    box.erase(std::remove_if(box.begin(), box.end(),
                             [&](const Envelope& env) {
                               return env.request_id == req.request_id;
                             }),
              box.end());
  }
  return result;
}

void SimulatedRemoteTransport::DeliverResponse(uint64_t request_id,
                                               std::string frame) {
  // Caller holds mu_. A stale response (timed-out call, or the second
  // execution of a duplicated delivery) finds no pending slot, or one
  // already fulfilled, and is discarded — request-id matching is what makes
  // duplicate delivery safe at the rpc layer.
  auto it = pending_.find(request_id);
  if (it == pending_.end() || it->second->done) return;
  it->second->response_frame = std::move(frame);
  it->second->done = true;
  response_cv_.notify_all();
}

void SimulatedRemoteTransport::MarkExecuting(uint64_t request_id,
                                             int delta) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  it->second->executing += delta;
  response_cv_.notify_all();
}

void SimulatedRemoteTransport::WorkerLoop(int index) {
  Worker& self = *workers_[index];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    worker_cv_.wait(lock, [&] {
      return stopping_ || self.dead.load(std::memory_order_acquire) ||
             !self.mailbox.empty();
    });
    if (stopping_ || self.dead.load(std::memory_order_acquire)) return;
    Envelope envelope = std::move(self.mailbox.front());
    self.mailbox.pop_front();
    lock.unlock();

    if (envelope.delay_millis > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(envelope.delay_millis));
    }

    TaskRequest request;
    Status status = DecodeTaskRequest(envelope.frame, &request);
    FaultInjector* injector = fault_injector();
    std::string label =
        status.ok() ? DispatchLabel(index, request)
                    : "worker-" + std::to_string(index) + "/corrupt";
    if (status.ok()) {
      // Crash on receipt: the worker dies before running (or committing)
      // anything. Its queue is purged; heartbeats and future dispatches
      // fast-fail; waiters are woken to observe the death.
      if (injector != nullptr && injector->ShouldCrashWorker(false, label)) {
        lock.lock();
        self.dead.store(true, std::memory_order_release);
        self.mailbox.clear();
        response_cv_.notify_all();
        drain_cv_.notify_all();
        return;
      }
      TaskExecutor executor;
      lock.lock();
      auto it = jobs_.find(envelope.job_id);
      if (it == jobs_.end()) {
        // Job already unregistered: the coordinator is gone; drop silently.
        continue;
      }
      executor = it->second;
      self.in_flight[envelope.job_id] += 1;
      MarkExecuting(envelope.request_id, +1);
      lock.unlock();

      status = executor(request, envelope.cancel.get());

      lock.lock();
      MarkExecuting(envelope.request_id, -1);
      if (--self.in_flight[envelope.job_id] == 0) {
        self.in_flight.erase(envelope.job_id);
      }
      drain_cv_.notify_all();
      lock.unlock();

      // Crash after the work (and any commit) but before responding: the
      // costliest duplicate-commit scenario — the coordinator retries an
      // attempt whose output is already promoted.
      if (injector != nullptr && injector->ShouldCrashWorker(true, label)) {
        lock.lock();
        self.dead.store(true, std::memory_order_release);
        self.mailbox.clear();
        response_cv_.notify_all();
        drain_cv_.notify_all();
        return;
      }
    }
    // Respond (even to a corrupt request — the error rides back so the
    // coordinator retries without waiting out the timeout). The response
    // itself can be lost.
    TaskResponse response;
    response.request_id = envelope.request_id;
    response.job_id = envelope.job_id;
    response.kind = request.kind;
    response.task_index = request.task_index;
    response.attempt = request.attempt;
    response.code = status.code();
    response.message = std::string(status.message());
    std::string frame = EncodeTaskResponse(response);
    bool drop_response =
        injector != nullptr &&
        injector->ShouldDropMessage(FaultSite::kResponse, label);
    lock.lock();
    if (!drop_response) {
      DeliverResponse(envelope.request_id, std::move(frame));
    }
  }
}

// ---------------------------------------------------------------------------
// DispatchCoordinator.
// ---------------------------------------------------------------------------

struct DispatchCoordinator::Launch {
  int attempt = 0;
  int worker = -1;  // -1 = local fallback run.
  bool speculative = false;
  std::shared_ptr<CancellationToken> cancel;
  std::chrono::steady_clock::time_point started;
  std::thread thread;
  // Guarded by the RunTask-local mutex:
  bool done = false;
  bool consumed = false;
  Status result;
  double duration_millis = 0;
};

DispatchCoordinator::DispatchCoordinator(SimulatedRemoteTransport* transport,
                                         WorkerManager* manager)
    : transport_(transport), manager_(manager) {}

void DispatchCoordinator::StartJob(uint64_t job_id, TaskExecutor executor) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_[job_id] = executor;
  }
  transport_->RegisterJob(job_id, std::move(executor));
}

void DispatchCoordinator::EndJob(uint64_t job_id) {
  transport_->UnregisterJob(job_id);
  std::lock_guard<std::mutex> lock(jobs_mu_);
  jobs_.erase(job_id);
}

TaskExecutor DispatchCoordinator::FallbackExecutor(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(job_id);
  return it != jobs_.end() ? it->second : TaskExecutor();
}

DispatchOutcome DispatchCoordinator::RunTask(
    uint64_t job_id, const std::string& job_name, TaskKind kind,
    int task_index, const InputSplit& split, int max_attempts,
    const QueryContext* query_ctx) {
  DispatchOutcome out;
  max_attempts = std::max(1, max_attempts);
  const WorkerPoolOptions& opts = manager_->options();
  // Deterministic per-task salt for worker selection and backoff jitter.
  const uint64_t salt =
      job_id * 0x9e3779b97f4a7c15ULL ^
      (static_cast<uint64_t>(kind == TaskKind::kReduce) << 40) ^
      static_cast<uint64_t>(task_index);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Launch>> launches;
  int attempt_seq = 0;
  bool speculated = false;

  auto query_alive = [&]() -> Status {
    return query_ctx != nullptr ? query_ctx->CheckAlive() : Status::OK();
  };

  // One physical launch: unique attempt id (retries and speculative
  // duplicates never share one, so their attempt-scoped output files never
  // collide), its own cancellation token, its own thread.
  auto start_launch = [&](bool speculative, int exclude_worker) {
    auto owned = std::make_unique<Launch>();
    Launch* launch = owned.get();
    launch->attempt = attempt_seq++;
    launch->speculative = speculative;
    launch->cancel = std::make_shared<CancellationToken>();
    launch->started = std::chrono::steady_clock::now();
    auto pick = manager_->PickWorker(
        salt ^ (0xA77ULL * static_cast<uint64_t>(launch->attempt + 1)),
        exclude_worker);
    launch->worker = pick.ok() ? *pick : -1;
    if (launch->worker < 0) {
      // Graceful degradation: every worker dead or blacklisted — run the
      // attempt on the caller's own pool instead of failing the query.
      out.ran_local_fallback = true;
    }
    out.dispatches += 1;
    if (speculative) {
      out.speculative_launches += 1;
    } else if (launch->attempt > 0) {
      out.retries += 1;
    }

    TaskRequest request;
    request.job_id = job_id;
    request.job_name = job_name;
    request.kind = kind;
    request.task_index = task_index;
    request.attempt = launch->attempt;
    if (kind == TaskKind::kMap) request.split = split;

    launch->thread = std::thread(
        [this, launch, request = std::move(request), &mu, &cv, job_id]() {
          Stopwatch watch;
          Status status;
          if (launch->worker < 0) {
            TaskExecutor executor = FallbackExecutor(job_id);
            status = executor
                         ? executor(request, launch->cancel.get())
                         : Status::Internal(
                               "dispatch fallback: job " +
                               std::to_string(job_id) +
                               " has no registered executor");
          } else {
            status = transport_->Dispatch(launch->worker, request,
                                          launch->cancel);
            // Cancelled launches (speculative losers, abandoned rpcs) say
            // nothing about the worker's health.
            if (status.code() != StatusCode::kCancelled) {
              manager_->ReportDispatch(launch->worker, status.ok());
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          launch->result = std::move(status);
          launch->duration_millis = watch.ElapsedMillis();
          launch->done = true;
          cv.notify_all();
        });
    launches.push_back(std::move(owned));
  };

  // Single exit path: cancel everything still in flight, join every launch
  // thread (no execution of this task outlives RunTask), settle the
  // speculation scoreboard.
  auto finish = [&](Status final_status,
                    int winning_attempt) -> DispatchOutcome {
    for (auto& launch : launches) launch->cancel->Cancel();
    for (auto& launch : launches) {
      if (launch->thread.joinable()) launch->thread.join();
    }
    for (auto& launch : launches) {
      if (launch->speculative && launch->attempt != winning_attempt) {
        out.speculative_losses += 1;
      }
    }
    out.status = std::move(final_status);
    out.winning_attempt = winning_attempt;
    return out;
  };

  start_launch(/*speculative=*/false, /*exclude_worker=*/-1);
  Status last_error;

  while (true) {
    Launch* completed = nullptr;
    bool any_pending = false;
    Launch* pending_launch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(10), [&] {
        for (auto& launch : launches) {
          if (launch->done && !launch->consumed) return true;
        }
        return false;
      });
      for (auto& launch : launches) {
        if (launch->done && !launch->consumed && completed == nullptr) {
          completed = launch.get();
          launch->consumed = true;
        }
        if (!launch->done) {
          any_pending = true;
          pending_launch = launch.get();
        }
      }
    }

    Status alive = query_alive();
    if (!alive.ok()) return finish(std::move(alive), -1);

    if (completed != nullptr) {
      if (completed->result.ok()) {
        if (completed->speculative) out.speculative_won = true;
        manager_->RecordTaskDurationMillis(
            static_cast<int64_t>(completed->duration_millis));
        return finish(Status::OK(), completed->attempt);
      }
      if (completed->result.code() == StatusCode::kCancelled) {
        // A cancelled loser, not a task failure; doesn't burn an attempt.
        continue;
      }
      last_error = completed->result;
      out.failures += 1;
      out.retried_nanos +=
          static_cast<int64_t>(completed->duration_millis * 1e6);
      if (completed->result.code() == StatusCode::kDeadlineExceeded) {
        out.timeouts += 1;
      }
      continue;  // Another launch may still be pending and win.
    }

    if (!any_pending) {
      // Every launch settled without a winner.
      if (out.failures >= max_attempts) {
        return finish(std::move(last_error), -1);
      }
      // Backoff before the retry, deterministic in (seed, salt, failure
      // count); sliced so a dying query doesn't wait the backoff out.
      int64_t delay = BackoffDelayMillis(opts.retry_backoff,
                                         out.failures - 1, opts.seed ^ salt);
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(delay);
      while (std::chrono::steady_clock::now() < until &&
             query_alive().ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<int64_t>(10, delay > 0 ? delay : 1)));
      }
      start_launch(/*speculative=*/false, /*exclude_worker=*/-1);
      continue;
    }

    // One launch still running: speculate once it looks like a straggler
    // (past the manager's p99-based threshold), at most one duplicate per
    // logical task, preferably on a different worker.
    if (!speculated && pending_launch != nullptr &&
        !pending_launch->speculative && pending_launch->worker >= 0) {
      int64_t threshold_millis = manager_->SpeculativeDelayMillis();
      if (threshold_millis >= 0) {
        auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - pending_launch->started)
                .count();
        if (elapsed >= threshold_millis) {
          speculated = true;
          start_launch(/*speculative=*/true,
                       /*exclude_worker=*/pending_launch->worker);
        }
      }
    }
  }
}

}  // namespace minihive::mr
