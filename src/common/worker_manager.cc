#include "common/worker_manager.h"

#include <algorithm>

namespace minihive {

namespace {

/// SplitMix64 finalizer (same mix as the fault injector's): deterministic
/// worker selection from (seed, salt).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kDurationWindow = 256;

}  // namespace

WorkerManager::WorkerManager(const WorkerPoolOptions& options)
    : options_(options),
      workers_(std::max(0, options.num_workers)),
      durations_(kDurationWindow, 0) {}

WorkerManager::~WorkerManager() { StopMonitor(); }

bool WorkerManager::StartMonitor(HeartbeatFn probe) {
  if (options_.heartbeat_millis <= 0 || workers_.empty()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (monitor_running_) return false;
    monitor_running_ = true;
    monitor_stop_ = false;
  }
  monitor_ = std::thread([this, probe = std::move(probe)]() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!monitor_stop_) {
      monitor_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.heartbeat_millis),
          [this] { return monitor_stop_; });
      if (monitor_stop_) return;
      lock.unlock();
      for (int w = 0; w < num_workers(); ++w) {
        ReportHeartbeat(w, probe(w).ok());
      }
      lock.lock();
    }
  });
  return true;
}

void WorkerManager::StopMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!monitor_running_) return;
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  monitor_running_ = false;
}

Result<int> WorkerManager::PickWorker(uint64_t salt, int exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> usable;
  usable.reserve(workers_.size());
  for (int w = 0; w < num_workers(); ++w) {
    if (w != exclude && UsableLocked(workers_[w])) usable.push_back(w);
  }
  // A speculative duplicate prefers a different worker, but a one-worker
  // pool still speculates on the same one (the straggle may be the task's
  // queue position, not the worker).
  if (usable.empty() && exclude >= 0 &&
      UsableLocked(workers_[exclude])) {
    usable.push_back(exclude);
  }
  if (usable.empty()) {
    return Status::ResourceExhausted(
        "no usable worker: all " + std::to_string(num_workers()) +
        " workers are dead or blacklisted");
  }
  return usable[Mix(options_.seed ^ salt) % usable.size()];
}

void WorkerManager::ReportDispatch(int worker, bool ok) {
  if (worker < 0 || worker >= num_workers()) return;
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& w = workers_[worker];
  if (ok) {
    if (w.on_probation) probation_readmissions_ += 1;
    w.dispatch_failures = 0;
    w.on_probation = false;
    w.blacklisted_until = Clock::time_point{};
  } else {
    w.dispatch_failures += 1;
    int limit = std::max(1, options_.worker_blacklist_failures);
    // On probation one more failure re-blacklists immediately.
    if (w.dispatch_failures >= limit || w.on_probation) {
      w.blacklisted_until =
          Clock::now() +
          std::chrono::milliseconds(options_.blacklist_probation_millis);
      // Probation: once the sit-out expires the worker is usable again,
      // but the next failure re-blacklists without a fresh failure budget.
      w.on_probation = true;
      w.dispatch_failures = 0;
      blacklists_ += 1;
    }
  }
}

void WorkerManager::ReportHeartbeat(int worker, bool ok) {
  if (worker < 0 || worker >= num_workers()) return;
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& w = workers_[worker];
  if (ok) {
    w.missed_beats = 0;
    w.alive = true;  // Revival: probes succeeding again = worker is back.
  } else {
    w.missed_beats += 1;
    heartbeats_missed_ += 1;
    if (w.alive &&
        w.missed_beats >= std::max(1, options_.missed_heartbeats_dead)) {
      w.alive = false;
      deaths_ += 1;
    }
  }
}

bool WorkerManager::IsAlive(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return worker >= 0 && worker < num_workers() && workers_[worker].alive;
}

bool WorkerManager::IsBlacklisted(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return worker >= 0 && worker < num_workers() &&
         BlacklistedLocked(workers_[worker]);
}

bool WorkerManager::IsUsable(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return worker >= 0 && worker < num_workers() &&
         UsableLocked(workers_[worker]);
}

void WorkerManager::RecordTaskDurationMillis(int64_t millis) {
  std::lock_guard<std::mutex> lock(mu_);
  durations_[duration_pos_] = millis;
  duration_pos_ = (duration_pos_ + 1) % durations_.size();
  duration_count_ = std::min(duration_count_ + 1, durations_.size());
}

int64_t WorkerManager::SpeculativeDelayMillis() const {
  if (options_.speculative_threshold <= 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (duration_count_ <
      static_cast<size_t>(std::max(1, options_.min_duration_samples))) {
    return -1;
  }
  std::vector<int64_t> sorted(durations_.begin(),
                              durations_.begin() + duration_count_);
  std::sort(sorted.begin(), sorted.end());
  int64_t p99 = sorted[(sorted.size() * 99) / 100];
  auto threshold =
      static_cast<int64_t>(static_cast<double>(p99) *
                           options_.speculative_threshold);
  return std::max(threshold, options_.speculative_min_millis);
}

WorkerPoolStats WorkerManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerPoolStats out{.heartbeats_missed = heartbeats_missed_,
                      .deaths = deaths_,
                      .blacklists = blacklists_,
                      .probation_readmissions = probation_readmissions_};
  for (const WorkerState& w : workers_) {
    if (w.alive) out.alive += 1;
    if (BlacklistedLocked(w)) out.blacklisted += 1;
  }
  return out;
}

}  // namespace minihive
