#ifndef MINIHIVE_ORC_MEMORY_MANAGER_H_
#define MINIHIVE_ORC_MEMORY_MANAGER_H_

#include <cstdint>
#include <map>
#include <mutex>

namespace minihive::orc {

/// Bounds the aggregate memory footprint of concurrent ORC writers inside
/// one task (paper §4.4). Each writer registers its configured stripe size;
/// when the total registered size exceeds the threshold, every writer's
/// *effective* stripe size is scaled down by threshold/total, and restored
/// when writers close. Thread-safe.
class MemoryManager {
 public:
  /// `threshold_bytes` is the maximum total memory writers may use (the
  /// paper defaults this to half the memory allocated to the task).
  explicit MemoryManager(uint64_t threshold_bytes)
      : threshold_(threshold_bytes) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Registers a writer identified by an opaque pointer.
  void AddWriter(const void* writer, uint64_t stripe_size) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = writers_.emplace(writer, stripe_size);
    if (!inserted) {
      total_ -= it->second;
      it->second = stripe_size;
    }
    total_ += stripe_size;
  }

  void RemoveWriter(const void* writer) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = writers_.find(writer);
    if (it == writers_.end()) return;
    total_ -= it->second;
    writers_.erase(it);
  }

  /// Current scale factor in (0, 1]: 1 while under the threshold, otherwise
  /// threshold / the registered total.
  double Scale() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (total_ <= threshold_ || total_ == 0) return 1.0;
    return static_cast<double>(threshold_) / static_cast<double>(total_);
  }

  uint64_t threshold() const { return threshold_; }

 private:
  const uint64_t threshold_;
  mutable std::mutex mutex_;
  std::map<const void*, uint64_t> writers_;
  uint64_t total_ = 0;
};

}  // namespace minihive::orc

#endif  // MINIHIVE_ORC_MEMORY_MANAGER_H_
