#ifndef MINIHIVE_COMMON_CACHE_H_
#define MINIHIVE_COMMON_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace minihive::cache {

/// Fixed per-entry bookkeeping charge added by callers on top of the value
/// bytes (entry struct, hash-table slot, LRU links). Keeping it in the
/// charge makes the budget honest for many-small-entry workloads.
inline constexpr size_t kEntryOverhead = 64;

/// A sharded, strictly memory-budgeted LRU cache (the LLAP-style in-memory
/// cache layer from modern Hive, scaled down). Values are type-erased
/// `shared_ptr<const void>` so cached objects are immutable and safely
/// shared across concurrent readers; each entry carries a caller-supplied
/// byte charge.
///
/// Budget contract — the property `common_cache_test` stress-verifies:
/// the sum of charges of resident entries NEVER exceeds the capacity, at
/// any instant, under any concurrency. Inserts evict least-recently-used
/// unpinned entries to make room; when pinned entries leave no room the
/// insert is REFUSED (returns null) instead of overcommitting. A capacity
/// of 0 therefore disables the cache outright.
///
/// Pinning: Lookup and a successful Insert return a pinned Handle. A pinned
/// entry cannot be evicted (an open ORC reader's footer stays resident no
/// matter the pressure) but keeps counting against the budget. Release()
/// every handle; an entry erased or replaced while pinned stays alive until
/// its last handle is released (the shared_ptr value keeps it valid), it
/// just stops being served to new lookups. All handles must be released
/// before the cache is destroyed.
///
/// Sharding: keys hash to one of `num_shards` shards, each with its own
/// mutex and intrusive LRU list; the budget is split evenly across shards
/// (sum of shard budgets == capacity, so the global bound holds without
/// any cross-shard coordination).
struct RegistryMetrics;  // Internal: resolved telemetry counter bundle.

class Cache {
 public:
  struct Handle;  // Opaque; owned by the cache.

  /// Monotonic per-instance statistics (survive MetricsRegistry::ResetAll,
  /// which benches call between phases). The same numbers are mirrored as
  /// registry counters named "<name>.hits", ".misses", ".inserts",
  /// ".insert_rejects", ".evictions", ".inserted_bytes", ".evicted_bytes".
  struct StatsSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t insert_rejects = 0;
    uint64_t evictions = 0;
    uint64_t inserted_bytes = 0;
    uint64_t evicted_bytes = 0;
  };

  /// `name` prefixes the registry metrics; re-using a name across instances
  /// merges their registry counters (instance stats() stay separate).
  Cache(std::string name, uint64_t capacity_bytes, int num_shards = 8);
  ~Cache();

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Inserts `value` under `key` (replacing any current entry) and returns
  /// a pinned handle, or null when the entry cannot fit within the budget
  /// after evicting everything unpinned — the value is then simply not
  /// cached and the caller keeps using its own shared_ptr.
  Handle* Insert(std::string_view key, std::shared_ptr<const void> value,
                 size_t charge);

  /// Insert without keeping the entry pinned (fire-and-forget population).
  /// Returns true when the entry was cached.
  bool InsertAndRelease(std::string_view key,
                        std::shared_ptr<const void> value, size_t charge) {
    Handle* handle = Insert(key, std::move(value), charge);
    if (handle == nullptr) return false;
    Release(handle);
    return true;
  }

  /// Returns a pinned handle for `key`, or null on miss. A hit moves the
  /// entry to most-recently-used.
  Handle* Lookup(std::string_view key);

  /// Drops one pin. After the last release an unpinned resident entry
  /// becomes evictable again; a detached entry is freed.
  void Release(Handle* handle);

  /// Detaches the entry for `key` (if any) so it is never served again.
  /// Pinned entries stay alive for their current holders.
  void Erase(std::string_view key);

  /// The cached value. The shared_ptr may outlive the handle and the entry.
  template <typename T>
  static std::shared_ptr<const T> value(Handle* handle) {
    return std::static_pointer_cast<const T>(raw_value(handle));
  }

  uint64_t capacity() const { return capacity_; }
  /// Bytes currently charged against the budget (always <= capacity()).
  uint64_t usage() const;
  /// Bytes of resident entries currently pinned by outstanding handles.
  uint64_t pinned_usage() const;

  StatsSnapshot stats() const;
  const std::string& name() const { return name_; }

 private:
  struct Shard;

  static const std::shared_ptr<const void>& raw_value(Handle* handle);
  Shard* ShardFor(std::string_view key);

  std::string name_;
  uint64_t capacity_;
  RegistryMetrics* registry_metrics_;  // Never null; registry-owned pointers.
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII pin: releases the handle on destruction / reset. Movable, so a
/// reader can hand its pins around without double-release risk.
class ScopedHandle {
 public:
  ScopedHandle() = default;
  ScopedHandle(Cache* cache, Cache::Handle* handle)
      : cache_(cache), handle_(handle) {}
  ScopedHandle(ScopedHandle&& other) noexcept
      : cache_(other.cache_), handle_(other.handle_) {
    other.cache_ = nullptr;
    other.handle_ = nullptr;
  }
  ScopedHandle& operator=(ScopedHandle&& other) noexcept {
    if (this != &other) {
      reset();
      cache_ = other.cache_;
      handle_ = other.handle_;
      other.cache_ = nullptr;
      other.handle_ = nullptr;
    }
    return *this;
  }
  ScopedHandle(const ScopedHandle&) = delete;
  ScopedHandle& operator=(const ScopedHandle&) = delete;
  ~ScopedHandle() { reset(); }

  void reset() {
    if (handle_ != nullptr) cache_->Release(handle_);
    cache_ = nullptr;
    handle_ = nullptr;
  }
  void reset(Cache* cache, Cache::Handle* handle) {
    reset();
    cache_ = cache;
    handle_ = handle;
  }

  Cache::Handle* get() const { return handle_; }
  explicit operator bool() const { return handle_ != nullptr; }

 private:
  Cache* cache_ = nullptr;
  Cache::Handle* handle_ = nullptr;
};

/// Typed-key builder: every field is length- or width-delimited, so distinct
/// field sequences can never collide ("a"+"bc" != "ab"+"c"), and every key
/// starts with a short type tag that namespaces the entry kind within a
/// cache ("orc.tail", ...).
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view type_tag);
  KeyBuilder& Add(std::string_view field);
  KeyBuilder& Add(uint64_t field);
  std::string Take() { return std::move(key_); }

 private:
  std::string key_;
};

/// The session cache of parsed ORC tails and per-stripe index structures,
/// keyed by `(path, generation)`: the filesystem bumps a path's generation on
/// every rewrite, so stale entries are never looked up again. A budget of 0
/// disables it (metadata_cache() returns null).
class CacheManager {
 public:
  explicit CacheManager(uint64_t metadata_cache_bytes);

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Sole reader: perfbench/src/util.cc. There is no block cache; always null.
  Cache* block_cache() const { return nullptr; }
  Cache* metadata_cache() const { return metadata_cache_.get(); }

 private:
  std::unique_ptr<Cache> metadata_cache_;
};

}  // namespace minihive::cache

#endif  // MINIHIVE_COMMON_CACHE_H_
