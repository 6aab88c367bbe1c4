#ifndef MINIHIVE_COMMON_CACHE_H_
#define MINIHIVE_COMMON_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace minihive::cache {

/// Fixed per-entry bookkeeping charge added by callers on top of the value
/// bytes (entry struct, hash-table slot, LRU links). Keeping it in the
/// charge makes the budget honest for many-small-entry workloads.
inline constexpr size_t kEntryOverhead = 64;

/// A memory-budgeted LRU cache of immutable shared values (the LLAP-style
/// metadata cache of modern Hive, scaled down): one mutex over an LRU list
/// and a hash map from key to `(shared_ptr<const void>, charge)`.
///
/// Budget contract: the sum of the resident entries' charges never exceeds
/// the capacity. An insert evicts least-recently-used entries until its
/// charge fits, and a charge larger than the capacity is refused, so a
/// capacity of 0 caches nothing. An evicted value stays alive for as long
/// as a caller holds its shared_ptr: a reader keeps what it looked up.
class Cache {
 public:
  /// Monotonic per-instance statistics, counted under the cache's lock.
  struct StatsSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t insert_rejects = 0;
    uint64_t evictions = 0;
    uint64_t inserted_bytes = 0;
    uint64_t evicted_bytes = 0;
  };

  explicit Cache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// The value cached under `key`, now the most recently used; null on a
  /// miss.
  std::shared_ptr<const void> Lookup(std::string_view key);

  /// Caches `value` under `key`, replacing any entry with that key, and
  /// evicts from the least-recently-used end until `charge` fits. Returns
  /// false, caching nothing, when `charge` exceeds the capacity.
  bool Insert(std::string_view key, std::shared_ptr<const void> value,
              size_t charge);

  uint64_t capacity() const { return capacity_; }
  /// Bytes currently charged against the budget (always <= capacity()).
  uint64_t usage() const;
  StatsSnapshot stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    size_t charge;
  };
  using List = std::list<Entry>;

  /// Unlinks `it`, uncharging the budget. Caller holds mu_.
  void Remove(List::iterator it);

  const uint64_t capacity_;
  mutable std::mutex mu_;
  List lru_;  // Front is the least recently used.
  // Keys view the entries' own key strings; list nodes never move.
  std::unordered_map<std::string_view, List::iterator> table_;
  uint64_t usage_ = 0;
  StatsSnapshot stats_;
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
