#include "common/cache.h"

#include <utility>

#include "common/bytes.h"

namespace minihive::cache {

std::shared_ptr<const void> Cache::Lookup(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.end(), lru_, it->second);
  return it->second->value;
}

bool Cache::Insert(std::string_view key, std::shared_ptr<const void> value,
                   size_t charge) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = table_.find(key); it != table_.end()) Remove(it->second);
  if (charge > capacity_) {
    ++stats_.insert_rejects;
    return false;
  }
  while (capacity_ - usage_ < charge) {
    ++stats_.evictions;
    stats_.evicted_bytes += lru_.front().charge;
    Remove(lru_.begin());
  }
  lru_.push_back(Entry{std::string(key), std::move(value), charge});
  table_.emplace(lru_.back().key, std::prev(lru_.end()));
  usage_ += charge;
  ++stats_.inserts;
  stats_.inserted_bytes += charge;
  return true;
}

void Cache::Remove(List::iterator it) {
  table_.erase(it->key);
  usage_ -= it->charge;
  lru_.erase(it);
}

uint64_t Cache::usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usage_;
}

Cache::StatsSnapshot Cache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

KeyBuilder::KeyBuilder(std::string_view type_tag) {
  PutLengthPrefixed(&key_, type_tag);
}

KeyBuilder& KeyBuilder::Add(std::string_view field) {
  PutLengthPrefixed(&key_, field);
  return *this;
}

KeyBuilder& KeyBuilder::Add(uint64_t field) {
  PutVarint64(&key_, field);
  return *this;
}

// ---------------------------------------------------------------------------
// CacheManager
// ---------------------------------------------------------------------------

CacheManager::CacheManager(uint64_t metadata_cache_bytes) {
  if (metadata_cache_bytes > 0) {
    metadata_cache_ = std::make_unique<Cache>(metadata_cache_bytes);
  }
}

}  // namespace minihive::cache
