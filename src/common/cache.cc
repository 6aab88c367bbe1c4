#include "common/cache.h"

#include <cassert>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/telemetry.h"

namespace minihive::cache {

// ---------------------------------------------------------------------------
// Entry / Handle
//
// One heap-allocated Entry per cached key. An Entry is "resident" while it
// sits in its shard's table (in_table == true) and charged against the
// budget; Lookup/Insert hand it out as an opaque Handle* with refs counting
// the outstanding pins (plus one ref held by the table itself). Only
// resident entries with refs == 1 (table-only) sit on the LRU list and are
// evictable. Detaching (evict/erase/replace) removes the table ref and
// uncharges the budget; the entry is freed when the last pin drops.
// ---------------------------------------------------------------------------

struct Cache::Handle {
  std::shared_ptr<const void> value;
  std::string key;
  size_t charge = 0;
  uint32_t refs = 0;     // Pins + 1 for table residency. Guarded by shard mu.
  bool in_table = false;  // Guarded by shard mu.
  Handle* next = nullptr;  // LRU list links; meaningful only while listed.
  Handle* prev = nullptr;
};

namespace {

using Entry = Cache::Handle;

void ListRemove(Entry* e) {
  e->prev->next = e->next;
  e->next->prev = e->prev;
  e->next = e->prev = nullptr;
}

void ListAppend(Entry* list, Entry* e) {  // Before `list` == MRU end.
  e->next = list;
  e->prev = list->prev;
  e->prev->next = e;
  e->next->prev = e;
}

}  // namespace

struct RegistryMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* inserts;
  telemetry::Counter* insert_rejects;
  telemetry::Counter* evictions;
  telemetry::Counter* inserted_bytes;
  telemetry::Counter* evicted_bytes;
  telemetry::Gauge* bytes_used;
  telemetry::Gauge* pinned_bytes;
};

namespace {

RegistryMetrics MakeRegistryMetrics(const std::string& name) {
  auto& reg = telemetry::MetricsRegistry::Global();
  RegistryMetrics m;
  m.hits = reg.GetCounter(name + ".hits");
  m.misses = reg.GetCounter(name + ".misses");
  m.inserts = reg.GetCounter(name + ".inserts");
  m.insert_rejects = reg.GetCounter(name + ".insert_rejects");
  m.evictions = reg.GetCounter(name + ".evictions");
  m.inserted_bytes = reg.GetCounter(name + ".inserted_bytes");
  m.evicted_bytes = reg.GetCounter(name + ".evicted_bytes");
  m.bytes_used = reg.GetGauge(name + ".bytes_used");
  m.pinned_bytes = reg.GetGauge(name + ".pinned_bytes");
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

struct Cache::Shard {
  explicit Shard(uint64_t capacity) : capacity_bytes(capacity) {
    lru.next = &lru;
    lru.prev = &lru;
  }

  const uint64_t capacity_bytes;

  std::mutex mu;
  // Keys are string_views into the entries' own key strings; an entry is
  // removed from the table before it can be freed, so views never dangle.
  std::unordered_map<std::string_view, Entry*> table;
  Entry lru;  // Sentinel of the circular list; lru.next is LRU, prev is MRU.
  uint64_t usage_bytes = 0;        // Sum of resident charges. Guarded by mu.
  uint64_t pinned_bytes = 0;       // Resident entries with pins. Guarded by mu.
  // Lock-free mirrors for usage()/pinned_usage(); written only at the end of
  // a locked operation so readers never observe a transient overshoot.
  std::atomic<uint64_t> usage_mirror{0};
  std::atomic<uint64_t> pinned_mirror{0};

  // Instance stats (monotonic, survive registry ResetAll).
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> insert_rejects{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> inserted_bytes{0};
  std::atomic<uint64_t> evicted_bytes{0};

  void PublishMirrors() {
    usage_mirror.store(usage_bytes, std::memory_order_relaxed);
    pinned_mirror.store(pinned_bytes, std::memory_order_relaxed);
  }

  // Removes `e` from the table (and LRU list if listed), uncharging the
  // budget. Caller holds mu and takes over the table's reference: append
  // `e` to `unpinned` when the drop leaves refs == 0.
  void Detach(Entry* e, std::vector<Entry*>* unpinned) {
    table.erase(std::string_view(e->key));
    e->in_table = false;
    if (e->next != nullptr) ListRemove(e);
    usage_bytes -= e->charge;
    if (e->refs > 1) pinned_bytes -= e->charge;
    if (--e->refs == 0) unpinned->push_back(e);
  }

  // Evicts LRU entries until at least `need` bytes fit. Caller holds mu.
  // Returns false when pinned entries make that impossible.
  bool EvictFor(uint64_t need, std::vector<Entry*>* freed, uint64_t* evicted,
                uint64_t* evicted_charge) {
    if (need > capacity_bytes) return false;
    while (capacity_bytes - usage_bytes < need) {
      Entry* victim = lru.next;
      if (victim == &lru) return false;  // Everything left is pinned.
      *evicted += 1;
      *evicted_charge += victim->charge;
      Detach(victim, freed);
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

// One registry-metrics bundle per cache *name* — the registry merges
// duplicate names into stable pointers anyway, this just avoids re-looking
// them up on every operation. Bundles are never removed (like the registry).
static RegistryMetrics* MetricsFor(const std::string& name) {
  static std::mutex mu;
  static std::unordered_map<std::string, RegistryMetrics>* map =
      new std::unordered_map<std::string, RegistryMetrics>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(name, MakeRegistryMetrics(name)).first;
  }
  return &it->second;
}

Cache::Cache(std::string name, uint64_t capacity_bytes, int num_shards)
    : name_(std::move(name)),
      capacity_(capacity_bytes),
      registry_metrics_(MetricsFor(name_)) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(num_shards);
  // Split the budget so shard capacities sum exactly to the total: the
  // global bound then holds with purely shard-local accounting.
  uint64_t base = capacity_bytes / num_shards;
  uint64_t remainder = capacity_bytes % num_shards;
  for (int i = 0; i < num_shards; ++i) {
    uint64_t cap = base + (static_cast<uint64_t>(i) < remainder ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(cap));
  }
}

Cache::~Cache() {
  // All handles must have been released; every entry is table-resident with
  // exactly the table reference. The registry gauges are process-global and
  // outlive this instance, so give back what we charged.
  int64_t usage = 0, pinned = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    usage += static_cast<int64_t>(shard->usage_bytes);
    pinned += static_cast<int64_t>(shard->pinned_bytes);
    for (auto& [key, entry] : shard->table) {
      assert(entry->refs == 1);
      delete entry;
    }
    shard->table.clear();
  }
  if (usage != 0) registry_metrics_->bytes_used->Add(-usage);
  if (pinned != 0) registry_metrics_->pinned_bytes->Add(-pinned);
}

Cache::Shard* Cache::ShardFor(std::string_view key) {
  size_t h = std::hash<std::string_view>{}(key);
  // Mix: std::hash on short keys can be weak in the low bits.
  h ^= h >> 17;
  h *= 0x9E3779B97F4A7C15ull;
  h ^= h >> 29;
  return shards_[h % shards_.size()].get();
}

Cache::Handle* Cache::Insert(std::string_view key,
                             std::shared_ptr<const void> value, size_t charge) {
  RegistryMetrics* rm = registry_metrics_;
  Shard* shard = ShardFor(key);
  std::vector<Entry*> freed;
  uint64_t evicted = 0, evicted_charge = 0;
  Entry* result = nullptr;
  bool rejected = false;
  int64_t usage_delta = 0, pinned_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    int64_t usage_before = static_cast<int64_t>(shard->usage_bytes);
    int64_t pinned_before = static_cast<int64_t>(shard->pinned_bytes);
    // Replace-semantics: detach any current entry first so its charge frees
    // up before we decide whether the new one fits.
    auto it = shard->table.find(key);
    if (it != shard->table.end()) shard->Detach(it->second, &freed);
    if (!shard->EvictFor(charge, &freed, &evicted, &evicted_charge)) {
      rejected = true;
    } else {
      Entry* e = new Entry();
      e->value = std::move(value);
      e->key.assign(key.data(), key.size());
      e->charge = charge;
      e->refs = 2;  // Table + the returned pin.
      e->in_table = true;
      shard->table.emplace(std::string_view(e->key), e);
      shard->usage_bytes += charge;
      shard->pinned_bytes += charge;
      result = e;
    }
    shard->PublishMirrors();
    usage_delta = static_cast<int64_t>(shard->usage_bytes) - usage_before;
    pinned_delta = static_cast<int64_t>(shard->pinned_bytes) - pinned_before;
  }
  for (Entry* e : freed) delete e;
  // Stats outside the lock: counters are atomics.
  if (evicted > 0) {
    shard->evictions.fetch_add(evicted, std::memory_order_relaxed);
    shard->evicted_bytes.fetch_add(evicted_charge, std::memory_order_relaxed);
    rm->evictions->Add(evicted);
    rm->evicted_bytes->Add(evicted_charge);
  }
  if (rejected) {
    shard->insert_rejects.fetch_add(1, std::memory_order_relaxed);
    rm->insert_rejects->Increment();
  } else {
    shard->inserts.fetch_add(1, std::memory_order_relaxed);
    shard->inserted_bytes.fetch_add(charge, std::memory_order_relaxed);
    rm->inserts->Increment();
    rm->inserted_bytes->Add(charge);
  }
  if (usage_delta != 0) rm->bytes_used->Add(usage_delta);
  if (pinned_delta != 0) rm->pinned_bytes->Add(pinned_delta);
  return result;
}

Cache::Handle* Cache::Lookup(std::string_view key) {
  RegistryMetrics* rm = registry_metrics_;
  Shard* shard = ShardFor(key);
  Entry* e = nullptr;
  int64_t pinned_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->table.find(key);
    if (it != shard->table.end()) {
      e = it->second;
      if (e->refs == 1) {
        // Was evictable; pinning removes it from the LRU list.
        ListRemove(e);
        shard->pinned_bytes += e->charge;
        pinned_delta = static_cast<int64_t>(e->charge);
      }
      ++e->refs;
      shard->PublishMirrors();
    }
  }
  if (e != nullptr) {
    shard->hits.fetch_add(1, std::memory_order_relaxed);
    rm->hits->Increment();
    if (pinned_delta != 0) rm->pinned_bytes->Add(pinned_delta);
  } else {
    shard->misses.fetch_add(1, std::memory_order_relaxed);
    rm->misses->Increment();
  }
  return e;
}

void Cache::Release(Handle* handle) {
  if (handle == nullptr) return;
  RegistryMetrics* rm = registry_metrics_;
  Shard* shard = ShardFor(handle->key);
  bool free_entry = false;
  int64_t pinned_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    Entry* e = handle;
    if (--e->refs == 0) {
      // Last reference to a detached entry.
      free_entry = true;
    } else if (e->refs == 1 && e->in_table) {
      // Last pin dropped; back onto the LRU list as most-recently-used.
      ListAppend(&shard->lru, e);
      shard->pinned_bytes -= e->charge;
      pinned_delta = -static_cast<int64_t>(e->charge);
      shard->PublishMirrors();
    }
  }
  if (free_entry) delete handle;
  if (pinned_delta != 0) rm->pinned_bytes->Add(pinned_delta);
}

void Cache::Erase(std::string_view key) {
  RegistryMetrics* rm = registry_metrics_;
  Shard* shard = ShardFor(key);
  std::vector<Entry*> freed;
  int64_t usage_delta = 0, pinned_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->table.find(key);
    if (it == shard->table.end()) return;
    int64_t usage_before = static_cast<int64_t>(shard->usage_bytes);
    int64_t pinned_before = static_cast<int64_t>(shard->pinned_bytes);
    shard->Detach(it->second, &freed);
    shard->PublishMirrors();
    usage_delta = static_cast<int64_t>(shard->usage_bytes) - usage_before;
    pinned_delta = static_cast<int64_t>(shard->pinned_bytes) - pinned_before;
  }
  for (Entry* e : freed) delete e;
  if (usage_delta != 0) rm->bytes_used->Add(usage_delta);
  if (pinned_delta != 0) rm->pinned_bytes->Add(pinned_delta);
}

const std::shared_ptr<const void>& Cache::raw_value(Handle* handle) {
  return handle->value;
}

uint64_t Cache::usage() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->usage_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Cache::pinned_usage() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->pinned_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

Cache::StatsSnapshot Cache::stats() const {
  StatsSnapshot s;
  for (const auto& shard : shards_) {
    s.hits += shard->hits.load(std::memory_order_relaxed);
    s.misses += shard->misses.load(std::memory_order_relaxed);
    s.inserts += shard->inserts.load(std::memory_order_relaxed);
    s.insert_rejects += shard->insert_rejects.load(std::memory_order_relaxed);
    s.evictions += shard->evictions.load(std::memory_order_relaxed);
    s.inserted_bytes += shard->inserted_bytes.load(std::memory_order_relaxed);
    s.evicted_bytes += shard->evicted_bytes.load(std::memory_order_relaxed);
  }
  return s;
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
    metadata_cache_ =
        std::make_unique<Cache>("orc.metadata_cache", metadata_cache_bytes);
  }
}

}  // namespace minihive::cache
