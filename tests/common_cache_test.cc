#include "common/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace minihive::cache {
namespace {

std::shared_ptr<const void> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

std::string GetVal(Cache::Handle* handle) {
  return *Cache::value<std::string>(handle);
}

TEST(CacheTest, InsertLookupRoundtrip) {
  Cache cache("test", 4096);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  Cache::Handle* h = cache.Insert("k1", Val("v1"), 100);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(GetVal(h), "v1");
  cache.Release(h);

  Cache::Handle* h2 = cache.Lookup("k1");
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(GetVal(h2), "v1");
  cache.Release(h2);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.usage(), 100u);
}

TEST(CacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard so the LRU order is global and deterministic.
  Cache cache("test", 300, /*num_shards=*/1);
  ASSERT_TRUE(cache.InsertAndRelease("a", Val("a"), 100));
  ASSERT_TRUE(cache.InsertAndRelease("b", Val("b"), 100));
  ASSERT_TRUE(cache.InsertAndRelease("c", Val("c"), 100));

  // Touch "a" so "b" is now the least recently used.
  Cache::Handle* h = cache.Lookup("a");
  ASSERT_NE(h, nullptr);
  cache.Release(h);

  ASSERT_TRUE(cache.InsertAndRelease("d", Val("d"), 100));
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // Evicted.
  for (const char* live : {"a", "c", "d"}) {
    Cache::Handle* lh = cache.Lookup(live);
    ASSERT_NE(lh, nullptr) << live;
    cache.Release(lh);
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, 100u);
  EXPECT_LE(cache.usage(), cache.capacity());
}

TEST(CacheTest, BudgetNeverExceededByInsertSweep) {
  Cache cache("test", 1000, /*num_shards=*/1);
  for (int i = 0; i < 100; ++i) {
    cache.InsertAndRelease(std::string("k").append(std::to_string(i)), Val("x"),
                           90);
    EXPECT_LE(cache.usage(), cache.capacity());
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(CacheTest, PinnedEntriesSurvivePressureAndBlockInserts) {
  Cache cache("test", 300, /*num_shards=*/1);
  Cache::Handle* pinned = cache.Insert("pin", Val("pinned"), 200);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(cache.pinned_usage(), 200u);

  // Fits beside the pin.
  ASSERT_TRUE(cache.InsertAndRelease("small", Val("s"), 100));
  // Does not fit: the pin cannot be evicted, so the insert is refused
  // rather than overcommitting.
  EXPECT_FALSE(cache.InsertAndRelease("big", Val("b"), 250));
  EXPECT_EQ(cache.stats().insert_rejects, 1u);
  EXPECT_LE(cache.usage(), cache.capacity());

  // The pinned entry is still resident and intact.
  EXPECT_EQ(GetVal(pinned), "pinned");
  Cache::Handle* again = cache.Lookup("pin");
  ASSERT_NE(again, nullptr);
  cache.Release(again);
  cache.Release(pinned);

  // Unpinned now: the big entry can displace it.
  ASSERT_TRUE(cache.InsertAndRelease("big", Val("b"), 250));
  EXPECT_EQ(cache.Lookup("pin"), nullptr);
}

TEST(CacheTest, OversizedChargeRefused) {
  Cache cache("test", 100);
  EXPECT_EQ(cache.Insert("huge", Val("h"), 1 << 20), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_EQ(cache.stats().insert_rejects, 1u);
}

TEST(CacheTest, ZeroBudgetDisablesCaching) {
  Cache cache("test", 0);
  EXPECT_FALSE(cache.InsertAndRelease("k", Val("v"), 1));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(CacheTest, ReplaceSameKeyServesNewValueOldPinStaysValid) {
  Cache cache("test", 4096);
  Cache::Handle* old_pin = cache.Insert("k", Val("old"), 100);
  ASSERT_NE(old_pin, nullptr);
  ASSERT_TRUE(cache.InsertAndRelease("k", Val("new"), 100));

  Cache::Handle* h = cache.Lookup("k");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(GetVal(h), "new");
  cache.Release(h);

  // The replaced entry stays alive for its holder until released.
  EXPECT_EQ(GetVal(old_pin), "old");
  cache.Release(old_pin);
  EXPECT_EQ(cache.usage(), 100u);
}

TEST(CacheTest, EraseDropsEntry) {
  Cache cache("test", 4096);
  ASSERT_TRUE(cache.InsertAndRelease("k", Val("v"), 100));
  cache.Erase("k");
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
  cache.Erase("k");  // Erasing a missing key is a no-op.
}

TEST(CacheTest, ValueOutlivesEviction) {
  Cache cache("test", 200, /*num_shards=*/1);
  Cache::Handle* h = cache.Insert("k", Val("survivor"), 150);
  ASSERT_NE(h, nullptr);
  std::shared_ptr<const std::string> value = Cache::value<std::string>(h);
  cache.Release(h);
  // Push the entry out.
  ASSERT_TRUE(cache.InsertAndRelease("other", Val("o"), 150));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(*value, "survivor");  // shared_ptr keeps the bytes alive.
}

TEST(CacheTest, ConcurrentStressRespectsBudgetAndIntegrity) {
  // The budget contract under contention: at NO observed instant may usage
  // exceed capacity, and a hit must always return the exact bytes inserted
  // under that key. 8 threads × mixed insert/lookup/erase over a keyspace
  // larger than the cache forces constant eviction on every shard.
  constexpr uint64_t kCapacity = 64 * 1024;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 256;
  Cache cache("stress", kCapacity);
  std::atomic<bool> failed{false};

  auto worker = [&](int tid) {
    uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(tid + 1);
    auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int op = 0; op < kOpsPerThread; ++op) {
      int k = static_cast<int>(next() % kKeySpace);
      std::string key = "key" + std::to_string(k);
      // The value is derived from the key, so any cross-key mixup is
      // detectable from a reader thread.
      std::string expect = "value-for-" + key;
      switch (next() % 4) {
        case 0: {
          size_t charge = 64 + next() % 1024;
          cache.InsertAndRelease(key, Val(expect), charge);
          break;
        }
        case 1:
        case 2: {
          Cache::Handle* h = cache.Lookup(key);
          if (h != nullptr) {
            if (GetVal(h) != expect) failed.store(true);
            cache.Release(h);
          }
          break;
        }
        case 3:
          cache.Erase(key);
          break;
      }
      if (cache.usage() > kCapacity) failed.store(true);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.usage(), kCapacity);
  const Cache::StatsSnapshot stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.inserted_bytes, stats.evicted_bytes);
}

TEST(KeyBuilderTest, FieldBoundariesNeverCollide) {
  std::string ab_c = KeyBuilder("t").Add("ab").Add("c").Take();
  std::string a_bc = KeyBuilder("t").Add("a").Add("bc").Take();
  EXPECT_NE(ab_c, a_bc);

  std::string tag_split = KeyBuilder("tx").Add("y").Take();
  std::string tag_whole = KeyBuilder("t").Add("xy").Take();
  EXPECT_NE(tag_split, tag_whole);

  // (path, generation, offset) keys, the shape of the metadata cache's.
  auto key = [](uint64_t generation, uint64_t offset) {
    return KeyBuilder("m").Add("/f").Add(generation).Add(offset).Take();
  };
  EXPECT_NE(key(1, 2), key(2, 1));
  EXPECT_NE(key(1, 2), key(1, 3));
  // Same path, different generation: the invalidation mechanism.
  EXPECT_NE(key(1, 0), key(2, 0));
}

TEST(CacheManagerTest, ZeroBudgetDisablesMetadataCache) {
  CacheManager on(2048);
  ASSERT_NE(on.metadata_cache(), nullptr);
  EXPECT_EQ(on.metadata_cache()->capacity(), 2048u);

  CacheManager off(0);
  EXPECT_EQ(off.metadata_cache(), nullptr);
}

}  // namespace
}  // namespace minihive::cache
