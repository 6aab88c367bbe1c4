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

/// The string cached under `key`, or "" on a miss.
std::string Get(Cache* cache, const std::string& key) {
  std::shared_ptr<const void> value = cache->Lookup(key);
  return value == nullptr ? ""
                          : *std::static_pointer_cast<const std::string>(value);
}

TEST(CacheTest, InsertLookupRoundtrip) {
  Cache cache(4096);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  ASSERT_TRUE(cache.Insert("k1", Val("v1"), 100));
  EXPECT_EQ(Get(&cache, "k1"), "v1");

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().inserted_bytes, 100u);
  EXPECT_EQ(cache.usage(), 100u);
}

TEST(CacheTest, EvictsLeastRecentlyUsedFirst) {
  Cache cache(300);
  ASSERT_TRUE(cache.Insert("a", Val("a"), 100));
  ASSERT_TRUE(cache.Insert("b", Val("b"), 100));
  ASSERT_TRUE(cache.Insert("c", Val("c"), 100));

  // Touch "a" so "b" is now the least recently used.
  EXPECT_EQ(Get(&cache, "a"), "a");

  ASSERT_TRUE(cache.Insert("d", Val("d"), 100));
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // Evicted.
  for (const char* live : {"a", "c", "d"}) {
    EXPECT_EQ(Get(&cache, live), live);
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, 100u);
  EXPECT_EQ(cache.usage(), 300u);
}

TEST(CacheTest, BudgetNeverExceededByInsertSweep) {
  Cache cache(1000);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Insert(std::string("k").append(std::to_string(i)),
                             Val("x"), 90));
    EXPECT_LE(cache.usage(), cache.capacity());
  }
  // 11 entries of 90 fit in 1000; every insert after the 11th evicts one.
  EXPECT_EQ(cache.stats().evictions, 89u);
  EXPECT_EQ(cache.usage(), 990u);
}

TEST(CacheTest, OversizedChargeRefused) {
  Cache cache(100);
  EXPECT_FALSE(cache.Insert("huge", Val("h"), 1 << 20));
  EXPECT_EQ(cache.Lookup("huge"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_EQ(cache.stats().insert_rejects, 1u);
}

TEST(CacheTest, ZeroBudgetDisablesCaching) {
  Cache cache(0);
  EXPECT_FALSE(cache.Insert("k", Val("v"), 1));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(CacheTest, ReplaceSameKeyServesNewValue) {
  Cache cache(4096);
  ASSERT_TRUE(cache.Insert("k", Val("old"), 100));
  ASSERT_TRUE(cache.Insert("k", Val("new"), 150));
  EXPECT_EQ(Get(&cache, "k"), "new");
  EXPECT_EQ(cache.usage(), 150u);  // The old charge was given back.
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheTest, ValueOutlivesEviction) {
  Cache cache(200);
  ASSERT_TRUE(cache.Insert("k", Val("survivor"), 150));
  std::shared_ptr<const void> value = cache.Lookup("k");
  ASSERT_NE(value, nullptr);
  // Push the entry out.
  ASSERT_TRUE(cache.Insert("other", Val("o"), 150));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  // The holder's shared_ptr keeps the bytes alive.
  EXPECT_EQ(*std::static_pointer_cast<const std::string>(value), "survivor");
}

TEST(CacheTest, ConcurrentStressRespectsBudgetAndIntegrity) {
  // The budget contract under contention: at NO observed instant may usage
  // exceed capacity, and a hit must always return the exact bytes inserted
  // under that key. 8 threads × mixed inserts and lookups over a keyspace
  // larger than the cache force constant eviction.
  constexpr uint64_t kCapacity = 64 * 1024;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 256;
  Cache cache(kCapacity);
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
      if (next() % 3 == 0) {
        size_t charge = 64 + next() % 1024;
        cache.Insert(key, Val(expect), charge);
      } else if (std::shared_ptr<const void> value = cache.Lookup(key)) {
        if (*std::static_pointer_cast<const std::string>(value) != expect) {
          failed.store(true);
        }
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
  EXPECT_GT(stats.hits, 0u);
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
