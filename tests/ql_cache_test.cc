// End-to-end session cache behaviour: a query run twice in one Driver
// session hits the ORC metadata cache on the second run, with
// byte-identical results, and the cache and the bytes it saves are
// observable in EXPLAIN PROFILE. Also: fault-tainted reads must never
// populate the cache.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/fault.h"
#include "common/json.h"
#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

constexpr const char* kScanSql =
    "SELECT l_orderkey, SUM(l_amount) AS total FROM lineitem "
    "WHERE l_quantity > 2 GROUP BY l_orderkey ORDER BY l_orderkey";

class QlCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    std::vector<Row> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back({Value::Int(i % 200), Value::Int(i % 7),
                      Value::Double((i % 90) * 1.25)});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "lineitem",
                    *TypeDescription::Parse("struct<l_orderkey:bigint,"
                                            "l_quantity:bigint,"
                                            "l_amount:double>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, rows, 4)
                    .ok());
  }

  QueryResult MustExecute(Driver* driver, const std::string& sql) {
    auto result = driver->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  // Extracts the integer value of `key` from the profile's JSON (the query
  // root span's attrs come first, before any job span's).
  static uint64_t ProfileAttr(const telemetry::Span* profile,
                              const std::string& key) {
    json::Writer writer;
    profile->WriteJson(&writer, /*include_timing=*/false);
    const std::string text = writer.str();
    const std::string needle = "\"" + key + "\": ";
    size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " missing in " << text;
    if (pos == std::string::npos) return 0;
    return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
  }

  static std::string RowsToString(const std::vector<Row>& rows) {
    std::string out;
    for (const Row& row : rows) {
      for (const Value& v : row) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(QlCacheTest, SecondRunHitsMetadataCacheWithIdenticalResults) {
  std::string cached_first, cached_second;
  {
    Driver driver(fs_.get(), catalog_.get());
    QueryResult first =
        MustExecute(&driver, std::string("EXPLAIN PROFILE ") + kScanSql);
    ASSERT_NE(first.profile, nullptr);
    cached_first = RowsToString(first.rows);
    uint64_t first_meta_hits =
        ProfileAttr(first.profile.get(), "metadata_cache_hits");

    QueryResult second =
        MustExecute(&driver, std::string("EXPLAIN PROFILE ") + kScanSql);
    ASSERT_NE(second.profile, nullptr);
    cached_second = RowsToString(second.rows);

    // The acceptance check: rerunning in the same session hits the
    // metadata cache, visibly in the profile, and skips the tail and
    // stripe-metadata reads it would otherwise repeat.
    EXPECT_GT(ProfileAttr(second.profile.get(), "metadata_cache_hits"),
              first_meta_hits);
    const uint64_t first_bytes = ProfileAttr(first.profile.get(), "bytes_read");
    EXPECT_GT(first_bytes, 0u);
    EXPECT_LT(ProfileAttr(second.profile.get(), "bytes_read"), first_bytes);
    EXPECT_EQ(cached_first, cached_second);
  }  // Driver destroyed: its cache is uninstalled from the filesystem.

  // Cache fully disabled: results must be byte-identical.
  DriverOptions no_cache;
  no_cache.metadata_cache_bytes = 0;
  Driver cold_driver(fs_.get(), catalog_.get(), no_cache);
  QueryResult cold = MustExecute(&cold_driver, kScanSql);
  EXPECT_EQ(RowsToString(cold.rows), cached_first);

  QueryResult cold2 =
      MustExecute(&cold_driver, std::string("EXPLAIN PROFILE ") + kScanSql);
  ASSERT_NE(cold2.profile, nullptr);
  // No cache installed: the profile reports no cache lookups at all.
  EXPECT_EQ(ProfileAttr(cold2.profile.get(), "metadata_cache_hits"), 0u);
  EXPECT_EQ(ProfileAttr(cold2.profile.get(), "metadata_cache_misses"), 0u);
}

TEST_F(QlCacheTest, FaultTaintedReadsDoNotPopulateCache) {
  // Every read is delayed (tainted): the fault model says those bytes took
  // the slow path, so their parses must not seed the cache — a retry after
  // a straggler kill must re-experience the injected behaviour.
  FaultConfig config;
  config.seed = 42;
  config.read_delay_probability = 1.0;
  config.delay_millis = 1;
  FaultInjector injector(config);
  fs_->set_fault_injector(&injector);

  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(&driver, kScanSql);
  EXPECT_FALSE(result.rows.empty());
  EXPECT_GT(injector.stats().read_delays.load(), 0u);

  std::shared_ptr<cache::CacheManager> caches = fs_->cache_manager();
  ASSERT_NE(caches, nullptr);
  EXPECT_EQ(caches->metadata_cache()->usage(), 0u);

  // Clean reads populate again once the injector is gone.
  fs_->set_fault_injector(nullptr);
  MustExecute(&driver, kScanSql);
  EXPECT_GT(caches->metadata_cache()->usage(), 0u);
}

}  // namespace
}  // namespace minihive::ql
