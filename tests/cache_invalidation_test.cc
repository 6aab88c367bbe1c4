// Generation-keyed cache invalidation: a path that is rewritten (delete +
// recreate, or renamed over) must never serve a stale tail or stripe
// metadata from the session metadata cache. The mechanism under test is the
// per-path generation counter in dfs::FileSystem — every rewrite bumps it,
// so the old incarnation's cache keys are simply never looked up again.

#include <gtest/gtest.h>

#include <string>

#include "common/cache.h"
#include "dfs/file_system.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

TypePtr Schema() {
  return *TypeDescription::Parse("struct<id:bigint,tag:string>");
}

void WriteOrc(dfs::FileSystem* fs, const std::string& path, int rows,
              const std::string& tag) {
  auto writer =
      std::move(OrcWriter::Create(fs, path, Schema())).ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(
        writer->AddRow({Value::Int(i), Value::String(tag)}).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

// Scans the whole file; returns (row count, tag of the first row).
struct ScanResult {
  int rows = 0;
  std::string first_tag;
  bool tail_cache_hit = false;
};

ScanResult Scan(dfs::FileSystem* fs, const std::string& path) {
  ScanResult result;
  auto reader = std::move(OrcReader::Open(fs, path)).ValueOrDie();
  result.tail_cache_hit = reader->tail_cache_hit();
  Row row;
  while (*reader->NextRow(&row)) {
    if (result.rows == 0) result.first_tag = row[1].AsString();
    ++result.rows;
  }
  return result;
}

TEST(CacheInvalidationTest, RewrittenFileNeverServedStale) {
  dfs::FileSystem fs;
  auto caches =
      std::make_shared<cache::CacheManager>(/*metadata_cache_bytes=*/1 << 20);
  fs.set_cache_manager(caches);

  WriteOrc(&fs, "/t/data", 1000, "old");

  // First scan: cold. Second scan: the tail comes from the metadata cache —
  // proving the cache is actually hot before we invalidate it.
  ScanResult cold = Scan(&fs, "/t/data");
  EXPECT_EQ(cold.rows, 1000);
  EXPECT_EQ(cold.first_tag, "old");
  EXPECT_FALSE(cold.tail_cache_hit);

  ScanResult warm = Scan(&fs, "/t/data");
  EXPECT_EQ(warm.rows, 1000);
  EXPECT_EQ(warm.first_tag, "old");
  EXPECT_TRUE(warm.tail_cache_hit);

  // Rewrite in place: delete + recreate with different contents (more rows,
  // different tag). The old tail is still resident in the cache, but keyed
  // under the old generation.
  ASSERT_TRUE(fs.Delete("/t/data").ok());
  WriteOrc(&fs, "/t/data", 1500, "new");

  ScanResult after_rewrite = Scan(&fs, "/t/data");
  EXPECT_EQ(after_rewrite.rows, 1500);
  EXPECT_EQ(after_rewrite.first_tag, "new");
  EXPECT_FALSE(after_rewrite.tail_cache_hit);  // New generation = cold.

  // Rename over: the task-commit pattern. Warm the cache on the current
  // incarnation first, then rename a third file over it.
  ScanResult warm2 = Scan(&fs, "/t/data");
  EXPECT_TRUE(warm2.tail_cache_hit);

  WriteOrc(&fs, "/t/_attempt", 700, "renamed");
  ASSERT_TRUE(fs.Rename("/t/_attempt", "/t/data").ok());

  ScanResult after_rename = Scan(&fs, "/t/data");
  EXPECT_EQ(after_rename.rows, 700);
  EXPECT_EQ(after_rename.first_tag, "renamed");
  EXPECT_FALSE(after_rename.tail_cache_hit);

  // And the new incarnation caches normally from here on.
  ScanResult warm3 = Scan(&fs, "/t/data");
  EXPECT_EQ(warm3.rows, 700);
  EXPECT_EQ(warm3.first_tag, "renamed");
  EXPECT_TRUE(warm3.tail_cache_hit);

  fs.set_cache_manager(nullptr);
}

TEST(CacheInvalidationTest, ReaderOpenedBeforeRewriteKeepsItsIncarnation) {
  // A reader opened before the rewrite captured the old generation at Open,
  // so its reads keep resolving against the old incarnation's cache keys —
  // it must not cross-pollinate with the new file's metadata.
  dfs::FileSystem fs;
  auto caches = std::make_shared<cache::CacheManager>(1 << 20);
  fs.set_cache_manager(caches);

  WriteOrc(&fs, "/t/pinned", 500, "old");
  auto old_reader =
      std::move(OrcReader::Open(&fs, "/t/pinned")).ValueOrDie();

  ASSERT_TRUE(fs.Delete("/t/pinned").ok());
  WriteOrc(&fs, "/t/pinned", 300, "new");

  // The old reader was opened against the old file object; draining it
  // yields the old rows (the DFS keeps the open file's data alive).
  Row row;
  int old_rows = 0;
  while (*old_reader->NextRow(&row)) {
    EXPECT_EQ(row[1].AsString(), "old");
    ++old_rows;
  }
  EXPECT_EQ(old_rows, 500);

  // A fresh reader sees only the new incarnation.
  ScanResult fresh = Scan(&fs, "/t/pinned");
  EXPECT_EQ(fresh.rows, 300);
  EXPECT_EQ(fresh.first_tag, "new");

  fs.set_cache_manager(nullptr);
}

}  // namespace
}  // namespace minihive::orc
