#include "dfs/file_system.h"

#include <gtest/gtest.h>


namespace minihive::dfs {
namespace {

void WriteFile(FileSystem* fs, const std::string& path,
               const std::string& contents) {
  auto w = std::move(fs->Create(path)).ValueOrDie();
  ASSERT_TRUE(w->Append(contents).ok());
  ASSERT_TRUE(w->Close().ok());
}

TEST(FileSystemTest, CreateWriteReadDelete) {
  FileSystem fs;
  auto writer_result = fs.Create("/t/a");
  ASSERT_TRUE(writer_result.ok());
  auto writer = std::move(writer_result).ValueOrDie();
  ASSERT_TRUE(writer->Append("hello ").ok());
  ASSERT_TRUE(writer->Append("world").ok());
  ASSERT_TRUE(writer->Close().ok());

  EXPECT_TRUE(fs.Exists("/t/a"));
  EXPECT_EQ(*fs.FileSize("/t/a"), 11u);

  auto reader_result = fs.Open("/t/a");
  ASSERT_TRUE(reader_result.ok());
  auto reader = std::move(reader_result).ValueOrDie();
  std::string out;
  ASSERT_TRUE(reader->ReadAt(6, 5, &out).ok());
  EXPECT_EQ(out, "world");
  EXPECT_FALSE(reader->ReadAt(6, 6, &out).ok());

  ASSERT_TRUE(fs.Delete("/t/a").ok());
  EXPECT_FALSE(fs.Exists("/t/a"));
  EXPECT_FALSE(fs.Open("/t/a").ok());
}

TEST(FileSystemTest, DuplicateCreateFails) {
  FileSystem fs;
  ASSERT_TRUE(fs.Create("/x").ok());
  EXPECT_TRUE(fs.Create("/x").status().IsAlreadyExists());
}

TEST(FileSystemTest, OpenUnclosedFileFails) {
  FileSystem fs;
  auto writer = std::move(fs.Create("/y")).ValueOrDie();
  EXPECT_FALSE(fs.Open("/y").ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_TRUE(fs.Open("/y").ok());
}

TEST(FileSystemTest, RenameReplacesExistingFile) {
  // POSIX rename semantics: rename over an existing path replaces it. Task
  // commit depends on this — when a commit dies partway and the task is
  // retried, the retry's attempt file renames over the stale part file the
  // earlier half-commit left behind, and the committed output wins.
  FileSystem fs;
  auto stale = std::move(fs.Create("/job/part-0")).ValueOrDie();
  ASSERT_TRUE(stale->Append("stale attempt 0").ok());
  ASSERT_TRUE(stale->Close().ok());

  auto retry = std::move(fs.Create("/job/_attempt-1-0")).ValueOrDie();
  ASSERT_TRUE(retry->Append("committed attempt 1").ok());
  ASSERT_TRUE(retry->Close().ok());

  ASSERT_TRUE(fs.Rename("/job/_attempt-1-0", "/job/part-0").ok());
  EXPECT_FALSE(fs.Exists("/job/_attempt-1-0"));
  auto reader = std::move(fs.Open("/job/part-0")).ValueOrDie();
  std::string out;
  ASSERT_TRUE(reader->ReadAt(0, reader->Size(), &out).ok());
  EXPECT_EQ(out, "committed attempt 1");
  // Exactly one file remains: the replaced target, not a duplicate.
  EXPECT_EQ(fs.List("/job/").size(), 1u);
}

TEST(FileSystemTest, RenameMissingSourceOrOpenFileFails) {
  FileSystem fs;
  EXPECT_TRUE(fs.Rename("/none", "/dst").IsNotFound());
  auto open_file = std::move(fs.Create("/w")).ValueOrDie();
  EXPECT_FALSE(fs.Rename("/w", "/dst").ok());  // Still open for write.
  ASSERT_TRUE(open_file->Close().ok());
  EXPECT_TRUE(fs.Rename("/w", "/dst").ok());
}

TEST(FileSystemTest, ListAndTotalSize) {
  FileSystem fs;
  for (const char* path : {"/tbl/p1", "/tbl/p2", "/other/q"}) {
    auto w = std::move(fs.Create(path)).ValueOrDie();
    ASSERT_TRUE(w->Append("1234").ok());
    ASSERT_TRUE(w->Close().ok());
  }
  EXPECT_EQ(fs.List("/tbl/").size(), 2u);
  EXPECT_EQ(fs.TotalSize("/tbl/"), 8u);
  EXPECT_EQ(fs.List("/nope").size(), 0u);
}

TEST(FileSystemTest, IoStatsCountBytes) {
  FileSystem fs;
  auto w = std::move(fs.Create("/s")).ValueOrDie();
  ASSERT_TRUE(w->Append(std::string(1000, 'x')).ok());
  ASSERT_TRUE(w->Close().ok());
  EXPECT_EQ(fs.stats().bytes_written.load(), 1000u);

  auto r = std::move(fs.Open("/s")).ValueOrDie();
  std::string out;
  ASSERT_TRUE(r->ReadAt(0, 600, &out).ok());
  ASSERT_TRUE(r->ReadAt(600, 400, &out).ok());
  EXPECT_EQ(fs.stats().bytes_read.load(), 1000u);
  EXPECT_EQ(fs.stats().read_ops.load(), 2u);

  // A repeat read, and a second reader of the same path, count every byte
  // and op again: each ReadAt is served from the file's backing contents.
  ASSERT_TRUE(r->ReadAt(0, 600, &out).ok());
  auto r2 = std::move(fs.Open("/s")).ValueOrDie();
  ASSERT_TRUE(r2->ReadAt(200, 50, &out).ok());
  EXPECT_EQ(out, std::string(50, 'x'));
  EXPECT_EQ(fs.stats().bytes_read.load(), 1650u);
  EXPECT_EQ(fs.stats().read_ops.load(), 4u);
}

TEST(FileSystemTest, BlockPaddingAndAlignment) {
  FileSystemOptions options;
  options.block_size = 1024;
  FileSystem fs(options);
  auto w = std::move(fs.Create("/pad")).ValueOrDie();
  ASSERT_TRUE(w->Append(std::string(300, 'a')).ok());
  EXPECT_EQ(w->RemainingInBlock(), 1024u - 300u);
  ASSERT_TRUE(w->PadToBlockBoundary().ok());
  EXPECT_EQ(w->Size(), 1024u);
  EXPECT_EQ(w->RemainingInBlock(), 1024u);  // Full block available again.
  ASSERT_TRUE(w->PadToBlockBoundary().ok());  // No-op at a boundary.
  EXPECT_EQ(w->Size(), 1024u);
  ASSERT_TRUE(w->Close().ok());
}

TEST(FileSystemTest, BlockLocationsAndLocality) {
  FileSystemOptions options;
  options.block_size = 100;
  options.num_datanodes = 4;
  options.replication = 2;
  FileSystem fs(options);
  auto w = std::move(fs.Create("/blocks")).ValueOrDie();
  ASSERT_TRUE(w->Append(std::string(350, 'z')).ok());
  ASSERT_TRUE(w->Close().ok());

  auto r = std::move(fs.Open("/blocks")).ValueOrDie();
  auto locations = r->GetBlockLocations(0, 350);
  ASSERT_EQ(locations.size(), 4u);
  EXPECT_EQ(locations[0].offset, 0u);
  EXPECT_EQ(locations[0].length, 100u);
  EXPECT_EQ(locations[3].length, 50u);
  for (const auto& loc : locations) {
    EXPECT_EQ(loc.hosts.size(), 2u);
  }

  // Reading with the host that owns block 0 counts a local read.
  int owner = locations[0].hosts[0];
  std::string out;
  ASSERT_TRUE(r->ReadAt(0, 50, &out, owner).ok());
  EXPECT_EQ(fs.stats().local_block_reads.load(), 1u);
  EXPECT_EQ(fs.stats().remote_block_reads.load(), 0u);

  // An unknown host makes it remote.
  int stranger = -1;
  for (int h = 0; h < 4; ++h) {
    if (h != locations[0].hosts[0] && h != locations[0].hosts[1]) {
      stranger = h;
      break;
    }
  }
  ASSERT_TRUE(r->ReadAt(0, 50, &out, stranger).ok());
  EXPECT_EQ(fs.stats().remote_block_reads.load(), 1u);
}

TEST(FileSystemTest, PathGenerationsBumpOnEveryRewrite) {
  FileSystem fs;
  EXPECT_EQ(fs.PathGeneration("/g"), 0u);
  WriteFile(&fs, "/g", "v1");
  uint64_t g1 = fs.PathGeneration("/g");
  EXPECT_GT(g1, 0u);
  auto r1 = std::move(fs.Open("/g")).ValueOrDie();
  EXPECT_EQ(r1->Generation(), g1);

  // Delete + recreate: the generation keeps counting up, never resets —
  // a reader of the old incarnation never shares cache keys with the new.
  ASSERT_TRUE(fs.Delete("/g").ok());
  EXPECT_GT(fs.PathGeneration("/g"), g1);
  WriteFile(&fs, "/g", "v2");
  uint64_t g2 = fs.PathGeneration("/g");
  EXPECT_GT(g2, g1);
  auto r2 = std::move(fs.Open("/g")).ValueOrDie();
  EXPECT_NE(r1->Generation(), r2->Generation());

  // Rename bumps both endpoints.
  WriteFile(&fs, "/src", "v3");
  uint64_t src_gen = fs.PathGeneration("/src");
  ASSERT_TRUE(fs.Rename("/src", "/g").ok());
  EXPECT_GT(fs.PathGeneration("/g"), g2);
  EXPECT_GT(fs.PathGeneration("/src"), src_gen);
}

TEST(FileSystemTest, RangeReadSpanningBlocksCountsEachBlock) {
  FileSystemOptions options;
  options.block_size = 100;
  FileSystem fs(options);
  auto w = std::move(fs.Create("/span")).ValueOrDie();
  ASSERT_TRUE(w->Append(std::string(250, 'q')).ok());
  ASSERT_TRUE(w->Close().ok());
  auto r = std::move(fs.Open("/span")).ValueOrDie();
  std::string out;
  ASSERT_TRUE(r->ReadAt(50, 200, &out).ok());  // Touches blocks 0,1,2.
  EXPECT_EQ(fs.stats().remote_block_reads.load() +
                fs.stats().local_block_reads.load(),
            3u);
}

}  // namespace
}  // namespace minihive::dfs
