/// Mutable managed tables end-to-end: CREATE TABLE ... PARTITIONED BY,
/// INSERT INTO visibility across sessions, unique-key upsert, DELETE via
/// merge-on-read bitmaps (row and vectorized paths byte-identical), the
/// background compactor's equivalence + tombstone protocol, and fault
/// sweeps over the insert-commit and compaction paths — a failed commit
/// must never leave a partially visible table.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/delete_bitmap.h"
#include "common/fault.h"
#include "common/telemetry.h"
#include "ql/compaction.h"
#include "ql/driver.h"
#include "ql/table_ops.h"

namespace minihive::ql {
namespace {

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class MutableTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 256 * 1024;
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<Catalog>(fs_.get());
  }

  void TearDown() override { fs_->set_fault_injector(nullptr); }

  DriverOptions Options(bool vectorized) {
    DriverOptions options;
    options.num_workers = 2;
    options.vectorized_execution = vectorized;
    return options;
  }

  /// Each call is "another session": a fresh Driver on the shared catalog.
  QueryResult Exec(const std::string& sql, bool vectorized = false) {
    Driver driver(fs_.get(), catalog_.get(), Options(vectorized));
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? *result : QueryResult();
  }

  Result<QueryResult> TryExec(const std::string& sql) {
    Driver driver(fs_.get(), catalog_.get(), Options(false));
    return driver.Execute(sql);
  }

  size_t TableFileCount(const std::string& name) {
    auto table = catalog_->GetTable(name);
    EXPECT_TRUE(table.ok());
    return catalog_->TableFiles(**table).size();
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(MutableTableTest, InsertIsVisibleToOtherSessions) {
  Exec("CREATE TABLE events (id INT, region STRING, amount DOUBLE) "
       "PARTITIONED BY (region)");
  QueryResult insert = Exec(
      "INSERT INTO events VALUES (1, 'eu', 10.5), (2, 'us', 20.0), "
      "(3, 'eu', 1.25)");
  EXPECT_EQ(insert.rows_affected, 3u);

  // A different Driver (session) sees the committed rows immediately.
  QueryResult select = Exec("SELECT id, region, amount FROM events");
  EXPECT_EQ(select.rows.size(), 3u);

  // Hive-style directory layout: one file per touched partition.
  EXPECT_EQ(fs_->List("/warehouse/events/region=eu/part-").size(), 1u);
  EXPECT_EQ(fs_->List("/warehouse/events/region=us/part-").size(), 1u);
  // The commit protocol leaves no attempt files behind.
  EXPECT_TRUE(fs_->List("/warehouse/events/region=eu/attempt-").empty());
}

TEST_F(MutableTableTest, PartitionPruningSkipsFiles) {
  Exec("CREATE TABLE sales (id INT, region STRING, amount DOUBLE) "
       "PARTITIONED BY (region)");
  Exec("INSERT INTO sales VALUES (1, 'eu', 1.0), (2, 'us', 2.0), "
       "(3, 'ap', 3.0)");
  Exec("INSERT INTO sales VALUES (4, 'eu', 4.0), (5, 'us', 5.0)");

  QueryResult result =
      Exec("SELECT id, amount FROM sales WHERE region = 'eu'");
  EXPECT_EQ(result.rows.size(), 2u);
  // Three non-eu files (us x2, ap x1) never reached the splitter.
  EXPECT_EQ(result.counters.partition_files_pruned.load(), 3u);
}

TEST_F(MutableTableTest, UpsertLatestWriteWins) {
  Exec("CREATE TABLE kv (k INT, v STRING) UNIQUE KEY (k)");
  Exec("INSERT INTO kv VALUES (1, 'a'), (2, 'b')");
  Exec("INSERT INTO kv VALUES (1, 'a2')");
  // Duplicate key inside one statement: the last tuple wins.
  Exec("INSERT INTO kv VALUES (3, 'x'), (3, 'y')");

  QueryResult result = Exec("SELECT k, v FROM kv");
  EXPECT_EQ(Canonicalize(result.rows),
            Canonicalize({{Value::Int(1), Value::String("a2")},
                          {Value::Int(2), Value::String("b")},
                          {Value::Int(3), Value::String("y")}}));
}

TEST_F(MutableTableTest, UpsertEdgeKeysStayOneKeyAcrossCompaction) {
  // The int64 extremes are two keys, and each upserts in place.
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  Exec("CREATE TABLE big (k BIGINT, v STRING) UNIQUE KEY (k)");
  Exec("INSERT INTO big VALUES (-9223372036854775807 - 1, 'min'), "
       "(9223372036854775807, 'max')");
  Exec("INSERT INTO big VALUES (9223372036854775807, 'max2'), "
       "(-9223372036854775807 - 1, 'min2')");
  EXPECT_EQ(Canonicalize(Exec("SELECT k, v FROM big").rows),
            Canonicalize({{Value::Int(min), Value::String("min2")},
                          {Value::Int(max), Value::String("max2")}}));

  // -0.0 and 0.0 are one key, before and after a compaction rewrites the
  // surviving row (and re-keys it in the unique-key index).
  Exec("CREATE TABLE dk (k DOUBLE, v STRING) UNIQUE KEY (k)");
  Exec("INSERT INTO dk VALUES (-0.0, 'neg')");
  Exec("INSERT INTO dk VALUES (0.0, 'pos')");
  auto values = [this] {
    std::vector<std::string> out;
    for (const Row& row : Exec("SELECT v FROM dk").rows) {
      out.push_back(row[0].AsString());
    }
    return out;
  };
  EXPECT_EQ(values(), std::vector<std::string>{"pos"});
  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  auto stats = compactor.RunOnce();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->tasks_run, 0u);
  EXPECT_EQ(TableFileCount("dk"), 1u);
  EXPECT_EQ(values(), std::vector<std::string>{"pos"});
  Exec("INSERT INTO dk VALUES (-0.0, 'neg2')");
  EXPECT_EQ(values(), std::vector<std::string>{"neg2"});
}

TEST_F(MutableTableTest, DeleteRowAndVectorizedAreByteIdentical) {
  Exec("CREATE TABLE t (k INT, grp INT, amount DOUBLE) UNIQUE KEY (k)");
  std::string values;
  for (int i = 0; i < 500; ++i) {
    if (!values.empty()) values += ", ";
    values += "(";
    values += std::to_string(i) + ", " + std::to_string(i % 7) + ", " +
              std::to_string(i) + ".5)";
  }
  Exec("INSERT INTO t VALUES " + values);
  QueryResult del = Exec("DELETE FROM t WHERE k < 100");
  EXPECT_EQ(del.rows_affected, 100u);

  const std::string sql =
      "SELECT grp, COUNT(*) AS cnt, SUM(amount) AS total FROM t GROUP BY grp";
  QueryResult row_mode = Exec(sql, /*vectorized=*/false);
  QueryResult vec_mode = Exec(sql, /*vectorized=*/true);
  EXPECT_FALSE(row_mode.rows.empty());
  EXPECT_EQ(Canonicalize(row_mode.rows), Canonicalize(vec_mode.rows));

  // COUNT(*) must see deletions too — the stats-only answer path has to
  // stand down while delete debt is outstanding.
  QueryResult count = Exec("SELECT COUNT(*) AS n FROM t");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt(), 400);
}

TEST_F(MutableTableTest, DeleteByUniqueKeyThenReinsert) {
  Exec("CREATE TABLE kv (k INT, v STRING) UNIQUE KEY (k)");
  Exec("INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  QueryResult del = Exec("DELETE FROM kv WHERE k = 2");
  EXPECT_EQ(del.rows_affected, 1u);
  // The key is free again: re-insert must not upsert a ghost.
  Exec("INSERT INTO kv VALUES (2, 'b2')");
  QueryResult result = Exec("SELECT k, v FROM kv");
  EXPECT_EQ(Canonicalize(result.rows),
            Canonicalize({{Value::Int(1), Value::String("a")},
                          {Value::Int(2), Value::String("b2")},
                          {Value::Int(3), Value::String("c")}}));
}

TEST_F(MutableTableTest, ConcurrentInsertsFromTwoSessions) {
  Exec("CREATE TABLE log (id INT, session STRING)");
  auto insert_many = [this](const std::string& tag, int base) {
    for (int i = 0; i < 10; ++i) {
      Driver driver(fs_.get(), catalog_.get(), Options(false));
      auto r = driver.Execute("INSERT INTO log VALUES (" +
                              std::to_string(base + i) + ", '" + tag + "')");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  std::thread a([&] { insert_many("a", 0); });
  std::thread b([&] { insert_many("b", 1000); });
  a.join();
  b.join();
  QueryResult result = Exec("SELECT COUNT(*) AS n FROM log");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 20);
}

TEST_F(MutableTableTest, CompactionPreservesResultsAndShrinksFileCount) {
  Exec("CREATE TABLE t (k INT, grp INT, amount DOUBLE) UNIQUE KEY (k)");
  // Many tiny commits -> many small files (the small-file problem).
  for (int batch = 0; batch < 8; ++batch) {
    std::string values;
    for (int i = 0; i < 50; ++i) {
      const int k = batch * 50 + i;
      if (!values.empty()) values += ", ";
      values += "(";
      values += std::to_string(k) + ", " + std::to_string(k % 5) + ", " +
                std::to_string(k) + ".25)";
    }
    Exec("INSERT INTO t VALUES " + values);
  }
  Exec("DELETE FROM t WHERE k < 40");
  const std::string sql =
      "SELECT grp, COUNT(*) AS cnt, SUM(amount) AS total FROM t GROUP BY grp";
  const std::vector<std::string> golden = Canonicalize(Exec(sql).rows);
  const size_t files_before = TableFileCount("t");
  ASSERT_EQ(files_before, 8u);

  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;  // Everything here is small.
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  uint64_t tasks = 0;
  for (int sweep = 0; sweep < 10; ++sweep) {
    auto stats = compactor.RunOnce();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    tasks += stats->tasks_run;
    if (stats->tasks_run == 0) break;
    // Every intermediate state must answer identically.
    EXPECT_EQ(Canonicalize(Exec(sql).rows), golden);
  }
  EXPECT_GT(tasks, 0u);
  EXPECT_LT(TableFileCount("t"), files_before);
  EXPECT_EQ(Canonicalize(Exec(sql).rows), golden);
  // Vectorized agreement survives compaction as well.
  EXPECT_EQ(Canonicalize(Exec(sql, /*vectorized=*/true).rows), golden);

  // Replaced files are tombstoned one sweep, then physically deleted.
  auto final_sweep = compactor.RunOnce();
  ASSERT_TRUE(final_sweep.ok());
  auto table = catalog_->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->state->tombstones.empty());
  // Upsert after compaction still finds the rewritten row's new location.
  Exec("INSERT INTO t VALUES (100, 0, 0.0)");
  QueryResult count = Exec("SELECT COUNT(*) AS n FROM t");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt(), 360);  // 400 - 40 deleted, 100 upserted.
}

TEST_F(MutableTableTest, InsertCommitFaultSweepNeverPartiallyVisible) {
  Exec("CREATE TABLE mut (id INT, grp INT) PARTITIONED BY (grp)");
  int64_t committed = 0;
  int typed_failures = 0;
  uint64_t injected = 0;
  for (int seed = 0; seed < 20; ++seed) {
    FaultConfig config;
    config.seed = static_cast<uint64_t>(seed) * 104729 + 13;
    config.open_error_probability = 0.05;
    config.append_error_probability = 0.02;
    config.close_error_probability = 0.05;
    config.path_filter = "/warehouse/mut";
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    auto result = TryExec("INSERT INTO mut VALUES (" + std::to_string(seed) +
                          ", 0), (" + std::to_string(seed + 1000) + ", 1)");
    fs_->set_fault_injector(nullptr);
    injected += injector.stats().total();
    if (result.ok()) {
      committed += 2;
    } else {
      EXPECT_TRUE(result.status().IsIoError())
          << "seed " << seed << ": " << result.status().ToString();
      ++typed_failures;
    }
    // Atomicity: the table must hold exactly the committed rows — a failed
    // statement contributes nothing, from any session, on either path.
    QueryResult count = Exec("SELECT COUNT(*) AS n FROM mut");
    ASSERT_EQ(count.rows.size(), 1u);
    ASSERT_EQ(count.rows[0][0].AsInt(), committed) << "seed " << seed;
  }
  EXPECT_GT(injected, 0u) << "injector never fired; sweep is vacuous";
  EXPECT_GT(typed_failures, 0) << "no commit ever failed; sweep is vacuous";
  EXPECT_GT(committed, 0) << "every commit failed";
}

TEST_F(MutableTableTest, MidCompactionCrashLeavesSnapshotUntouched) {
  Exec("CREATE TABLE t (k INT, v DOUBLE) UNIQUE KEY (k)");
  for (int batch = 0; batch < 4; ++batch) {
    std::string values;
    for (int i = 0; i < 25; ++i) {
      const int k = batch * 25 + i;
      if (!values.empty()) values += ", ";
      values += "(";
      values += std::to_string(k) + ", " + std::to_string(k) + ".5)";
    }
    Exec("INSERT INTO t VALUES " + values);
  }
  Exec("DELETE FROM t WHERE k < 10");
  const std::string sql = "SELECT k, v FROM t";
  const std::vector<std::string> golden = Canonicalize(Exec(sql).rows);
  const size_t files_before = TableFileCount("t");

  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  int crashed = 0;
  for (int seed = 0; seed < 10; ++seed) {
    FaultConfig config;
    config.seed = static_cast<uint64_t>(seed) * 31 + 7;
    config.append_error_probability = 0.02;
    config.close_error_probability = 0.2;
    config.path_filter = "/warehouse/t";
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    auto stats = compactor.RunOnce();
    fs_->set_fault_injector(nullptr);
    if (!stats.ok()) {
      ++crashed;
      // The failed rewrite must not have touched the manifest: same files,
      // same rows, on both execution paths.
      EXPECT_EQ(TableFileCount("t"), files_before) << "seed " << seed;
      EXPECT_EQ(Canonicalize(Exec(sql).rows), golden) << "seed " << seed;
      EXPECT_EQ(Canonicalize(Exec(sql, /*vectorized=*/true).rows), golden);
    }
  }
  EXPECT_GT(crashed, 0) << "no sweep ever hit a fault; test is vacuous";

  // Fault-free sweeps finish the job; results are unchanged.
  for (int sweep = 0; sweep < 10; ++sweep) {
    auto stats = compactor.RunOnce();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats->tasks_run == 0) break;
  }
  EXPECT_LT(TableFileCount("t"), files_before);
  EXPECT_EQ(Canonicalize(Exec(sql).rows), golden);
}

TEST_F(MutableTableTest, BackgroundCompactionThread) {
  Exec("CREATE TABLE t (k INT, v DOUBLE)");
  for (int batch = 0; batch < 6; ++batch) {
    Exec("INSERT INTO t VALUES (" + std::to_string(batch) + ", 1.5), (" +
         std::to_string(batch + 100) + ", 2.5)");
  }
  const std::string sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM t";
  const std::vector<std::string> golden = Canonicalize(Exec(sql).rows);

  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;
  copts.interval_millis = 5;
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  compactor.Start();
  // Wait (bounded) until the background sweeps have merged the table.
  for (int i = 0; i < 200 && TableFileCount("t") > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  compactor.Stop();
  EXPECT_LT(TableFileCount("t"), 6u);
  EXPECT_GT(compactor.totals().tasks_run, 0u);
  EXPECT_EQ(Canonicalize(Exec(sql).rows), golden);
}

TEST_F(MutableTableTest, DropTableRemovesEverything) {
  Exec("CREATE TABLE tmp (k INT, grp STRING) PARTITIONED BY (grp)");
  Exec("INSERT INTO tmp VALUES (1, 'a'), (2, 'b')");
  Exec("DELETE FROM tmp WHERE k = 1");
  Exec("DROP TABLE tmp");
  EXPECT_FALSE(catalog_->HasTable("tmp"));
  EXPECT_TRUE(fs_->List("/warehouse/tmp/").empty());
}

TEST_F(MutableTableTest, SidecarDecodeRejectsOversizedRowCount) {
  // A sidecar whose num_rows disagrees with its word payload must be a
  // typed Corruption, not an out-of-bounds IsDeleted() read later: the
  // word count is derived from the buffer, and num_rows must fit it
  // exactly. Valid CRCs make sure the length check itself is what fires.
  auto encode = [](uint64_t num_rows, uint64_t deleted, size_t words) {
    std::string data = "MHDB";
    data.push_back('\x01');
    auto u64 = [&data](uint64_t v) {
      for (int i = 0; i < 8; ++i) data.push_back(static_cast<char>(v >> (8 * i)));
    };
    u64(num_rows);
    u64(deleted);
    for (size_t w = 0; w < words; ++w) u64(0);
    uint32_t crc = Crc32(data);
    for (int i = 0; i < 4; ++i) data.push_back(static_cast<char>(crc >> (8 * i)));
    return data;
  };
  // num_rows so large that ceil(num_rows/64)*8 wraps 64-bit arithmetic.
  auto huge = DeleteBitmap::Decode(encode(~uint64_t{0} - 62, 0, 0));
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsCorruption()) << huge.status().ToString();
  // One word of payload only covers 1..64 rows.
  EXPECT_FALSE(DeleteBitmap::Decode(encode(65, 0, 1)).ok());
  EXPECT_FALSE(DeleteBitmap::Decode(encode(128, 0, 1)).ok());
  // Or claims more rows than any word backs.
  EXPECT_FALSE(DeleteBitmap::Decode(encode(1, 0, 0)).ok());
  // The exact-fit encodings still round-trip.
  EXPECT_TRUE(DeleteBitmap::Decode(encode(64, 0, 1)).ok());
  EXPECT_TRUE(DeleteBitmap::Decode(encode(0, 0, 0)).ok());
  DeleteBitmap bitmap(100);
  bitmap.MarkDeleted(7);
  auto round = DeleteBitmap::Decode(bitmap.Encode());
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->IsDeleted(7));
  EXPECT_EQ(round->deleted_count(), 1u);
}

TEST_F(MutableTableTest, RecoverTableRebuildsSnapshot) {
  // Build a table with everything recovery must cope with: multiple
  // partitions, delete-bitmap sidecars, an upsert whose loser lives in a
  // compacted file, unreaped compaction tombstones (the .r range must
  // suppress them), and orphan attempt files from a "crashed" statement.
  const std::string ddl =
      "CREATE TABLE r (k INT, region STRING, v DOUBLE) "
      "PARTITIONED BY (region) UNIQUE KEY (k)";
  Exec(ddl);
  for (int batch = 0; batch < 4; ++batch) {
    std::string values;
    for (int i = 0; i < 10; ++i) {
      const int k = batch * 10 + i;
      if (!values.empty()) values += ", ";
      values += "(";
      values += std::to_string(k) + ", 'eu', " + std::to_string(k) + ".5)";
    }
    Exec("INSERT INTO r VALUES " + values);
  }
  Exec("INSERT INTO r VALUES (100, 'us', 1.0), (101, 'us', 2.0)");
  Exec("INSERT INTO r VALUES (102, 'us', 3.0)");
  Exec("DELETE FROM r WHERE k = 100");     // Sidecar on a surviving file.
  Exec("INSERT INTO r VALUES (0, 'eu', 999.0)");  // Upsert: k=0 moves.

  // One sweep: merges the eu run, leaves its replaced files tombstoned on
  // disk (reaping is deferred a sweep — exactly the crash window).
  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  auto sweep = compactor.RunOnce();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_GT(sweep->tasks_run, 0u);
  {
    auto table = catalog_->GetTable("r");
    ASSERT_TRUE(table.ok());
    ASSERT_FALSE((*table)->state->tombstones.empty());
  }

  // Orphans a crashed statement could leave behind.
  for (const std::string& orphan :
       {std::string("/warehouse/r/region=eu/attempt-00000000000000000099"),
        std::string("/warehouse/r/region=us/part-x.del.attempt")}) {
    auto file = fs_->Create(orphan);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("junk").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  const std::string sql = "SELECT k, region, v FROM r";
  const std::vector<std::string> golden = Canonicalize(Exec(sql).rows);

  // "Restart": a fresh catalog over the same DFS. Metadata is not durable,
  // so the caller re-issues the DDL, then recovers from the files alone.
  Catalog recovered_catalog(fs_.get());
  auto exec2 = [&](const std::string& stmt, bool vectorized = false) {
    Driver driver(fs_.get(), &recovered_catalog, Options(vectorized));
    auto result = driver.Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << ": " << result.status().ToString();
    return result.ok() ? *result : QueryResult();
  };
  exec2(ddl);
  TableOps ops(fs_.get(), &recovered_catalog);
  auto adopted = ops.RecoverTable("r");
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_GT(*adopted, 0u);

  // Same rows, both engines; deletes stayed deleted, the upsert's loser
  // stayed lost, tombstoned pre-compaction files did not resurrect.
  EXPECT_EQ(Canonicalize(exec2(sql).rows), golden);
  EXPECT_EQ(Canonicalize(exec2(sql, /*vectorized=*/true).rows), golden);
  // Orphans and superseded files are physically gone.
  EXPECT_TRUE(fs_->List("/warehouse/r/region=eu/attempt-").empty());
  EXPECT_FALSE(fs_->Exists("/warehouse/r/region=us/part-x.del.attempt"));

  // The rebuilt key index and sequence counter keep upserts correct.
  QueryResult upsert = exec2("INSERT INTO r VALUES (0, 'eu', -1.0)");
  EXPECT_EQ(upsert.rows_affected, 1u);
  QueryResult k0 = exec2("SELECT v FROM r WHERE k = 0");
  ASSERT_EQ(k0.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(k0.rows[0][0].AsDouble(), -1.0);
  QueryResult count = exec2("SELECT COUNT(*) AS n FROM r");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].AsInt(), 42);  // 40 eu + (101,102); 100 deleted.
}

TEST_F(MutableTableTest, DropTableRacesWritersAndCompaction) {
  // DROP TABLE while INSERTs run and the background compactor sweeps every
  // millisecond: the copy-based table handles plus the dropped flag must
  // make every interleaving safe (TSan covers the memory side under the
  // `robustness` label), and whatever committed before the drop is deleted
  // with the table — the directory always ends empty.
  CompactionOptions copts;
  copts.small_file_bytes = 16 * 1024 * 1024;
  copts.interval_millis = 1;
  CompactionManager compactor(fs_.get(), catalog_.get(), copts);
  compactor.Start();
  for (int round = 0; round < 10; ++round) {
    Exec("CREATE TABLE race (k INT, v DOUBLE) UNIQUE KEY (k)");
    std::thread inserter([&] {
      for (int i = 0; i < 8; ++i) {
        Driver driver(fs_.get(), catalog_.get(), Options(false));
        // NotFound once the drop wins the race is the expected outcome.
        driver.Execute("INSERT INTO race VALUES (" + std::to_string(i) +
                       ", 1.5), (" + std::to_string(i + 100) + ", 2.5)")
            .status();
      }
    });
    std::thread dropper([&] {
      Driver driver(fs_.get(), catalog_.get(), Options(false));
      driver.Execute("DROP TABLE race").status();
    });
    inserter.join();
    dropper.join();
    EXPECT_FALSE(catalog_->HasTable("race")) << "round " << round;
    EXPECT_TRUE(fs_->List("/warehouse/race/").empty()) << "round " << round;
  }
  compactor.Stop();
}

TEST_F(MutableTableTest, StatementErrorsAreTyped) {
  EXPECT_FALSE(TryExec("INSERT INTO nosuch VALUES (1)").ok());
  Exec("CREATE TABLE t (k INT) ");
  EXPECT_FALSE(TryExec("CREATE TABLE t (k INT)").ok());  // Duplicate.
  EXPECT_FALSE(TryExec("INSERT INTO t VALUES (1, 2)").ok());  // Arity.
  EXPECT_FALSE(TryExec("INSERT INTO t VALUES ('x')").ok());  // Type.
  // Partition and unique-key columns must exist.
  EXPECT_FALSE(
      TryExec("CREATE TABLE bad (k INT) PARTITIONED BY (nope)").ok());
  EXPECT_FALSE(TryExec("CREATE TABLE bad (k INT) UNIQUE KEY (nope)").ok());
  // DML over unmanaged tables is rejected (no manifest to commit into).
  EXPECT_FALSE(TryExec("DELETE FROM nosuch").ok());
}

}  // namespace
}  // namespace minihive::ql
