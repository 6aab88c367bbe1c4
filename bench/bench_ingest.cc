// Ingest-path benchmark for mutable managed tables:
//   1. INSERT INTO throughput — many small batches appended through the
//      attempt+rename commit protocol, fanning out across partitions
//      (the classic streaming-ingest small-file problem, built on purpose).
//   2. Merge-on-read scan cost — physical bytes and file count for a full
//      aggregation over the fragmented table, with delete debt applied
//      through per-file bitmaps.
//   3. Background compaction payoff — sweeps run to quiescence, then the
//      same scan again; the physical-byte and file-count deltas are the
//      headline numbers.
// File counts, row counts, and physical byte counts are machine-independent
// and gated against bench/baseline/; timings are recorded for humans only.

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "dfs/file_system.h"
#include "ql/catalog.h"
#include "ql/compaction.h"
#include "ql/driver.h"

namespace minihive {
namespace {

using bench::Check;
using bench::CheckResult;
using bench::Fmt;
using bench::TablePrinter;

constexpr int kPartitions = 4;

struct ScanResult {
  uint64_t physical_bytes = 0;
  uint64_t files = 0;
  uint64_t live_rows = 0;
};

uint64_t FileCount(ql::Catalog* catalog, const std::string& table) {
  const ql::TableDesc* desc =
      CheckResult(catalog->GetTable(table), "get table");
  return catalog->TableFiles(*desc).size();
}

/// Runs the aggregation with the metadata cache off so bytes_read reflects
/// the on-disk layout, tails included. Fresh driver per scan = fresh session.
ScanResult Scan(dfs::FileSystem* fs, ql::Catalog* catalog,
                const std::string& table) {
  ql::DriverOptions options;
  options.num_workers = 2;
  options.vectorized_execution = true;
  options.metadata_cache_bytes = 0;
  ql::Driver driver(fs, catalog, options);

  ScanResult r;
  const uint64_t before = fs->stats().bytes_read.load();
  auto result = CheckResult(
      driver.Execute("SELECT grp, COUNT(*) FROM " + table + " GROUP BY grp"),
      "scan");
  r.physical_bytes = fs->stats().bytes_read.load() - before;
  r.files = FileCount(catalog, table);
  for (const Row& row : result.rows) {
    r.live_rows += static_cast<uint64_t>(row[1].AsInt());
  }
  return r;
}

int Main() {
  std::printf("=== Ingest: INSERT INTO small files -> compaction ===\n\n");
  bench::BenchReporter reporter("ingest");

  const int kBatches = bench::SmokeScaled(96, 12);
  const int kRowsPerBatch = bench::SmokeScaled(250, 50);

  dfs::FileSystemOptions fs_options;
  fs_options.block_size = 256 * 1024;
  dfs::FileSystem fs(fs_options);
  ql::Catalog catalog(&fs);
  // Metadata cache off for the whole bench: this driver's cache stays
  // installed on the filesystem and would otherwise serve the scans' tails.
  ql::DriverOptions ingest_options;
  ingest_options.metadata_cache_bytes = 0;
  ql::Driver ingest(&fs, &catalog, ingest_options);

  Check(ingest
            .Execute(
                "CREATE TABLE ingest (k INT, grp INT, amount DOUBLE) "
                "PARTITIONED BY (grp) UNIQUE KEY (k)")
            .status(),
        "create table");

  // Phase 1: many small committed batches, keys striped over partitions.
  uint64_t rows_inserted = 0;
  Stopwatch watch;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::string sql = "INSERT INTO ingest VALUES ";
    for (int i = 0; i < kRowsPerBatch; ++i) {
      const int64_t k = static_cast<int64_t>(batch) * kRowsPerBatch + i;
      if (i > 0) sql += ", ";
      sql += "(";
      sql += std::to_string(k) + ", " + std::to_string(k % kPartitions) +
             ", " + std::to_string(k % 1000) + ".5)";
    }
    rows_inserted += CheckResult(ingest.Execute(sql), "insert").rows_affected;
  }
  const double ingest_ms = watch.ElapsedMillis();
  const uint64_t files_after_ingest = FileCount(&catalog, "ingest");

  // Phase 2: delete debt (a quarter of the keyspace), then the fragmented
  // merge-on-read scan.
  const int64_t delete_bound =
      static_cast<int64_t>(kBatches) * kRowsPerBatch / 4;
  const uint64_t rows_deleted =
      CheckResult(ingest.Execute("DELETE FROM ingest WHERE k < " +
                                 std::to_string(delete_bound)),
                  "delete")
          .rows_affected;
  watch.Reset();
  const ScanResult pre = Scan(&fs, &catalog, "ingest");
  const double pre_scan_ms = watch.ElapsedMillis();

  // Phase 3: compaction sweeps to quiescence (one table task per sweep;
  // the final extra sweep reaps the last tombstones and proves idleness).
  ql::CompactionManager compactor(&fs, &catalog);
  uint64_t sweeps = 0;
  watch.Reset();
  for (int i = 0; i < 200; ++i) {
    ql::CompactionStats s = CheckResult(compactor.RunOnce(), "compact");
    ++sweeps;
    if (s.files_removed == 0 && s.files_written == 0 &&
        s.tombstones_deleted == 0) {
      break;
    }
  }
  const double compact_ms = watch.ElapsedMillis();
  ql::CompactionStats totals = compactor.totals();

  watch.Reset();
  const ScanResult post = Scan(&fs, &catalog, "ingest");
  const double post_scan_ms = watch.ElapsedMillis();

  TablePrinter ing({"phase", "ms", "rows", "files"});
  ing.AddRow({"ingest (" + std::to_string(kBatches) + " batches)",
              Fmt(ingest_ms), std::to_string(rows_inserted),
              std::to_string(files_after_ingest)});
  ing.AddRow({"delete", "", std::to_string(rows_deleted), ""});
  ing.AddRow({"compaction (" + std::to_string(sweeps) + " sweeps)",
              Fmt(compact_ms), std::to_string(totals.rows_rewritten),
              std::to_string(post.files)});
  ing.Print();

  TablePrinter sc({"scan", "ms", "physical MB", "files", "live rows"});
  sc.AddRow({"pre-compaction", Fmt(pre_scan_ms), bench::Mb(pre.physical_bytes),
             std::to_string(pre.files), std::to_string(pre.live_rows)});
  sc.AddRow({"post-compaction", Fmt(post_scan_ms),
             bench::Mb(post.physical_bytes), std::to_string(post.files),
             std::to_string(post.live_rows)});
  sc.Print();

  reporter.AddMetric("ingest.rows", static_cast<double>(rows_inserted),
                     "rows");
  reporter.AddMetric("ingest.batches", kBatches, "count");
  reporter.AddMetric("ingest.files", static_cast<double>(files_after_ingest),
                     "count");
  reporter.AddMetric("ingest.ms", ingest_ms, "ms");
  reporter.AddMetric("delete.rows", static_cast<double>(rows_deleted),
                     "rows");
  reporter.AddMetric("scan.pre_physical_bytes",
                     static_cast<double>(pre.physical_bytes), "bytes");
  reporter.AddMetric("scan.pre_files", static_cast<double>(pre.files),
                     "count");
  reporter.AddMetric("scan.pre_ms", pre_scan_ms, "ms");
  reporter.AddMetric("scan.post_physical_bytes",
                     static_cast<double>(post.physical_bytes), "bytes");
  reporter.AddMetric("scan.post_files", static_cast<double>(post.files),
                     "count");
  reporter.AddMetric("scan.post_ms", post_scan_ms, "ms");
  reporter.AddMetric("compaction.sweeps", static_cast<double>(sweeps),
                     "count");
  reporter.AddMetric("compaction.files_removed",
                     static_cast<double>(totals.files_removed), "count");
  reporter.AddMetric("compaction.files_written",
                     static_cast<double>(totals.files_written), "count");
  reporter.AddMetric("compaction.rows_rewritten",
                     static_cast<double>(totals.rows_rewritten), "rows");
  reporter.AddMetric("compaction.deleted_rows_reclaimed",
                     static_cast<double>(totals.deleted_rows_reclaimed),
                     "rows");
  reporter.AddMetric("compaction.ms", compact_ms, "ms");
  reporter.Write();

  const uint64_t live = rows_inserted - rows_deleted;
  std::printf("shape checks:\n");
  std::printf("  scans agree on live rows (%llu): %s\n",
              static_cast<unsigned long long>(live),
              pre.live_rows == live && post.live_rows == live ? "yes" : "NO");
  std::printf("  compaction shrank file count (%llu -> %llu): %s\n",
              static_cast<unsigned long long>(pre.files),
              static_cast<unsigned long long>(post.files),
              post.files < pre.files ? "yes" : "NO");
  std::printf("  compaction shrank scan physical bytes (%s -> %s MB): %s\n",
              bench::Mb(pre.physical_bytes).c_str(),
              bench::Mb(post.physical_bytes).c_str(),
              post.physical_bytes < pre.physical_bytes ? "yes" : "NO");
  std::printf("  delete debt reclaimed: %s\n",
              totals.deleted_rows_reclaimed >= rows_deleted ? "yes" : "NO");
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
