// Reproduces Figure 11(a) of the paper: TPC-DS Q27 — a star join of one
// fact table with four small dimensions, then aggregation and sort — with
// and without the elimination of unnecessary Map phases (§5.1).
//
// Without the optimization, every converted Map Join occupies its own
// Map-only job whose Map phase merely reloads intermediate results from the
// DFS (4 Map-only jobs + 1 MapReduce job). With it, all Map Joins execute
// inside a single merged Map phase. Paper speedup: ~2.34x.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "datagen/tpcds.h"
#include "ql/driver.h"

namespace minihive {
namespace {

using bench::Check;
using bench::CheckResult;
using bench::Fmt;

const char kQ27[] =
    "SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2, "
    "       AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 "
    "FROM tpcds_store_sales "
    "JOIN tpcds_customer_demographics "
    "  ON tpcds_store_sales.ss_cdemo_sk = "
    "     tpcds_customer_demographics.cd_demo_sk "
    "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
    "                       tpcds_date_dim.d_date_sk "
    "JOIN tpcds_store ON tpcds_store_sales.ss_store_sk = "
    "                    tpcds_store.s_store_sk "
    "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
    "WHERE cd_gender = 'M' AND cd_marital_status = 'S' "
    "  AND cd_education_status = 'College' AND d_year = 2000 "
    "GROUP BY i_item_id ORDER BY i_item_id";

int Main() {
  dfs::FileSystem fs;
  ql::Catalog catalog(&fs);

  std::printf("=== Figure 11(a): TPC-DS Q27, with/without unnecessary Map "
              "phases ===\n\n");

  datagen::TpcdsOptions options;
  options.store_sales_rows = 400000;
  Check(datagen::LoadTpcds(&catalog, "tpcds", options), "tpcds");

  struct Config {
    const char* label;
    bool merge;
  };
  double elapsed[2];
  int jobs[2], map_only[2];
  size_t rows[2];
  uint64_t shuffled[2], bytes_read[2];
  Config configs[2] = {{"w/ UM (unmerged map-only jobs)", false},
                       {"w/o UM (merged)", true}};
  for (int c = 0; c < 2; ++c) {
    ql::DriverOptions driver_options;
    driver_options.mapjoin_conversion = true;
    // Scaled threshold: dimensions qualify for map joins, facts do not
    // (the paper's 25MB-ish default against SF300 facts).
    driver_options.mapjoin_threshold_bytes = 1 << 20;
    driver_options.merge_maponly_jobs = configs[c].merge;
    driver_options.correlation_optimizer = false;
    // Scaled-down Hadoop job startup cost (see DESIGN.md).
    driver_options.job_startup_ms = 250;
    ql::Driver driver(&fs, &catalog, driver_options);
    Stopwatch watch;
    ql::QueryResult result = CheckResult(driver.Execute(kQ27), "q27");
    elapsed[c] = watch.ElapsedMillis();
    jobs[c] = result.num_jobs;
    map_only[c] = result.num_map_only_jobs;
    rows[c] = result.rows.size();
    shuffled[c] = result.counters.shuffled_bytes.load();
    bytes_read[c] = result.counters.bytes_read.load();
    std::printf("  %-32s elapsed %8.0f ms   jobs=%d (map-only=%d) rows=%zu\n",
                configs[c].label, elapsed[c], jobs[c], map_only[c], rows[c]);
    std::printf("  %-32s read %s MB  shuffled %s MB  sort %s ms  "
                "combine %llu -> %llu\n",
                "", bench::Mb(bytes_read[c]).c_str(),
                bench::Mb(shuffled[c]).c_str(),
                Fmt(result.counters.shuffle_sort_millis(), 1).c_str(),
                static_cast<unsigned long long>(
                    result.counters.combine_input_records.load()),
                static_cast<unsigned long long>(
                    result.counters.combine_output_records.load()));
  }

  bench::BenchReporter reporter("fig11a_q27");
  const char* keys[2] = {"unmerged", "merged"};
  for (int c = 0; c < 2; ++c) {
    std::string prefix = std::string(keys[c]) + ".";
    reporter.AddMetric(prefix + "elapsed_ms", elapsed[c], "ms");
    reporter.AddMetric(prefix + "jobs", jobs[c], "count");
    reporter.AddMetric(prefix + "map_only_jobs", map_only[c], "count");
    reporter.AddMetric(prefix + "result_rows", static_cast<double>(rows[c]),
                       "rows");
    reporter.AddMetric(prefix + "shuffled_bytes",
                       static_cast<double>(shuffled[c]), "bytes");
    reporter.AddMetric(prefix + "bytes_read",
                       static_cast<double>(bytes_read[c]), "bytes");
  }
  reporter.Write();

  std::printf("\nshape checks:\n");
  std::printf("  plans produce identical row counts: %s\n",
              rows[0] == rows[1] ? "yes" : "NO");
  std::printf("  unmerged plan has extra Map-only jobs (paper: 4): %d -> %d\n",
              map_only[0], map_only[1]);
  std::printf("  speedup from eliminating unnecessary Map phases: %.2fx "
              "(paper: ~2.34x)\n",
              elapsed[0] / elapsed[1]);
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
