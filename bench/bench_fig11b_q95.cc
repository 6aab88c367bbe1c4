// Reproduces Figure 11(b) of the paper: a TPC-DS-Q95-shaped query — a fact
// table joined with a grouped aggregate of itself (plus a small dimension),
// all keyed on the same column — under three planner configurations:
//   CO=off, UM=off : the original translation (one job per operation)
//   CO=on,  UM=off : Correlation Optimizer merges the correlated shuffles
//   CO=on,  UM=on  : plus elimination of unnecessary Map phases
// Paper speedups: 2.57x with CO, 2.92x combined.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "datagen/tpcds.h"
#include "ql/driver.h"

namespace minihive {
namespace {

using bench::Check;
using bench::CheckResult;

// Q95-shaped: the fact table self-joined on its high-cardinality
// ss_ticket_number through a grouped subquery on the same key — TPC-DS
// Q95's structure (web_sales self-joined on ws_order_number). The fact
// table appears three times with the same join key, giving the Correlation
// Optimizer one job-flow correlation (the grouped subquery feeding the
// join) and one input correlation (two identical plain scans, loaded once).
const char kQ95[] =
    "SELECT ss.ss_store_sk AS store, COUNT(*) AS cnt, "
    "       SUM(ss.ss_net_profit) AS profit "
    "FROM tpcds_store_sales ss "
    "JOIN tpcds_store ON ss.ss_store_sk = tpcds_store.s_store_sk "
    "JOIN (SELECT s.ss_ticket_number AS tn, AVG(s.ss_net_profit) AS ap "
    "      FROM tpcds_store_sales s GROUP BY s.ss_ticket_number) agg "
    "  ON ss.ss_ticket_number = agg.tn "
    "JOIN tpcds_store_sales ss2 ON agg.tn = ss2.ss_ticket_number "
    "WHERE ss.ss_net_profit > agg.ap AND ss2.ss_quantity > 97 "
    "  AND s_state != 'ZZ' "
    "GROUP BY ss.ss_store_sk";

int Main() {
  dfs::FileSystem fs;
  ql::Catalog catalog(&fs);

  std::printf("=== Figure 11(b): Q95-shaped query under planner configs ===\n\n");

  datagen::TpcdsOptions options;
  options.store_sales_rows = 300000;
  Check(datagen::LoadTpcds(&catalog, "tpcds", options), "tpcds");

  struct Config {
    const char* label;
    bool correlation;
    bool merge;
  };
  Config configs[3] = {
      {"w/ UM, CO=off (original)", false, false},
      {"w/ UM, CO=on", true, false},
      {"w/o UM, CO=on (fully optimized)", true, true},
  };
  double elapsed[3];
  int jobs[3];
  size_t rows[3];
  uint64_t shuffled[3], bytes_read[3];
  for (int c = 0; c < 3; ++c) {
    ql::DriverOptions driver_options;
    driver_options.mapjoin_conversion = true;
    // Scaled threshold: dimensions qualify for map joins, facts do not
    // (the paper's 25MB-ish default against SF300 facts).
    driver_options.mapjoin_threshold_bytes = 1 << 20;
    driver_options.merge_maponly_jobs = configs[c].merge;
    driver_options.correlation_optimizer = configs[c].correlation;
    // Scaled-down Hadoop job startup cost (tens of seconds on the paper's
    // cluster; our jobs move ~100x less data).
    driver_options.job_startup_ms = 250;
    ql::Driver driver(&fs, &catalog, driver_options);
    Stopwatch watch;
    ql::QueryResult result = CheckResult(driver.Execute(kQ95), "q95");
    elapsed[c] = watch.ElapsedMillis();
    jobs[c] = result.num_jobs;
    rows[c] = result.rows.size();
    shuffled[c] = result.counters.shuffled_bytes.load();
    bytes_read[c] = result.counters.bytes_read.load();
    std::printf("  %-34s elapsed %8.0f ms   jobs=%d (map-only=%d) rows=%zu\n",
                configs[c].label, elapsed[c], jobs[c],
                result.num_map_only_jobs, rows[c]);
    std::printf("  %-34s read %s MB  shuffled %s MB  sort %s ms\n", "",
                bench::Mb(bytes_read[c]).c_str(),
                bench::Mb(shuffled[c]).c_str(),
                bench::Fmt(result.counters.shuffle_sort_millis(), 1).c_str());
  }

  bench::BenchReporter reporter("fig11b_q95");
  const char* keys[3] = {"original", "co", "co_um"};
  for (int c = 0; c < 3; ++c) {
    std::string prefix = std::string(keys[c]) + ".";
    reporter.AddMetric(prefix + "elapsed_ms", elapsed[c], "ms");
    reporter.AddMetric(prefix + "jobs", jobs[c], "count");
    reporter.AddMetric(prefix + "result_rows", static_cast<double>(rows[c]),
                       "rows");
    reporter.AddMetric(prefix + "shuffled_bytes",
                       static_cast<double>(shuffled[c]), "bytes");
    reporter.AddMetric(prefix + "bytes_read",
                       static_cast<double>(bytes_read[c]), "bytes");
  }
  reporter.Write();

  std::printf("\nshape checks:\n");
  std::printf("  identical results across configs: %s\n",
              rows[0] == rows[1] && rows[1] == rows[2] ? "yes" : "NO");
  std::printf("  job counts fall: %d -> %d -> %d (paper: 8 -> 5 -> 2)\n",
              jobs[0], jobs[1], jobs[2]);
  std::printf("  CO speedup: %.2fx (paper: ~2.57x)\n", elapsed[0] / elapsed[1]);
  std::printf("  CO + UM-elimination speedup: %.2fx (paper: ~2.92x)\n",
              elapsed[0] / elapsed[2]);
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
