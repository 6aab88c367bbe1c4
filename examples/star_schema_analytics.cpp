// Star-schema analytics: the workload the paper's planner advancements
// target. Loads a TPC-DS-shaped warehouse and runs the same business
// question under four planner configurations, printing the job DAGs so the
// effect of each optimization is visible. Per-job lines come from the
// query's profile: one "job:<name>" span per job under "execute".

#include <cstdio>

#include "datagen/tpcds.h"
#include "ql/driver.h"

using namespace minihive;

namespace {

const char kStarQuery[] =
    "SELECT i_category, s_state, COUNT(*) AS sales, "
    "       AVG(ss_sales_price) AS avg_price "
    "FROM tpcds_store_sales "
    "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
    "JOIN tpcds_store ON tpcds_store_sales.ss_store_sk = "
    "                    tpcds_store.s_store_sk "
    "WHERE i_category IN ('Books', 'Music') "
    "GROUP BY i_category, s_state ORDER BY i_category, s_state";

int Run() {
  dfs::FileSystem fs;
  ql::Catalog catalog(&fs);
  datagen::TpcdsOptions data;
  data.store_sales_rows = 100000;
  if (!datagen::LoadTpcds(&catalog, "tpcds", data).ok()) return 1;

  struct Config {
    const char* label;
    bool mapjoin;
    bool merge;
    bool correlation;
  };
  Config configs[] = {
      {"original translation (reduce joins, one job per operation)", false,
       false, false},
      {"+ map joins (each in its own Map-only job)", true, false, false},
      {"+ unnecessary-Map-phase elimination (paper 5.1)", true, true, false},
      {"+ correlation optimizer (paper 5.2)", true, true, true},
  };

  for (const Config& config : configs) {
    ql::DriverOptions options;
    options.mapjoin_conversion = config.mapjoin;
    options.mapjoin_threshold_bytes = 1 << 20;
    options.merge_maponly_jobs = config.merge;
    options.correlation_optimizer = config.correlation;
    options.enable_profiling = true;
    ql::Driver driver(&fs, &catalog, options);
    auto result = driver.Execute(kStarQuery);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %s ===\n", config.label);
    std::printf("jobs: %d (map-only: %d), elapsed %.0f ms, "
                "shuffled %.2f MB\n",
                result->num_jobs, result->num_map_only_jobs,
                result->elapsed_millis,
                result->counters.shuffled_bytes.load() / (1024.0 * 1024.0));
    const telemetry::Span* execute =
        result->profile->FindDescendant("execute");
    for (const telemetry::Span* job : execute->children()) {
      std::printf("  %-18s %6.0f ms  (%s map / %s reduce tasks)\n",
                  job->name().substr(4).c_str(), job->duration_nanos() / 1e6,
                  job->FindAttr("map_tasks")->ToDisplayString().c_str(),
                  job->FindAttr("reduce_tasks")->ToDisplayString().c_str());
    }
    if (&config == &configs[3]) {
      std::printf("\nresults:\n");
      for (const Row& row : result->rows) {
        std::printf("  %-14s %-4s sales=%-7s avg_price=%s\n",
                    row[0].ToString().c_str(), row[1].ToString().c_str(),
                    row[2].ToString().c_str(), row[3].ToString().c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
