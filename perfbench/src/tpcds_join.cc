// tpcds_join: one closed-loop client on one Driver (vectorized, Correlation
// Optimizer on, 1 MiB map-join threshold so the four dimensions become map
// joins and the fact table does not, 4 workers, no simulated job startup)
// over a 250k-row FastLz ORC store_sales (7.4 MiB with the dimensions; fits
// the block cache).
// Round-robin Q27-shaped star join, Q95-shaped self-join and Q3-shaped
// two-dimension join: shuffle sort/merge, map-join builds, row-mode join
// operators, decompression and job merging dominate.
//
// Reference answers come from one run of each query with row mode on and
// the Correlation Optimizer and map-join conversion off.

#include "common/random.h"
#include "datagen/tpcds.h"
#include "perfbench/src/bench.h"

namespace minihive::perfbench {

namespace {

constexpr uint64_t kStoreSalesRows = 250000;

const char* const kGenders[] = {"M", "F"};
const char* const kMarital[] = {"S", "M", "D", "W", "U"};
const char* const kEducation[] = {"Primary",     "Secondary",
                                  "College",     "2 yr Degree",
                                  "4 yr Degree", "Advanced Degree",
                                  "Unknown"};

/// Q27 with its demographic filter drawn from the seed (every combination
/// matches 1/70 of customer_demographics, so cost does not depend on it).
std::string Q27(uint64_t seed) {
  Random rng(DeriveSeed(seed, 1));
  const char* gender = kGenders[rng.Uniform(2)];
  const char* marital = kMarital[rng.Uniform(5)];
  const char* education = kEducation[rng.Uniform(7)];
  return Fmt(
      "SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2, "
      "AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 "
      "FROM tpcds_store_sales "
      "JOIN tpcds_customer_demographics "
      "  ON tpcds_store_sales.ss_cdemo_sk = "
      "     tpcds_customer_demographics.cd_demo_sk "
      "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
      "                       tpcds_date_dim.d_date_sk "
      "JOIN tpcds_store ON tpcds_store_sales.ss_store_sk = "
      "                    tpcds_store.s_store_sk "
      "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
      "WHERE cd_gender = '%s' AND cd_marital_status = '%s' "
      "  AND cd_education_status = '%s' AND d_year = 2000 "
      "GROUP BY i_item_id ORDER BY i_item_id",
      gender, marital, education);
}

/// Q3-shaped: two map joins and a small aggregate, with its month and price
/// floor drawn from the seed.
std::string Q3(uint64_t seed) {
  Random rng(DeriveSeed(seed, 2));
  const int month = static_cast<int>(rng.Range(1, 12));
  const int price = static_cast<int>(rng.Range(20, 150));
  return Fmt(
      "SELECT d_year, i_category, SUM(ss_sales_price) AS sum_agg, "
      "COUNT(*) AS cnt "
      "FROM tpcds_store_sales "
      "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
      "                       tpcds_date_dim.d_date_sk "
      "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
      "WHERE d_moy = %d AND i_current_price > %d "
      "GROUP BY d_year, i_category ORDER BY d_year, i_category",
      month, price);
}

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

/// The query stream, in the order the classes are issued and reported.
std::vector<std::string> Stream(const Args& args) {
  return {Q27(args.seed), std::string(kQ95), Q3(args.seed)};
}
const char* const kClassNames[] = {"q27", "q95", "q3"};

std::unique_ptr<DriverEnv> Setup(const Args& args) {
  auto env = std::make_unique<DriverEnv>();
  env->fs = std::make_unique<dfs::FileSystem>();
  env->catalog = std::make_unique<ql::Catalog>(env->fs.get());
  datagen::TpcdsOptions data;
  data.store_sales_rows = kStoreSalesRows;
  data.format = formats::FormatKind::kOrcFile;
  data.compression = codec::CompressionKind::kFastLz;
  data.seed = DeriveSeed(args.seed, 0);
  Check(datagen::LoadTpcds(env->catalog.get(), "tpcds", data), "load tpcds");
  env->tables = {"tpcds_store_sales", "tpcds_item", "tpcds_store",
                 "tpcds_customer_demographics", "tpcds_date_dim"};
  ql::DriverOptions options;
  options.vectorized_execution = true;
  options.correlation_optimizer = true;
  options.mapjoin_threshold_bytes = 1 << 20;
  options.job_startup_ms = 0;
  options.num_workers = 4;
  env->driver = std::make_unique<ql::Driver>(env->fs.get(), env->catalog.get(),
                                             options);
  for (const std::string& sql : Stream(args)) {
    Check(env->driver->Execute(sql).status(), "warm-up query");
  }
  return env;
}

std::vector<QueryClass> Classes(const Args& args, DriverEnv* env) {
  // The reference configuration runs on the same Driver (and so the same
  // session caches): a second Driver would replace its cache installation.
  ql::DriverOptions& options = env->driver->options();
  const ql::DriverOptions saved = options;
  options.vectorized_execution = false;
  options.correlation_optimizer = false;
  options.mapjoin_conversion = false;
  const std::vector<std::string> stream = Stream(args);
  std::vector<QueryClass> classes(stream.size());
  for (size_t c = 0; c < stream.size(); ++c) {
    ql::QueryResult reference =
        CheckResult(env->driver->Execute(stream[c]), "reference query");
    if (reference.rows.empty()) {
      Check(Status::Internal("empty reference answer"), stream[c].c_str());
    }
    classes[c].name = kClassNames[c];
    classes[c].instances.push_back({stream[c], std::move(reference.rows)});
  }
  options = saved;
  return classes;
}

}  // namespace

Report RunTpcdsJoin(const Args& args) {
  return RunSingleClient(
      args, Setup, [&args](DriverEnv* env) { return Classes(args, env); });
}

}  // namespace minihive::perfbench
