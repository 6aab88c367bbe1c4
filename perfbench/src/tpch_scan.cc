// tpch_scan: one closed-loop client on one long-lived Driver (vectorized,
// 2 workers, default 128 MiB block cache) over a 2M-row uncompressed ORC
// lineitem (178 MiB, larger than the cache). Round-robin Q1 (8 aggregates
// grouped by l_returnflag, l_linestatus), Q6 (keyless, selective) and a
// point lookup on l_partkey over a 7-column projection. ORC decode, late
// materialization and vectorized aggregation dominate; almost no shuffle.
//
// Reference answers are computed straight from datagen::TpchLineitemRow,
// with no planner involved.

#include <map>
#include <unordered_map>

#include "common/random.h"
#include "datagen/tpch.h"
#include "perfbench/src/bench.h"

namespace minihive::perfbench {

namespace {

constexpr uint64_t kRows = 2000000;
constexpr int kFiles = 4;
constexpr int kQ6Variants = 8;
constexpr int kLookupKeys = 32;

// Day numbers of Jan 1st, 1993..1998 (Q6 ships within one year).
constexpr int64_t kYearStart[] = {8401, 8766, 9131, 9496, 9862, 10227};

const char kQ1[] =
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= 10471 GROUP BY l_returnflag, l_linestatus";

struct Q6Params {
  int year = 0;           // Index into kYearStart.
  int discount = 0;       // Hundredths; the window is +-1.
  int quantity = 0;       // Exclusive upper bound.
  double lo = 0, hi = 0;  // Discount bounds as the engine parses them.

  std::string Sql() const {
    return Fmt("SELECT SUM(l_extendedprice * l_discount) AS revenue "
               "FROM lineitem WHERE l_shipdate BETWEEN %lld AND %lld "
               "AND l_discount BETWEEN %s AND %s AND l_quantity < %d",
               static_cast<long long>(kYearStart[year]),
               static_cast<long long>(kYearStart[year + 1]),
               Literal(discount - 1).c_str(), Literal(discount + 1).c_str(),
               quantity);
  }
  static std::string Literal(int hundredths) {
    return Fmt("%d.%02d", hundredths / 100, hundredths % 100);
  }
};

std::string LookupSql(int64_t partkey) {
  return Fmt("SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, "
             "l_shipinstruct, l_shipmode, l_comment FROM lineitem "
             "WHERE l_partkey = %lld",
             static_cast<long long>(partkey));
}

/// Query parameters drawn from the run seed.
struct Params {
  std::vector<Q6Params> q6;
  std::vector<int64_t> lookup_keys;
};

Params MakeParams(uint64_t seed) {
  Random rng(DeriveSeed(seed, 1));
  Params p;
  for (int i = 0; i < kQ6Variants; ++i) {
    Q6Params q;
    q.year = static_cast<int>(rng.Uniform(5));
    q.discount = static_cast<int>(rng.Range(2, 9));
    q.quantity = static_cast<int>(rng.Range(24, 25));
    q.lo = std::strtod(Q6Params::Literal(q.discount - 1).c_str(), nullptr);
    q.hi = std::strtod(Q6Params::Literal(q.discount + 1).c_str(), nullptr);
    p.q6.push_back(q);
  }
  for (int i = 0; i < kLookupKeys; ++i) {
    p.lookup_keys.push_back(rng.Range(1, 20000));
  }
  return p;
}

uint64_t DataSeed(const Args& args) { return DeriveSeed(args.seed, 0); }

std::unique_ptr<DriverEnv> Setup(const Args& args) {
  auto env = std::make_unique<DriverEnv>();
  env->fs = std::make_unique<dfs::FileSystem>();
  env->catalog = std::make_unique<ql::Catalog>(env->fs.get());
  const uint64_t seed = DataSeed(args);
  Check(datagen::CreateAndLoadStreaming(
            env->catalog.get(), "lineitem", datagen::TpchLineitemSchema(),
            formats::FormatKind::kOrcFile, codec::CompressionKind::kNone,
            kRows,
            [seed](uint64_t i) { return datagen::TpchLineitemRow(i, seed); },
            kFiles),
        "load lineitem");
  env->tables = {"lineitem"};
  ql::DriverOptions options;
  options.vectorized_execution = true;
  // Half the 4 vCPUs the benchmark is sized for. This scan streams more
  // than the block cache holds; on 4 workers its latency followed the
  // host's load (quartile spread 0.12 to 0.20 over ten seeds, against
  // 0.04 to 0.05 on 2).
  options.num_workers = 2;
  env->driver = std::make_unique<ql::Driver>(env->fs.get(), env->catalog.get(),
                                             options);
  const Params params = MakeParams(args.seed);
  for (const std::string& sql : {std::string(kQ1), params.q6[0].Sql(),
                                 LookupSql(params.lookup_keys[0])}) {
    Check(env->driver->Execute(sql).status(), "warm-up query");
  }
  return env;
}

std::vector<QueryClass> Classes(const Args& args) {
  const Params params = MakeParams(args.seed);
  struct Q1Group {
    double qty = 0, price = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Q1Group> q1;
  std::vector<double> q6(params.q6.size(), 0);
  std::unordered_map<int64_t, std::vector<Row>> lookups;
  for (int64_t key : params.lookup_keys) lookups[key];

  const uint64_t seed = DataSeed(args);
  for (uint64_t i = 0; i < kRows; ++i) {
    Row row = datagen::TpchLineitemRow(i, seed);
    const double qty = row[4].AsDouble(), price = row[5].AsDouble(),
                 disc = row[6].AsDouble(), tax = row[7].AsDouble();
    const int64_t shipdate = row[10].AsInt();
    if (shipdate <= datagen::kTpchQ1ShipdateCutoff) {
      Q1Group& g = q1[{row[8].AsString(), row[9].AsString()}];
      g.qty += qty;
      g.price += price;
      g.disc_price += price * (1 - disc);
      g.charge += price * (1 - disc) * (1 + tax);
      g.disc += disc;
      g.count += 1;
    }
    for (size_t v = 0; v < params.q6.size(); ++v) {
      const Q6Params& p = params.q6[v];
      if (shipdate >= kYearStart[p.year] &&
          shipdate <= kYearStart[p.year + 1] && disc >= p.lo &&
          disc <= p.hi && qty < p.quantity) {
        q6[v] += price * disc;
      }
    }
    auto hit = lookups.find(row[1].AsInt());
    if (hit != lookups.end()) {
      hit->second.push_back(
          {row[0], row[1], row[4], row[5], row[13], row[14], row[15]});
    }
  }

  std::vector<QueryClass> classes(3);
  classes[0].name = "q1";
  QueryClass::Instance q1_inst{kQ1, {}};
  for (const auto& [key, g] : q1) {
    const double n = static_cast<double>(g.count);
    q1_inst.expected.push_back(
        {Value::String(key.first), Value::String(key.second),
         Value::Double(g.qty), Value::Double(g.price),
         Value::Double(g.disc_price), Value::Double(g.charge),
         Value::Double(g.qty / n), Value::Double(g.price / n),
         Value::Double(g.disc / n), Value::Int(g.count)});
  }
  classes[0].instances.push_back(std::move(q1_inst));
  classes[1].name = "q6";
  for (size_t v = 0; v < params.q6.size(); ++v) {
    classes[1].instances.push_back(
        {params.q6[v].Sql(), {{Value::Double(q6[v])}}});
  }
  classes[2].name = "lookup";
  for (int64_t key : params.lookup_keys) {
    classes[2].instances.push_back({LookupSql(key), lookups[key]});
  }
  return classes;
}

}  // namespace

Report RunTpchScan(const Args& args) {
  return RunSingleClient(args, Setup,
                         [&args](DriverEnv*) { return Classes(args); });
}

}  // namespace minihive::perfbench
