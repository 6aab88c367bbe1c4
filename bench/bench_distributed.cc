// Distributed dispatch overhead and fault resilience: the same GROUP BY
// workload through (a) the plain in-process engine pool, the local path, and
// (b) SimulatedRemoteTransport, the remote path, at a 0% and a 2% transport
// fault rate (drops, duplicates, delays, worker crashes, heartbeat loss).
//
// Per-query latency p50/p99 and the dispatch-layer counters are reported.
// The machine-independent gates are the counts: queries completed, result
// rows (identical across every configuration — the dispatch layer must never
// change answers), and dispatches-at-least-tasks under faults. Timings are
// recorded for humans, never gated.
//
// Shape checks: every configuration returns the same rows; the faulted run
// recovers via retries/speculation/fallback rather than failing; and the
// faulted run actually exercised the fault machinery (non-vacuous).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "datagen/loader.h"
#include "dfs/file_system.h"
#include "mr/transport.h"
#include "ql/driver.h"

namespace minihive {
namespace {

using bench::Check;
using bench::Fmt;
using bench::TablePrinter;

struct ConfigResult {
  std::string name;
  int completed = 0;
  uint64_t rows = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_ms = 0;
  uint64_t dispatches = 0;
  uint64_t retries = 0;
  uint64_t speculative = 0;
  uint64_t fallbacks = 0;
  uint64_t faults_fired = 0;
};

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

ConfigResult RunConfig(dfs::FileSystem* fs, ql::Catalog* catalog,
                       const std::string& name, int queries,
                       const WorkerPoolOptions& workers,
                       double fault_rate) {
  ql::DriverOptions options;
  options.num_workers = 2;
  options.workers = workers;
  ql::Driver driver(fs, catalog, options);

  FaultConfig config;
  std::unique_ptr<FaultInjector> injector;
  if (fault_rate > 0) {
    if (workers.num_workers <= 0) {
      std::fprintf(stderr,
                   "FATAL: fault injection needs the simulated transport\n");
      std::abort();
    }
    config.seed = 20260809;
    config.send_drop_probability = fault_rate;
    config.send_duplicate_probability = fault_rate;
    config.response_drop_probability = fault_rate / 2;
    config.worker_crash_before_commit_probability = fault_rate / 10;
    config.heartbeat_drop_probability = fault_rate;
    config.send_delay_probability = fault_rate;
    config.delay_millis = 50;
    injector = std::make_unique<FaultInjector>(config);
    driver.transport()->set_fault_injector(injector.get());
  }

  const std::string sql =
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey";
  ConfigResult r;
  r.name = name;
  std::vector<double> latencies;
  latencies.reserve(queries);
  Stopwatch wall;
  for (int q = 0; q < queries; ++q) {
    Stopwatch latency;
    auto result = driver.Execute(sql);
    latencies.push_back(latency.ElapsedMillis());
    Check(result.status(),
          ("query " + std::to_string(q) + " (" + name + ")").c_str());
    r.completed++;
    r.rows = result->rows.size();
    if (q == 0) {
      // Cross-config determinism gate: every configuration must return the
      // same canonical rows (checked against the plain run by Main).
      static std::vector<std::string> want;
      if (want.empty()) {
        want = Canonicalize(result->rows);
      } else if (Canonicalize(result->rows) != want) {
        std::fprintf(stderr, "FATAL: %s returned different rows\n",
                     name.c_str());
        std::abort();
      }
    }
    r.dispatches += result->counters.transport_dispatches.load();
    r.retries += result->counters.transport_retries.load();
    r.speculative += result->counters.speculative_launches.load();
    r.fallbacks += result->counters.transport_fallbacks.load();
  }
  r.wall_ms = wall.ElapsedMillis();
  if (injector != nullptr) {
    driver.transport()->set_fault_injector(nullptr);
    r.faults_fired = injector->stats().transport_total();
  }
  std::sort(latencies.begin(), latencies.end());
  r.p50_ms = latencies[latencies.size() / 2];
  r.p99_ms = latencies[std::min(latencies.size() - 1,
                                static_cast<size_t>(latencies.size() * 99 /
                                                    100))];
  return r;
}

int Main() {
  std::printf("=== Distributed dispatch: plain vs remote, fault rates ===\n\n");
  bench::BenchReporter reporter("distributed");

  dfs::FileSystemOptions fs_options;
  fs_options.block_size = 128 * 1024;
  dfs::FileSystem fs(fs_options);
  ql::Catalog catalog(&fs);
  const int kRows = bench::SmokeScaled(200000, 20000);
  const int kQueries = bench::SmokeScaled(40, 12);
  std::vector<Row> orders;
  orders.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    orders.push_back({Value::Int(i), Value::Int(i % 128),
                      Value::Double((i % 97) * 2.25)});
  }
  TypePtr schema = bench::CheckResult(
      TypeDescription::Parse(
          "struct<o_id:bigint,o_custkey:bigint,o_amount:double>"),
      "schema");
  Check(datagen::CreateAndLoad(&catalog, "orders", schema,
                               formats::FormatKind::kOrcFile,
                               codec::CompressionKind::kNone, orders, 4),
        "load orders");

  WorkerPoolOptions none;  // num_workers == 0: plain engine pool.
  WorkerPoolOptions remote;
  remote.num_workers = 3;
  remote.rpc_timeout_millis = 500;
  remote.heartbeat_millis = 20;
  remote.retry_backoff.max_millis = 50;

  struct Config {
    const char* name;
    WorkerPoolOptions workers;
    double fault_rate;
  };
  const Config configs[] = {
      {"plain", none, 0.0},
      {"remote_0pct", remote, 0.0},
      {"remote_2pct", remote, 0.02},
  };

  TablePrinter table({"config", "queries", "rows", "p50 ms", "p99 ms",
                      "dispatches", "retries", "spec", "fallbacks",
                      "faults"});
  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    ConfigResult r = RunConfig(&fs, &catalog, config.name, kQueries,
                               config.workers, config.fault_rate);
    table.AddRow({r.name, std::to_string(r.completed),
                  std::to_string(r.rows), Fmt(r.p50_ms), Fmt(r.p99_ms),
                  std::to_string(r.dispatches), std::to_string(r.retries),
                  std::to_string(r.speculative), std::to_string(r.fallbacks),
                  std::to_string(r.faults_fired)});
    results.push_back(r);

    std::string prefix = r.name + ".";
    reporter.AddMetric(prefix + "queries_completed", r.completed, "count");
    reporter.AddMetric(prefix + "result_rows", static_cast<double>(r.rows),
                       "rows");
    reporter.AddMetric(prefix + "p50_ms", r.p50_ms, "ms");
    reporter.AddMetric(prefix + "p99_ms", r.p99_ms, "ms");
    reporter.AddMetric(prefix + "wall_ms", r.wall_ms, "ms");
    // Dispatch/retry/fault counts vary with thread timing under faults
    // (an rpc timeout depends on the wall clock), so they are recorded as
    // timings-class metrics ("events"): visible to humans, never gated.
    reporter.AddMetric(prefix + "dispatches",
                       static_cast<double>(r.dispatches), "events");
    reporter.AddMetric(prefix + "retries", static_cast<double>(r.retries),
                       "events");
    reporter.AddMetric(prefix + "speculative_launches",
                       static_cast<double>(r.speculative), "events");
    reporter.AddMetric(prefix + "local_fallbacks",
                       static_cast<double>(r.fallbacks), "events");
    reporter.AddMetric(prefix + "faults_fired",
                       static_cast<double>(r.faults_fired), "events");
  }
  table.Print();
  reporter.Write();

  const ConfigResult& plain = results[0];
  const ConfigResult& faulted = results[2];
  std::printf("\nshape checks:\n");
  bool rows_match = true;
  for (const ConfigResult& r : results) rows_match &= r.rows == plain.rows;
  std::printf("  identical rows across all configs: %s\n",
              rows_match ? "yes" : "NO");
  std::printf("  faulted run completed all queries: %s\n",
              faulted.completed == kQueries ? "yes" : "NO");
  std::printf("  faulted run exercised faults: %s (%llu fired)\n",
              faulted.faults_fired > 0 ? "yes" : "NO",
              static_cast<unsigned long long>(faulted.faults_fired));
  std::printf("  remote p99 overhead vs plain: %.2fx (0%%), %.2fx (2%%)\n",
              results[1].p99_ms / std::max(0.001, plain.p99_ms),
              faulted.p99_ms / std::max(0.001, plain.p99_ms));
  if (!rows_match || faulted.completed != kQueries ||
      faulted.faults_fired == 0) {
    std::fprintf(stderr, "FATAL: distributed dispatch shape check failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
