// Shared pieces of the repository benchmark: arguments, latency statistics,
// result checking, the per-query time breakdown read from QueryResult, the
// layer probes, and the one-line JSON report the benchmark ends with.
//
// Each workload (tpch_scan.cc, tpcds_join.cc, ingest_serve.cc) is a function
// from Args to a Report. The program under test receives only the generated
// inputs; every probe calls the repository's public functions from outside.

#ifndef MINIHIVE_PERFBENCH_BENCH_H_
#define MINIHIVE_PERFBENCH_BENCH_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cache.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/value.h"
#include "ql/catalog.h"
#include "ql/driver.h"

namespace minihive::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where a traced run writes its span file, relative to the checkout root
/// (the benchmark's working directory).
inline constexpr char kTraceDir[] = ".bench_build/traces";

/// Derives an independent 64-bit stream value from the run seed (splitmix64),
/// so datagen seeds and query parameters never share bits by accident.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Aborts the benchmark (no result line, nonzero exit) on a set-up error.
void Check(const Status& status, const char* what);

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Mean without the lowest and highest tenth (n/10 values off each end):
/// smooth where a class's latencies have two modes, and a stall or two
/// does not move it.
double TrimmedMean(std::vector<double> values);
/// Seconds on a monotonic clock.
double NowSeconds();

/// Samples this process's resident set size every 20 ms from
/// /proc/self/statm, from construction until PeakMb(). Free heap is handed
/// back to the OS first, so the peak belongs to the sampled span and not to
/// set-up or reference runs before it.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; the peak in MB (10^6 bytes).
  double PeakMb();

 private:
  void Sample();

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  uint64_t peak_bytes_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Result checking.
// ---------------------------------------------------------------------------

/// True when the two row sets are equal as multisets. Integers and strings
/// compare exactly; doubles at 1e-9 relative.
bool SameRows(std::vector<Row> actual, std::vector<Row> expected);

// ---------------------------------------------------------------------------
// The report: the last stdout line is {"correct", "attempted", "failed",
// "metrics"}. Extra human-readable lines are printed before it.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// Lines printed before the JSON line: per-class latencies, fail_frac,
  /// the "where the time went" table.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
void PrintReport(const Report& report);

/// Every workload has this many statement classes; an untraced run reports
/// each one's trimmed mean latency as class<i>_mean_ms (i = 1..kClasses, in
/// the workload's order), so a regression in any single class shows in
/// full.
inline constexpr size_t kClasses = 3;

/// Adds class<i>_mean_ms, and query_p90_ms over all classes pooled, to an
/// untraced run's report, and notes each class's figures by its own name.
void AddLatencyMetrics(const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& latencies_ms,
                       Report* report);

// ---------------------------------------------------------------------------
// Per-query breakdown, read from what the public API returns with
// enable_profiling on: driver spans (plan / execute / fetch), the
// QueryResult counters, and attributes the driver sets on the query span.
// ---------------------------------------------------------------------------

struct QueryBreakdown {
  double wall_ms = 0;
  double plan_ms = 0;
  double execute_ms = 0;
  double fetch_ms = 0;
  double map_phase_ms = 0;
  double reduce_phase_ms = 0;
  double local_task_ms = 0;
  double task_cpu_ms = 0;
  double shuffle_sort_ms = 0;
  double shuffled_bytes = 0;
  double combine_in = 0;
  double combine_out = 0;
  double map_tasks = 0;
  double map_attempts = 0;
  double empty_map_attempts = 0;
  double task_failures = 0;
  double admission_wait_ms = 0;
  double sched_queue_wait_ms = 0;
  double budget_peak_bytes = 0;
};

/// Reads one profiled query's breakdown; `wall_ms` is the caller's own
/// stopwatch around Driver::Execute.
QueryBreakdown ReadBreakdown(const ql::QueryResult& result, double wall_ms);

/// Sums breakdowns and emits the traced run's per-layer metrics plus the
/// "where the time went" table (lines that add up to wall time).
void AddBreakdownMetrics(const std::vector<QueryBreakdown>& queries,
                         Report* report);

/// Process-wide DFS and session-cache counters at one instant. Per-run
/// numbers are deltas of two snapshots taken around the whole measured
/// phase, never per-query profile attributes (those diff process-wide
/// counters and absorb concurrent queries' work).
struct IoSnapshot {
  uint64_t bytes_read = 0, physical = 0, cached = 0, read_ops = 0;
  uint64_t bytes_written = 0;
  cache::Cache::StatsSnapshot block, meta;
};
IoSnapshot TakeIo(dfs::FileSystem* fs);
/// dfs.* and cache.* metrics of one phase; per-query figures divide by
/// `queries`.
void AddIoMetrics(const IoSnapshot& before, const IoSnapshot& after,
                  double queries, Report* report);

// ---------------------------------------------------------------------------
// Layer probes (probes.cc). Each wraps its calls in benchmark-owned spans
// under `parent`.
// ---------------------------------------------------------------------------

/// One query's planning, timed phase by phase through the public ql
/// functions, replaying exactly the driver's sequence for these options.
struct PlanProbe {
  double parse_us = 0;
  double analyze_us = 0;
  double optimize_us = 0;
  double compile_us = 0;
  int jobs = 0;
  int map_only_jobs = 0;
  /// Table scans of the optimized plan: table, projection and SARG.
  struct Scan {
    std::string table;
    std::vector<int> projection;
    std::shared_ptr<orc::SearchArgument> sarg;
  };
  std::vector<Scan> scans;
};
PlanProbe ProbePlan(ql::Catalog* catalog, const ql::DriverOptions& options,
                    const std::string& sql, telemetry::Span* parent);

/// The ORC scans of one query, replayed through OrcReader::Open/NextBatch
/// on the calling thread.
struct ScanProbe {
  double open_us = 0;  // Summed over files.
  double scan_ms = 0;
  double cpu_ms = 0;
  double rows = 0;  // Physical rows of the scanned files.
  double groups_read = 0;
  double groups_total = 0;
  double rows_late_skipped = 0;
  double bytes_read = 0;
};
ScanProbe ProbeScans(ql::Catalog* catalog, const PlanProbe& plan,
                     telemetry::Span* parent);

/// CRC-32 and decompression cost per byte over the tables' own file bytes.
/// decompress_ns_per_byte is 0 for uncompressed tables.
struct ByteProbe {
  double crc_ns_per_byte = 0;
  double decompress_ns_per_byte = 0;
};
ByteProbe ProbeBytes(ql::Catalog* catalog,
                     const std::vector<std::string>& tables,
                     telemetry::Span* parent);

/// One query class's probes, with `weight`, the class's share of the traced
/// queries, and `task_cpu_ms`, its mean task CPU per query.
struct ClassProbe {
  PlanProbe plan;
  ScanProbe scan;
  double weight = 0;
  double task_cpu_ms = 0;
};
/// Adds the ql/orc/exec/crc/codec per-layer metrics, weighting each class
/// by its share of the traced queries.
void AddProbeMetrics(const std::vector<ClassProbe>& classes,
                     const ByteProbe& bytes, double bytes_read_per_query,
                     double compressed_bytes_per_query, Report* report);

/// Writes the benchmark's span tree under kTraceDir.
void WriteTrace(const Args& args, const telemetry::Span& root);

// ---------------------------------------------------------------------------
// Single-client closed loop over one long-lived Driver (closed_loop.cc):
// the shape shared by tpch_scan and tpcds_join.
// ---------------------------------------------------------------------------

/// The program under test for one single-client workload.
struct DriverEnv {
  std::unique_ptr<dfs::FileSystem> fs;
  std::unique_ptr<ql::Catalog> catalog;
  std::unique_ptr<ql::Driver> driver;
  /// Tables the queries scan (byte probes run over their files).
  std::vector<std::string> tables;
};

/// One statement class of a query stream: its instances (SQL plus the
/// reference answer) are issued in turn.
struct QueryClass {
  std::string name;
  struct Instance {
    std::string sql;
    std::vector<Row> expected;
  };
  std::vector<Instance> instances;
};

/// Builds the environment, warm-up included (timed as set-up).
using SetupFn = std::function<std::unique_ptr<DriverEnv>(const Args&)>;
/// Builds the query stream with its reference answers (not timed).
using ClassesFn = std::function<std::vector<QueryClass>(DriverEnv*)>;

Report RunSingleClient(const Args& args, const SetupFn& setup,
                       const ClassesFn& classes);

/// Builds a workload's environment and reports its set-up time. A traced
/// run sets up once. Otherwise set-up repeats at least 3 and at most 9
/// times, until 6 s were spent, so short set-ups get more samples; the last
/// environment is kept and *setup_s is the median.
template <typename Env>
std::unique_ptr<Env> RepeatSetup(
    const Args& args, const std::function<std::unique_ptr<Env>()>& setup,
    double* setup_s) {
  std::vector<double> seconds;
  double total = 0;
  std::unique_ptr<Env> env;
  while (seconds.empty() ||
         (!args.trace && seconds.size() < 9 &&
          (seconds.size() < 3 || total < 6))) {
    env.reset();  // One environment alive at a time.
    const double start = NowSeconds();
    env = setup();
    seconds.push_back(NowSeconds() - start);
    total += seconds.back();
  }
  *setup_s = Median(seconds);
  return env;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

Report RunTpchScan(const Args& args);
Report RunTpcdsJoin(const Args& args);
Report RunIngestServe(const Args& args);

}  // namespace minihive::perfbench

#endif  // MINIHIVE_PERFBENCH_BENCH_H_
