// One client, one long-lived Driver, queries issued back to back (a closed
// loop): the runner shared by tpch_scan and tpcds_join.
//
// Untraced run: set-up is timed several times (median reported), then the
// loop runs for the whole --seconds and yields the end-to-end metrics.
// Traced run: half the time untraced (the tracing-off throughput), half
// with enable_profiling (the per-query breakdown), then the layer probes
// for each query class.

#include <algorithm>

#include "common/stopwatch.h"
#include "perfbench/src/bench.h"

namespace minihive::perfbench {

namespace {

struct LoopResult {
  std::vector<std::vector<double>> latencies_ms;  // Per class.
  std::vector<std::vector<double>> cpu_ms;        // Per class, traced only.
  std::vector<QueryBreakdown> breakdowns;         // Traced only.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  IoSnapshot io_before, io_after;

  uint64_t completed() const { return attempted - failed; }
};

/// Runs the query stream for `seconds`. With a `trace` span, profiling is
/// on and every query gets a client-side child span.
LoopResult RunLoop(DriverEnv* env, const std::vector<QueryClass>& classes,
                   double seconds, telemetry::Span* trace) {
  const bool traced = trace != nullptr;
  LoopResult r;
  r.latencies_ms.resize(classes.size());
  r.cpu_ms.resize(classes.size());
  env->driver->options().enable_profiling = traced;
  r.io_before = TakeIo(env->fs.get());
  Stopwatch wall;
  // Every class runs at least once, whatever the time budget.
  for (uint64_t k = 0;
       wall.ElapsedSeconds() < seconds || k < classes.size(); ++k) {
    const size_t c = k % classes.size();
    const QueryClass& cls = classes[c];
    const QueryClass::Instance& inst =
        cls.instances[(k / classes.size()) % cls.instances.size()];
    ++r.attempted;
    telemetry::Span* span =
        traced ? trace->StartChild("query:" + cls.name) : nullptr;
    Stopwatch latency;
    Result<ql::QueryResult> result = env->driver->Execute(inst.sql);
    const double ms = latency.ElapsedMillis();
    if (span != nullptr) span->End();
    if (!result.ok()) {
      ++r.failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", cls.name.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    if (!SameRows(result->rows, inst.expected)) {
      ++r.failed;
      std::fprintf(stderr, "perfbench: %s returned a wrong result\n",
                   cls.name.c_str());
      continue;
    }
    r.latencies_ms[c].push_back(ms);
    if (traced) {
      r.breakdowns.push_back(ReadBreakdown(*result, ms));
      r.cpu_ms[c].push_back(result->counters.cpu_millis());
    }
  }
  r.elapsed_s = wall.ElapsedSeconds();
  r.io_after = TakeIo(env->fs.get());
  env->driver->options().enable_profiling = false;
  return r;
}

}  // namespace

Report RunSingleClient(const Args& args, const SetupFn& setup,
                       const ClassesFn& make_classes) {
  Report report;
  double setup_s = 0;
  std::unique_ptr<DriverEnv> env = RepeatSetup<DriverEnv>(
      args, [&] { return setup(args); }, &setup_s);
  const std::vector<QueryClass> classes = make_classes(env.get());
  if (classes.size() != kClasses) {
    Check(Status::Internal("wrong number of query classes"), "query stream");
  }
  uint64_t table_bytes = 0;
  for (const std::string& name : env->tables) {
    table_bytes += env->catalog->TableBytes(
        *CheckResult(env->catalog->GetTable(name), "table"));
  }
  report.Note(Fmt("data: %.1f MB in %zu tables", table_bytes / 1e6,
                  env->tables.size()));

  if (!args.trace) {
    RssSampler rss;
    LoopResult r = RunLoop(env.get(), classes, args.seconds, nullptr);
    report.attempted = r.attempted;
    report.failed = r.failed;
    std::vector<std::string> names;
    for (const QueryClass& cls : classes) names.push_back(cls.name);
    AddLatencyMetrics(names, r.latencies_ms, &report);
    report.Note(Fmt("fail_frac = %g",
                    static_cast<double>(r.failed) / r.attempted));
    report.Set("setup_s", setup_s, "s");
    report.Set("queries_per_s", r.completed() / r.elapsed_s, "1/s");
    report.Set("peak_rss_mb", rss.PeakMb(), "MB");
    return report;
  }

  telemetry::Span root("perfbench:" + args.workload);
  LoopResult plain = RunLoop(env.get(), classes, args.seconds / 2, nullptr);
  telemetry::Span* loop_span = root.StartChild("traced_loop");
  LoopResult traced = RunLoop(env.get(), classes, args.seconds / 2, loop_span);
  loop_span->End();
  report.attempted = plain.attempted + traced.attempted;
  report.failed = plain.failed + traced.failed;
  const double plain_qps = plain.completed() / plain.elapsed_s;
  const double traced_qps = traced.completed() / traced.elapsed_s;
  report.Set("trace.overhead_frac", 1 - traced_qps / plain_qps, "frac");
  report.Set("trace.queries", static_cast<double>(traced.breakdowns.size()),
             "count");
  AddBreakdownMetrics(traced.breakdowns, &report);
  AddIoMetrics(traced.io_before, traced.io_after,
               static_cast<double>(traced.completed()), &report);

  // Layer probes, once per query class, after the measured loops.
  std::vector<ClassProbe> probes;
  const ql::DriverOptions& options = env->driver->options();
  for (size_t c = 0; c < classes.size(); ++c) {
    telemetry::Span* span = root.StartChild("class:" + classes[c].name);
    ClassProbe probe;
    probe.plan = ProbePlan(env->catalog.get(), options,
                           classes[c].instances[0].sql, span);
    probe.scan = ProbeScans(env->catalog.get(), probe.plan, span);
    probe.weight = traced.breakdowns.empty()
                       ? 0
                       : static_cast<double>(traced.cpu_ms[c].size()) /
                             traced.breakdowns.size();
    probe.task_cpu_ms = Mean(traced.cpu_ms[c]);
    span->End();
    probes.push_back(probe);
  }
  const ByteProbe bytes = ProbeBytes(env->catalog.get(), env->tables, &root);
  const double bytes_per_query =
      static_cast<double>(traced.io_after.bytes_read -
                          traced.io_before.bytes_read) /
      std::max<uint64_t>(1, traced.completed());
  AddProbeMetrics(probes, bytes, bytes_per_query,
                  bytes.decompress_ns_per_byte > 0 ? bytes_per_query : 0,
                  &report);
  root.End();
  WriteTrace(args, root);
  return report;
}

}  // namespace minihive::perfbench
