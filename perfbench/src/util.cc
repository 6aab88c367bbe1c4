#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "perfbench/src/bench.h"

namespace minihive::perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Check(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

double TrimmedMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  return Mean(std::vector<double>(values.begin() + trim, values.end() - trim));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RssSampler::RssSampler() {
  malloc_trim(0);
  Sample();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return stopping_; })) {
      lock.unlock();
      Sample();
      lock.lock();
    }
  });
}

RssSampler::~RssSampler() { PeakMb(); }

double RssSampler::PeakMb() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    Sample();
  }
  return peak_bytes_ / 1e6;
}

void RssSampler::Sample() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  unsigned long size_pages = 0, resident_pages = 0;
  if (std::fscanf(f, "%lu %lu", &size_pages, &resident_pages) == 2) {
    const uint64_t bytes = static_cast<uint64_t>(resident_pages) *
                           static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
    std::lock_guard<std::mutex> lock(mu_);
    peak_bytes_ = std::max(peak_bytes_, bytes);
  }
  std::fclose(f);
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max(std::fabs(x), std::fabs(y));
    return std::fabs(x - y) <= 1e-9 * scale || std::fabs(x - y) < 1e-12;
  }
  return a.Compare(b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// Numeric attribute `key` set on `span` itself (not on a descendant);
/// `fallback` when absent.
double SpanAttr(const telemetry::Span& span, const std::string& key,
                double fallback = 0) {
  json::Writer writer;
  span.WriteJson(&writer, /*include_timing=*/false);
  const std::string& text = writer.str();
  // Own attributes precede "children" in the serialization.
  size_t limit = text.find("\"children\"");
  const std::string needle = "\"" + key + "\": ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos || pos > limit) return fallback;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

bool SameRows(std::vector<Row> actual, std::vector<Row> expected) {
  if (actual.size() != expected.size()) return false;
  std::sort(actual.begin(), actual.end(), RowLess);
  std::sort(expected.begin(), expected.end(), RowLess);
  for (size_t r = 0; r < actual.size(); ++r) {
    if (actual[r].size() != expected[r].size()) return false;
    for (size_t c = 0; c < actual[r].size(); ++c) {
      if (!SameValue(actual[r][c], expected[r][c])) return false;
    }
  }
  return true;
}

std::string Fmt(const char* format, ...) {
  va_list ap, ap_copy;
  va_start(ap, format);
  va_copy(ap_copy, ap);
  const int length = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out(length > 0 ? length : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, ap_copy);
  va_end(ap_copy);
  return out;
}

void PrintReport(const Report& report) {
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  // One line, every digit: json::Writer pretty-prints, so build it by hand.
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += Fmt(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
             static_cast<unsigned long long>(report.attempted),
             static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    double v = std::isfinite(metric.value) ? metric.value : 0;
    out += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AddLatencyMetrics(const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& latencies_ms,
                       Report* report) {
  std::vector<double> all;
  for (size_t c = 0; c < names.size(); ++c) {
    const std::vector<double>& lat = latencies_ms[c];
    const double mean = TrimmedMean(lat);
    report->Set(Fmt("class%zu_mean_ms", c + 1), mean, "ms");
    report->Note(Fmt("class%zu_mean_ms: %s, trimmed mean %.3f ms, p50 %.3f ms "
                     "(n=%zu)",
                     c + 1, names[c].c_str(), mean, Median(lat), lat.size()));
    all.insert(all.end(), lat.begin(), lat.end());
  }
  report->Set("query_p90_ms", Percentile(all, 90), "ms");
  report->Note(Fmt("query_p90_ms = %.3f ms (n=%zu)", Percentile(all, 90),
                   all.size()));
}

QueryBreakdown ReadBreakdown(const ql::QueryResult& result, double wall_ms) {
  QueryBreakdown b;
  b.wall_ms = wall_ms;
  const mr::JobCounters& c = result.counters;
  b.map_phase_ms = c.map_phase_millis;
  b.reduce_phase_ms = c.reduce_phase_millis;
  b.local_task_ms = c.local_task_millis();
  b.task_cpu_ms = c.cpu_millis();
  b.shuffle_sort_ms = c.shuffle_sort_millis();
  b.shuffled_bytes = static_cast<double>(c.shuffled_bytes.load());
  b.combine_in = static_cast<double>(c.combine_input_records.load());
  b.combine_out = static_cast<double>(c.combine_output_records.load());
  b.map_tasks = c.map_tasks;
  b.task_failures = static_cast<double>(c.map_task_failures.load() +
                                        c.reduce_task_failures.load() +
                                        c.local_task_failures.load());
  if (result.profile == nullptr) return b;
  const telemetry::Span& query = *result.profile;
  for (const telemetry::Span* phase : query.children()) {
    const double ms = phase->duration_nanos() / 1e6;
    if (phase->name() == "plan") b.plan_ms += ms;
    if (phase->name() == "execute") {
      b.execute_ms += ms;
      for (const telemetry::Span* job : phase->children()) {
        for (const telemetry::Span* task : job->children()) {
          if (task->name().rfind("map[", 0) != 0) continue;
          b.map_attempts += 1;
          if (SpanAttr(*task, "records_in", -1) == 0) b.empty_map_attempts += 1;
        }
      }
    }
    if (phase->name() == "fetch") b.fetch_ms += ms;
  }
  b.admission_wait_ms = SpanAttr(query, "admission_queue_wait_millis");
  b.sched_queue_wait_ms = SpanAttr(query, "sched_queue_wait_millis");
  b.budget_peak_bytes = SpanAttr(query, "query_budget_peak_bytes");
  return b;
}

void AddBreakdownMetrics(const std::vector<QueryBreakdown>& queries,
                         Report* report) {
  QueryBreakdown sum;
  double budget_peak = 0;
  for (const QueryBreakdown& q : queries) {
    sum.wall_ms += q.wall_ms;
    sum.plan_ms += q.plan_ms;
    sum.execute_ms += q.execute_ms;
    sum.fetch_ms += q.fetch_ms;
    sum.map_phase_ms += q.map_phase_ms;
    sum.reduce_phase_ms += q.reduce_phase_ms;
    sum.local_task_ms += q.local_task_ms;
    sum.task_cpu_ms += q.task_cpu_ms;
    sum.shuffle_sort_ms += q.shuffle_sort_ms;
    sum.shuffled_bytes += q.shuffled_bytes;
    sum.combine_in += q.combine_in;
    sum.combine_out += q.combine_out;
    sum.map_tasks += q.map_tasks;
    sum.map_attempts += q.map_attempts;
    sum.empty_map_attempts += q.empty_map_attempts;
    sum.task_failures += q.task_failures;
    sum.admission_wait_ms += q.admission_wait_ms;
    sum.sched_queue_wait_ms += q.sched_queue_wait_ms;
    budget_peak = std::max(budget_peak, q.budget_peak_bytes);
  }
  const double n = std::max<size_t>(1, queries.size());
  const double unaccounted =
      sum.wall_ms - sum.plan_ms - sum.execute_ms - sum.fetch_ms;
  const double execute_other = sum.execute_ms - sum.map_phase_ms -
                               sum.reduce_phase_ms - sum.local_task_ms;
  report->Set("ql.plan_ms", sum.plan_ms / n, "ms");
  report->Set("ql.execute_ms", sum.execute_ms / n, "ms");
  report->Set("ql.execute_other_ms", execute_other / n, "ms");
  report->Set("ql.fetch_ms", sum.fetch_ms / n, "ms");
  report->Set("ql.unaccounted_ms", unaccounted / n, "ms");
  report->Set("ql.wall_ms", sum.wall_ms / n, "ms");
  report->Set("mr.map_phase_ms", sum.map_phase_ms / n, "ms");
  report->Set("mr.reduce_phase_ms", sum.reduce_phase_ms / n, "ms");
  report->Set("mr.local_task_ms", sum.local_task_ms / n, "ms");
  report->Set("mr.task_cpu_ms", sum.task_cpu_ms / n, "ms");
  report->Set("mr.shuffle_sort_ms", sum.shuffle_sort_ms / n, "ms");
  report->Set("mr.shuffled_bytes", sum.shuffled_bytes / n, "bytes");
  report->Set("mr.combine_keep_frac",
              sum.combine_in > 0 ? sum.combine_out / sum.combine_in : 0,
              "frac");
  report->Set("mr.map_tasks", sum.map_tasks / n, "count");
  report->Set("mr.empty_map_task_frac",
              sum.map_attempts > 0 ? sum.empty_map_attempts / sum.map_attempts
                                   : 0,
              "frac");
  report->Set("mr.task_failures", sum.task_failures, "count");
  report->Set("session.admission_wait_ms", sum.admission_wait_ms / n, "ms");
  report->Set("sched.queue_wait_ms", sum.sched_queue_wait_ms / n, "ms");
  report->Set("session.budget_peak_bytes", budget_peak, "bytes");

  // Where the time went: every line is a mean per query; the lines add up
  // to the mean wall time, with what no span covers as its own line.
  auto line = [&](const char* label, double total_ms) {
    report->Note(Fmt("  %-22s %10.3f ms  %6.1f%%", label, total_ms / n,
                     sum.wall_ms > 0 ? 100.0 * total_ms / sum.wall_ms : 0));
  };
  report->Note(Fmt("where the time went (%zu traced queries, mean per query):",
                   queries.size()));
  line("plan", sum.plan_ms);
  line("execute: map phase", sum.map_phase_ms);
  line("execute: reduce phase", sum.reduce_phase_ms);
  line("execute: local task", sum.local_task_ms);
  line("execute: other", execute_other);
  line("fetch", sum.fetch_ms);
  line("unaccounted", unaccounted);
  line("= wall", sum.wall_ms);
}

IoSnapshot TakeIo(dfs::FileSystem* fs) {
  IoSnapshot s;
  s.bytes_read = fs->stats().bytes_read.load();
  s.physical = fs->stats().bytes_read_physical.load();
  s.cached = fs->stats().bytes_read_cached.load();
  s.read_ops = fs->stats().read_ops.load();
  s.bytes_written = fs->stats().bytes_written.load();
  if (auto caches = fs->cache_manager()) {
    if (caches->block_cache() != nullptr) {
      s.block = caches->block_cache()->stats();
    }
    if (caches->metadata_cache() != nullptr) {
      s.meta = caches->metadata_cache()->stats();
    }
  }
  return s;
}

void AddIoMetrics(const IoSnapshot& a, const IoSnapshot& b, double queries,
                  Report* report) {
  const double n = std::max(1.0, queries);
  const double bytes = static_cast<double>(b.bytes_read - a.bytes_read);
  report->Set("dfs.bytes_read", bytes / n, "bytes");
  report->Set("dfs.physical_frac",
              bytes > 0 ? (b.physical - a.physical) / bytes : 0, "frac");
  report->Set("dfs.read_ops", (b.read_ops - a.read_ops) / n, "count");
  report->Set("cache.block_hit_frac",
              bytes > 0 ? (b.cached - a.cached) / bytes : 0, "frac");
  report->Set("cache.block_evicted_bytes",
              (b.block.evicted_bytes - a.block.evicted_bytes) / n, "bytes");
  const double meta_lookups = static_cast<double>(
      (b.meta.hits - a.meta.hits) + (b.meta.misses - a.meta.misses));
  report->Set("cache.metadata_hit_frac",
              meta_lookups > 0 ? (b.meta.hits - a.meta.hits) / meta_lookups : 0,
              "frac");
}

void WriteTrace(const Args& args, const telemetry::Span& root) {
  std::string path = std::string(kTraceDir) + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  json::Writer writer;
  root.WriteJson(&writer);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s (trace not saved)\n",
                 path.c_str());
    return;
  }
  std::fputs(writer.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("trace spans written to %s\n", path.c_str());
}

}  // namespace minihive::perfbench
