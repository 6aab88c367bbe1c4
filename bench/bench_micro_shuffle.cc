// Micro-benchmark for the sort-merge shuffle rebuild:
//
//  1. sort-vs-merge: the seed engine gathered every map task's records for a
//     partition and full-sorted them in the reduce task (O(N log N), single
//     thread per partition). The rebuilt engine sorts runs inside the map
//     tasks (parallel) and only k-way merges at the reduce side
//     (O(N log M)). Both paths are timed here over the same >=1M-record
//     skewed-key workload.
//
//  2. engine: the same skewed aggregation job through the real engine,
//     reporting shuffled_bytes and the run-sort counters.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/value.h"
#include "mr/engine.h"
#include "mr/shuffle_record.h"

namespace minihive {
namespace {

using bench::Fmt;
using bench::Mb;
using bench::TablePrinter;

// Smoke mode (MINIHIVE_BENCH_SMOKE, CI's bench-smoke job) shrinks the
// workload ~20x; the shape checks and the report pipeline stay identical.
const uint64_t kRecords = bench::SmokeScaled<uint64_t>(1'200'000, 60'000);
constexpr int kRuns = 16;  // Map tasks feeding one reduce partition.

struct Record {
  int64_t key;
  int64_t value;
};

/// Skewed keys: 90% of records hit 100 hot keys, the rest spread over 100k.
std::vector<Record> MakeWorkload() {
  Random rng(20140627);
  std::vector<Record> records(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    int64_t key = rng.Bernoulli(0.9)
                      ? static_cast<int64_t>(rng.Uniform(100))
                      : static_cast<int64_t>(100 + rng.Uniform(100000));
    records[i] = {key, static_cast<int64_t>(i)};
  }
  return records;
}

bool RecordLess(const Record& a, const Record& b) { return a.key < b.key; }

/// Walks a sorted stream counting group transitions (stands in for the
/// Reducer Driver's group-boundary work; keeps the optimizer honest).
struct GroupWalker {
  int64_t groups = 0;
  int64_t checksum = 0;
  int64_t last_key = -1;
  void Feed(const Record& r) {
    if (r.key != last_key) {
      ++groups;
      last_key = r.key;
    }
    checksum += r.value;
  }
};

double TimeFullSort(const std::vector<std::vector<Record>>& runs,
                    GroupWalker* walker) {
  Stopwatch watch;
  std::vector<Record> all;
  size_t total = 0;
  for (const auto& run : runs) total += run.size();
  all.reserve(total);
  for (const auto& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end(), RecordLess);
  for (const Record& r : all) walker->Feed(r);
  return watch.ElapsedMillis();
}

double TimeRunSorts(std::vector<std::vector<Record>>* runs, int workers) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  std::mutex mutex;
  size_t next = 0;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&]() {
      while (true) {
        size_t index;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (next >= runs->size()) return;
          index = next++;
        }
        std::sort((*runs)[index].begin(), (*runs)[index].end(), RecordLess);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return watch.ElapsedMillis();
}

double TimeKWayMerge(const std::vector<std::vector<Record>>& runs,
                     GroupWalker* walker) {
  Stopwatch watch;
  struct Cursor {
    const std::vector<Record>* run;
    size_t pos;
    int index;
  };
  auto after = [](const Cursor& a, const Cursor& b) {
    const Record& ra = (*a.run)[a.pos];
    const Record& rb = (*b.run)[b.pos];
    if (rb.key != ra.key) return rb.key < ra.key;
    return b.index < a.index;
  };
  std::vector<Cursor> heap;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) heap.push_back({&runs[i], 0, static_cast<int>(i)});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& cursor = heap.back();
    walker->Feed((*cursor.run)[cursor.pos]);
    if (++cursor.pos < cursor.run->size()) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return watch.ElapsedMillis();
}

// ---- Part 2: the real engine.

class SkewMapTask : public mr::MapTask {
 public:
  Status Run(const mr::InputSplit& split, int, int,
             mr::ShuffleEmitter* emitter) override {
    Random rng(split.offset);
    for (uint64_t i = 0; i < split.length; ++i) {
      int64_t key = rng.Bernoulli(0.9)
                        ? static_cast<int64_t>(rng.Uniform(100))
                        : static_cast<int64_t>(100 + rng.Uniform(100000));
      MINIHIVE_RETURN_IF_ERROR(emitter->Emit(
          mr::EncodeKey({Value::Int(key)}),
          mr::EncodeValues({Value::Int(static_cast<int64_t>(i)), Value::Int(1)}),
          0));
    }
    CountInputRecords(split.length);
    return Status::OK();
  }
};

/// Sums (value, count) pairs per key group.
class SumReduceTask : public mr::ReduceTask {
 public:
  Status StartGroup(std::string_view) override {
    sum_ = count_ = 0;
    return Status::OK();
  }
  Status Reduce(std::string_view, std::string_view value, int) override {
    value_.clear();
    MINIHIVE_RETURN_IF_ERROR(mr::DecodeValues(value, &value_));
    sum_ += value_[0].AsInt();
    count_ += value_[1].AsInt();
    return Status::OK();
  }
  Status EndGroup() override { return Status::OK(); }
  Status Finish() override { return Status::OK(); }

 private:
  Row value_;
  int64_t sum_ = 0;
  int64_t count_ = 0;
};

mr::JobCounters RunEngineJob() {
  dfs::FileSystem fs;
  // Three scheduler workers plus this thread: four task slots.
  TaskScheduler scheduler(SchedulerOptions{3});
  TaskScheduler::Queue* queue = scheduler.RegisterQueue();
  mr::Engine engine(&fs, mr::EngineOptions{0, &scheduler, queue});
  mr::JobConfig job;
  job.name = "skew-sum";
  for (int s = 0; s < kRuns; ++s) {
    job.splits.push_back({"", static_cast<uint64_t>(s + 1) * 104729,
                          kRecords / kRuns, -1, 0});
  }
  job.num_reducers = 4;
  job.map_factory = [] { return std::make_unique<SkewMapTask>(); };
  job.reduce_factory = [](int, int) {
    return std::make_unique<SumReduceTask>();
  };
  mr::JobCounters counters;
  bench::Check(engine.RunJob(job, &counters), job.name.c_str());
  scheduler.UnregisterQueue(queue);
  return counters;
}

int Main() {
  std::printf("=== micro: sort-merge shuffle (%llu records, %d runs, "
              "skewed keys) ===\n\n",
              static_cast<unsigned long long>(kRecords), kRuns);

  // ---- Part 1: full-sort (seed reduce path) vs sorted runs + k-way merge.
  std::vector<std::vector<Record>> runs(kRuns);
  {
    std::vector<Record> all = MakeWorkload();
    size_t per_run = all.size() / kRuns;
    for (int r = 0; r < kRuns; ++r) {
      auto begin = all.begin() + r * per_run;
      auto end = r == kRuns - 1 ? all.end() : begin + per_run;
      runs[r].assign(begin, end);
    }
  }

  GroupWalker full_sort_walker;
  double full_sort_ms = TimeFullSort(runs, &full_sort_walker);

  double run_sort_ms = TimeRunSorts(&runs, 4);
  GroupWalker merge_walker;
  double merge_ms = TimeKWayMerge(runs, &merge_walker);

  if (full_sort_walker.groups != merge_walker.groups ||
      full_sort_walker.checksum != merge_walker.checksum) {
    std::fprintf(stderr, "FATAL: merge and full-sort disagree\n");
    return 1;
  }

  TablePrinter sort_table({"path", "map-side ms", "reduce-side ms",
                           "total ms"});
  sort_table.AddRow({"seed: gather + full sort", "0",
                     Fmt(full_sort_ms, 1), Fmt(full_sort_ms, 1)});
  sort_table.AddRow({"sorted runs (4 workers) + k-way merge",
                     Fmt(run_sort_ms, 1), Fmt(merge_ms, 1),
                     Fmt(run_sort_ms + merge_ms, 1)});
  sort_table.Print();
  std::printf("  reduce-side speedup (merge vs full sort): %.2fx\n",
              full_sort_ms / merge_ms);
  std::printf("  end-to-end speedup: %.2fx  (groups=%lld)\n\n",
              full_sort_ms / (run_sort_ms + merge_ms),
              static_cast<long long>(merge_walker.groups));

  // ---- Part 2: the real engine.
  mr::JobCounters engine = RunEngineJob();
  TablePrinter engine_table({"shuffled MB", "reduce input", "sort ms",
                             "reduce ms"});
  engine_table.AddRow({Mb(engine.shuffled_bytes.load()),
                       std::to_string(engine.reduce_input_records.load()),
                       Fmt(engine.shuffle_sort_millis(), 1),
                       Fmt(engine.reduce_phase_millis, 1)});
  engine_table.Print();

  bench::BenchReporter reporter("micro_shuffle");
  reporter.AddMetric("records", static_cast<double>(kRecords), "rows");
  reporter.AddMetric("groups", static_cast<double>(merge_walker.groups),
                     "count");
  reporter.AddMetric("full_sort_ms", full_sort_ms, "ms");
  reporter.AddMetric("run_sort_ms", run_sort_ms, "ms");
  reporter.AddMetric("kway_merge_ms", merge_ms, "ms");
  reporter.AddJobCounters("engine", engine);
  reporter.Write();

  bool merge_wins = merge_ms < full_sort_ms;
  std::printf("\nshape checks:\n");
  std::printf("  k-way merge beats full-sort reduce path: %s\n",
              merge_wins ? "yes" : "NO");
  return merge_wins ? 0 : 1;
}

}  // namespace
}  // namespace minihive

int main() { return minihive::Main(); }
